"""Bottom-up meaning composition with a binary Tree-LSTM.

Each node applies one affine block to ``[x; h_left; h_right]`` and
splits the result into five gates (input, one forget gate per child,
output, candidate).  Leaves feed their word vector as ``x`` with zero
child states; internal nodes feed a zero ``x`` and their children's
states.  The memory vector ``c`` stays private to the cell: consumers
of the tree only ever read ``h``.

The whole cell is recorded as one fused tape op with a hand-written
backward rule, which keeps per-example graphs small.  The rule returns
the gate-block weight's gradient factored (:class:`OuterGrad`), so
``backward`` forms it with one GEMM over every cell of the graph.  The
backward rule is exercised directly by the finite-difference suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import AffineMap, OuterGrad, ShapeMismatch, sigmoid
from .embeddings import embedding_node


@dataclass
class NodeState:
    """Exposed vector ``h`` and cell memory ``c`` for one tree node."""

    h: object
    c: object


@dataclass
class LstmParameters:
    """One gate block of shape ``(5 * k_out, d_in + 2 * k_out)``."""

    block: AffineMap

    @property
    def k_out(self):
        return self.block.out_dim // 5

    @property
    def d_in(self):
        return self.block.in_dim - 2 * self.k_out

    def __post_init__(self):
        if self.block.out_dim % 5 != 0:
            raise ShapeMismatch("gate block height must be a multiple of 5")
        if self.d_in < 1:
            raise ShapeMismatch("gate block is too narrow for its height")


def lstm_cell(graph, params, x, left, right):
    """One composition step; returns the new :class:`NodeState`.

    Output h satisfies ``|h|_inf < 1`` because it is a product of a
    sigmoid gate and a tanh of the memory.
    """
    k = params.k_out
    if x.shape != (params.d_in, 1):
        raise ShapeMismatch(f"cell input must be ({params.d_in}, 1), got {x.shape}")
    for state in (left, right):
        if state.h.shape != (k, 1) or state.c.shape != (k, 1):
            raise ShapeMismatch("child state width does not match the gate block")

    wn = graph.parameter(params.block.weight)
    bn = graph.parameter(params.block.bias)
    wv = wn.value
    xv, h1, h2 = x.value, left.h.value, right.h.value
    c1, c2 = left.c.value, right.c.value

    inp = np.concatenate((xv, h1, h2))
    z = wv @ inp + bn.value
    i_g = sigmoid(z[:k])
    f1 = sigmoid(z[k:2 * k])
    f2 = sigmoid(z[2 * k:3 * k])
    o = sigmoid(z[3 * k:4 * k])
    u = np.tanh(z[4 * k:])
    c = i_g * u + f1 * c1 + f2 * c2
    t = np.tanh(c)
    h = o * t
    din = xv.shape[0]

    def vjp(g):
        gh, gc_ext = g[:k], g[k:]
        go = gh * t
        gc = gc_ext + gh * o * (1.0 - t * t)
        gz = np.concatenate((
            (gc * u) * i_g * (1.0 - i_g),
            (gc * c1) * f1 * (1.0 - f1),
            (gc * c2) * f2 * (1.0 - f2),
            go * o * (1.0 - o),
            (gc * i_g) * (1.0 - u * u),
        ))
        ginp = wv.T @ gz
        return (
            OuterGrad(gz, inp),       # gate block weight
            gz,                       # gate block bias
            ginp[:din],               # x
            ginp[din:din + k],        # left h
            ginp[din + k:],           # right h
            gc * f1,                  # left c
            gc * f2,                  # right c
        )

    stacked = graph.record(
        np.vstack((h, c)),
        (wn, bn, x, left.h, right.h, left.c, right.c),
        vjp,
        "lstm_cell",
    )
    return NodeState(
        h=graph.slice_rows(stacked, 0, k),
        c=graph.slice_rows(stacked, k, 2 * k),
    )


def dropout(graph, x, rate, rng=None):
    """Inverted dropout on a column node: each entry is zeroed with
    probability ``rate`` and survivors are scaled by 1/(1 - rate), so the
    expectation is unchanged.  Evaluation passes ``rng=None``, which
    like ``rate == 0`` returns ``x`` itself and draws nothing.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0 or rng is None:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return graph.hadamard(x, graph.constant(mask, op="dropout_mask"))


def walk_tree(graph, tree, params, input_at):
    """Run the cell bottom-up over ``tree``; returns a NodeState per node id.

    ``input_at(i)`` gives node ``i``'s input column.  Leaves start from
    zero child states.  BinaryTree ids are post-order, so the id sweep
    computes both children before their parent.
    """
    k = params.k_out
    zero = NodeState(
        h=graph.constant(np.zeros((k, 1)), op="zero_h"),
        c=graph.constant(np.zeros((k, 1)), op="zero_c"),
    )
    states = []
    for i in range(tree.node_count):
        left = right = zero
        if not tree.is_leaf(i):
            left, right = states[tree.lefts[i]], states[tree.rights[i]]
        states.append(lstm_cell(graph, params, input_at(i), left, right))
    return states


def encode_tree(graph, tree, vocab, table, params, dropout_rate=0.0, rng=None):
    """Encode every node of ``tree``; returns a NodeState per node id.

    Leaves feed their word vector, with an independent dropout mask per
    leaf when ``rng`` is given; internal nodes feed a zero input.
    """
    d = params.d_in
    if table.dim != d:
        raise ShapeMismatch(f"embedding width {table.dim} vs cell input {d}")
    zero_x = graph.constant(np.zeros((d, 1)), op="zero_input")

    def input_at(i):
        if not tree.is_leaf(i):
            return zero_x
        x = embedding_node(graph, vocab, table, tree.tokens[i])
        return dropout(graph, x, dropout_rate, rng)

    return walk_tree(graph, tree, params, input_at)
