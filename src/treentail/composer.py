"""Bottom-up meaning composition with a binary Tree-LSTM.

Each node applies one affine block to ``[x; h_left; h_right]`` and
splits the result into five gates (input, one forget gate per child,
output, candidate).  Leaves feed their word vector as ``x`` (a leaf level
reads its vectors with one embedding op and one dropout op) and have no
child states; internal nodes of the meaning encoder have no ``x``.  An
absent part is zero, so the cell multiplies only the column block of
the gate weight that is present: ``W[:, :d_in]`` for leaves,
``W[:, d_in:]`` for internal meaning nodes, the whole block for nodes
with both (the relation encoder's internal nodes).  The memory vector
``c`` stays private to the cell: consumers of the tree only ever read
``h``.

:func:`walk_tree` runs the cell once per tree level
(:attr:`BinaryTree.levels`, the nodes of one height) on that level's
nodes side by side, so a level costs one matrix product however many
nodes it holds.  BLAS rounds a product over several columns differently
from one column at a time, so the last bit of every state depends on
how the levels group the nodes; the tape-free forward in
:mod:`treentail.entailment` runs the same schedule through the same
:func:`cell_values` on the same memory layouts, and matches the tape
bit for bit.

One level is recorded as one fused tape op with a hand-written backward
rule, which keeps per-example graphs small.  The rule returns the
gate-block weight's gradient factored (:class:`OuterGrad`), so
``backward`` forms it with one GEMM over every level of the graph.  The
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


def cell_values(w, b, x, h1, h2, c1, c2, k):
    """The cell's arithmetic on ``m`` columns, without a tape.

    ``x`` is ``(d_in, m)`` or None (zero); the child states ``h1``,
    ``h2``, ``c1``, ``c2`` are ``(k, m)`` or all None (zero).  Returns
    ``(h, c, gates, u, t, inp, cols)``: the new state, the sigmoid gates
    (input, left forget, right forget, output), the candidate ``u``,
    ``t = tanh(c)``, and the multiplied input rows ``inp``, which are
    ``W[:, cols]``'s operand.
    """
    d = w.shape[1] - 2 * k
    if h1 is None:
        cols, inp = slice(0, d), x
    elif x is None:
        cols, inp = slice(d, None), np.concatenate((h1, h2))
    else:
        cols, inp = slice(None), np.concatenate((x, h1, h2))
    z = w[:, cols] @ inp + b
    gates = sigmoid(z[:4 * k])
    u = np.tanh(z[4 * k:])
    c = gates[:k] * u
    if h1 is not None:
        c = c + gates[k:2 * k] * c1 + gates[2 * k:3 * k] * c2
    t = np.tanh(c)
    return gates[3 * k:] * t, c, gates, u, t, inp, cols


def lstm_cell(graph, params, x, left, right):
    """One composition step over ``m`` nodes side by side.

    ``x`` is the ``(d_in, m)`` input node, or None for a zero input;
    ``left`` and ``right`` are the children's :class:`NodeState` with
    ``(k, m)`` nodes, or both None for zero child states.  Returns the
    new NodeState, with ``(k, m)`` nodes.  Output h satisfies
    ``|h|_inf < 1`` because it is a product of a sigmoid gate and a tanh
    of the memory.
    """
    k = params.k_out
    if (left is None) != (right is None) or (x is None and left is None):
        raise ShapeMismatch("a cell takes an input, both child states, or both")
    m = (left.h if x is None else x).shape[1]
    if x is not None and x.shape != (params.d_in, m):
        raise ShapeMismatch(f"cell input must be ({params.d_in}, {m}), got {x.shape}")
    children = () if left is None else (left.h, right.h, left.c, right.c)
    for state in children:
        if state.shape != (k, m):
            raise ShapeMismatch("child state width does not match the gate block")

    wn = graph.parameter(params.block.weight)
    bn = graph.parameter(params.block.bias)
    wv = wn.value
    xv = None if x is None else x.value
    h1, h2, c1, c2 = (s.value for s in children) if children else (None,) * 4
    h, c, gates, u, t, inp, cols = cell_values(wv, bn.value, xv, h1, h2, c1, c2, k)
    i_g, f1, f2, o = gates[:k], gates[k:2 * k], gates[2 * k:3 * k], gates[3 * k:]

    def vjp(g):
        gh, gc_ext = g[:k], g[k:]
        gc = gc_ext + gh * o * (1.0 - t * t)
        if children:
            gf1 = (gc * c1) * f1 * (1.0 - f1)
            gf2 = (gc * c2) * f2 * (1.0 - f2)
        else:
            gf1 = gf2 = np.zeros_like(gc)
        gz = np.concatenate((
            (gc * u) * i_g * (1.0 - i_g),
            gf1,
            gf2,
            (gh * t) * o * (1.0 - o),
            (gc * i_g) * (1.0 - u * u),
        ))
        ginp = wv[:, cols].T @ gz
        rows = inp
        if rows.shape[0] < wv.shape[1]:  # zero rows for the absent blocks
            rows = np.zeros((wv.shape[1], m), gz.dtype)
            rows[cols] = inp
        grads = [OuterGrad(gz, rows), gz.sum(axis=1, keepdims=True)]
        if xv is not None:
            grads.append(ginp[:params.d_in])
        if children:
            off = ginp.shape[0] - 2 * k
            grads += [ginp[off:off + k], ginp[off + k:], gc * f1, gc * f2]
        return tuple(grads)

    stacked = graph.record(
        np.vstack((h, c)),
        (wn, bn) + (() if x is None else (x,)) + children,
        vjp,
        "lstm_cell",
    )
    return NodeState(
        h=graph.slice_rows(stacked, 0, k),
        c=graph.slice_rows(stacked, k, 2 * k),
    )


def dropout(graph, x, rate, rng=None):
    """Inverted dropout on a ``(d, m)`` level node, a mask per level,
    drawn leaf by leaf (column ``j`` takes the ``d`` draws after column
    ``j - 1``'s): each entry is zeroed with probability ``rate`` and
    survivors are scaled by 1/(1 - rate), so the expectation is
    unchanged.  Evaluation passes ``rng=None``, which like ``rate == 0``
    returns ``x`` itself and draws nothing.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0 or rng is None:
        return x
    keep = np.ascontiguousarray(rng.random(x.shape[::-1]).T) >= rate
    return graph.hadamard(x, graph.constant(keep / (1.0 - rate), op="dropout_mask"))


def walk_tree(graph, tree, params, inputs):
    """Run the cell bottom-up over ``tree``; returns a NodeState per node id.

    One :func:`lstm_cell` covers each level of ``tree.levels``, so a
    level of m nodes is one ``(5k, .) x (., m)`` product, not m products
    of one column.  ``inputs(ids)`` gives the input node of the level
    holding ``ids``, one column per id, or None for a zero input.  The
    leaf level has no child states; every other level gathers its
    children's states, which lie on lower levels.  Each returned state
    has ``(k, 1)`` nodes.  The last bit of each state depends on how
    the levels group the nodes, because BLAS rounds a product over
    several columns differently from one column at a time.
    """
    states = [None] * tree.node_count
    for height, ids in enumerate(tree.levels):
        left = right = None
        if height:
            left = _gather(graph, [states[tree.lefts[i]] for i in ids])
            right = _gather(graph, [states[tree.rights[i]] for i in ids])
        out = lstm_cell(graph, params, inputs(ids), left, right)
        if len(ids) == 1:
            states[ids[0]] = out
            continue
        for j, i in enumerate(ids):
            states[i] = NodeState(graph.take_col(out.h, j), graph.take_col(out.c, j))
    return states


def _gather(graph, states):
    return NodeState(graph.stack_columns([s.h for s in states]),
                     graph.stack_columns([s.c for s in states]))


def encode_tree(graph, tree, vocab, table, params, dropout_rate=0.0, rng=None):
    """Encode every node of ``tree``; returns a NodeState per node id.

    The leaf level reads its word vectors with one :func:`embedding_node`
    and, when ``rng`` is given, applies one :func:`dropout` mask, drawn
    leaf by leaf in id order; internal nodes feed no input.
    """
    d = params.d_in
    if table.dim != d:
        raise ShapeMismatch(f"embedding width {table.dim} vs cell input {d}")

    def inputs(ids):
        if not tree.is_leaf(ids[0]):
            return None
        words = embedding_node(graph, vocab, table, [tree.tokens[i] for i in ids])
        return dropout(graph, words, dropout_rate, rng)

    return walk_tree(graph, tree, params, inputs)
