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
rule, which keeps per-example graphs small: its value is the level's
``(2k, m)`` state matrix ``[h; c]``, and it gathers its children's
states from the lower levels' state matrices itself, so the tape holds
one node per level and none per tree node.  The rule returns the
gate-block weight's gradient factored (:class:`OuterGrad`), so
``backward`` forms it with one GEMM over every level of the graph, and
each lower level's share as one column slice (:class:`SliceGrad`).
After the walk one op lays the levels' h rows out as the tree's
``(k, n)`` h matrix in node-id order, the form attention and the
relation walk read.  The backward rules are exercised directly by the
finite-difference suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import AffineMap, Node, OuterGrad, ShapeMismatch, SliceGrad, sigmoid
from .embeddings import embedding_node


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


def lstm_cell(graph, params, x, left=(), right=()):
    """One composition step over ``m`` nodes side by side.

    ``x`` is the ``(d_in, m)`` input node, or None for a zero input.
    ``left`` gathers the nodes' left child states from ``(2k, .)`` nodes
    of ``[h; c]``: entry ``(node, at, columns)`` gives the nodes ``at``
    the states in ``node``'s columns ``columns``, both numpy column
    indexes (an id, a slice or distinct ids), and the entries' ``at``
    cover ``range(m)`` once.  ``right`` gathers the right child states
    alike; both empty means zero child states.  Returns the ``(2k, m)``
    node ``[h; c]``, whose vjp hands each entry's node one column
    :class:`SliceGrad`.  Output h satisfies ``|h|_inf < 1`` because it
    is a product of a sigmoid gate and a tanh of the memory.
    """
    k = params.k_out
    if x is None and not left or bool(left) != bool(right):
        raise ShapeMismatch("a cell takes an input, both child states, or both")
    m = sum(_width(at) for _, at, _ in left) if x is None else x.shape[1]
    if x is not None and x.shape != (params.d_in, m):
        raise ShapeMismatch(f"cell input must be ({params.d_in}, {m}), got {x.shape}")
    for side in (left, right) if left else ():
        width = 0
        for node, at, _ in side:
            if node.shape[0] != 2 * k:
                raise ShapeMismatch(f"child states have {node.shape[0]} rows, not {2 * k}")
            width += _width(at)
        if width != m:
            raise ShapeMismatch(f"child states fill {width} of {m} columns")

    wn = graph.parameter(params.block.weight)
    bn = graph.parameter(params.block.bias)
    wv = wn.value
    xv = None if x is None else x.value
    h1 = h2 = c1 = c2 = None
    if left:
        children = np.empty((2, 2 * k, m), graph.dtype)  # [h; c] per side
        for hc, side in zip(children, (left, right)):
            for node, at, columns in side:
                hc[:, at] = node.value[:, columns]
        (h1, h2), (c1, c2) = children[:, :k], children[:, k:]
    h, c, gates, u, t, inp, cols = cell_values(wv, bn.value, xv, h1, h2, c1, c2, k)
    i_g, o = gates[:k], gates[3 * k:]

    def vjp(g):
        gh, gc_ext = g[:k], g[k:]
        gc = gc_ext + gh * o * (1.0 - t * t)
        # The gradient of the gate pre-activations, built in place block by
        # block with the products, in their order, of
        # [(gc*u)*i*(1-i); (gc*c1)*f1*(1-f1); (gc*c2)*f2*(1-f2);
        #  (gh*t)*o*(1-o); (gc*i)*(1-u*u)]: the first four share a sigmoid's
        # s*(1-s) factor, applied over all four at once.
        gz = np.empty((5 * k, m), g.dtype)
        np.multiply(gc, u, out=gz[:k])
        if left:
            np.multiply(gc, c1, out=gz[k:2 * k])
            np.multiply(gc, c2, out=gz[2 * k:3 * k])
        else:
            gz[k:3 * k] = 0.0
        np.multiply(gh, t, out=gz[3 * k:4 * k])
        sig = gz[:4 * k]
        sig *= gates
        sig *= 1.0 - gates
        np.multiply(gc, i_g, out=gz[4 * k:])
        gz[4 * k:] *= 1.0 - u * u
        ginp = wv[:, cols].T @ gz
        rows = inp
        if rows.shape[0] < wv.shape[1]:  # zero rows for the absent blocks
            rows = np.zeros((wv.shape[1], m), gz.dtype)
            rows[cols] = inp
        grads = [OuterGrad(gz, rows), gz.sum(axis=1, keepdims=True)]
        if xv is not None:
            grads.append(ginp[:params.d_in])
        if left:
            # the [h; c] gradient of the left children, then of the right
            sides = np.empty((2, 2 * k, m), g.dtype)
            sides[:, :k] = ginp[-2 * k:].reshape(2, k, m)
            np.multiply(gc, gates[k:3 * k].reshape(2, k, m), out=sides[:, k:])
            for side, g_side in zip((left, right), sides):
                grads += [SliceGrad((slice(None), columns), g_side[:, at])
                          for _, at, columns in side]
        return tuple(grads)

    return graph.record(
        np.concatenate((h, c)),
        (wn, bn) + (() if x is None else (x,)) + tuple(
            node for node, _, _ in (*left, *right)),
        vjp,
        "lstm_cell",
    )


def _width(index):
    """How many columns a column index (an id, a slice or a sequence) reads."""
    if isinstance(index, slice):
        return index.stop - index.start
    return 1 if isinstance(index, (int, np.integer)) else len(index)


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


class NodeView(NamedTuple):
    """One node's exposed vector, a ``(k, 1)`` column of a walk's h matrix."""

    h: Node


class TreeStates:
    """A tree walked on the tape.  ``levels[t]`` is the ``(2k, m)`` node
    ``[h; c]`` of ``tree.levels[t]``, and ``h`` the ``(k, n)`` node whose
    column ``i`` is node ``i``'s exposed vector."""

    def __init__(self, graph, levels, h):
        self.graph, self.levels, self.h = graph, levels, h

    # Per-node views, made on demand, for callers still written against
    # per-node states (the benchmark's layer probe).  Delete them, and
    # :func:`as_matrix`'s list form, once that probe takes matrices.
    def __len__(self):
        return self.h.shape[1]

    def __getitem__(self, i):
        return NodeView(self.graph.take_col(self.h, i))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def as_matrix(graph, vectors):
    """A walk's ``(k, n)`` h matrix node as it is, or a list of ``(k, 1)``
    nodes (per-node callers, see :class:`TreeStates`) stacked into one."""
    return vectors if isinstance(vectors, Node) else graph.stack_columns(vectors)


def walk_tree(graph, tree, params, inputs):
    """Run the cell bottom-up over ``tree``; returns its :class:`TreeStates`.

    One :func:`lstm_cell` covers each level of ``tree.levels``, so a
    level of m nodes is one ``(5k, .) x (., m)`` product, not m products
    of one column, and one ``(2k, m)`` tape node.  ``inputs(ids)`` gives
    the input node of the level holding ``ids``, one column per id, or
    None for a zero input.  The leaf level has no child states; every
    other level's cell gathers its children from the lower levels' nodes,
    one entry per lower level and side.  After the walk one op lays the
    levels' h rows out as the tree's ``(k, n)`` h matrix, in node-id
    order.  The last bit of each state depends on how the levels group
    the nodes, because BLAS rounds a product over several columns
    differently from one column at a time.
    """
    k = params.k_out
    levels = []
    slot = {}  # node id -> (height, position in its level)
    for height, ids in enumerate(tree.levels):
        left = right = ()
        if height:
            left = _children(levels, slot, [tree.lefts[i] for i in ids])
            right = _children(levels, slot, [tree.rights[i] for i in ids])
        levels.append(lstm_cell(graph, params, inputs(ids), left, right))
        for position, i in enumerate(ids):
            slot[i] = (height, position)

    # a one-node level's column as a view
    index = [slice(ids[0], ids[0] + 1) if len(ids) == 1 else ids for ids in tree.levels]
    h = np.empty((k, tree.node_count), graph.dtype)
    for ids, level in zip(index, levels):
        h[:, ids] = level.value[:k]

    def vjp(g):
        return tuple(SliceGrad(np.s_[:k, :], g[:, ids]) for ids in index)

    return TreeStates(graph, levels, graph.record(h, levels, vjp, "h_matrix"))


def _children(levels, slot, children):
    """:func:`lstm_cell`'s gather entries for the child ids ``children``
    of one side of a level: grouped by the level node that holds them,
    lowest first."""
    if len(children) == 1:
        height, position = slot[children[0]]
        return [(levels[height], 0, position)]
    groups = {}
    for at, child in enumerate(children):
        height, position = slot[child]
        ats, positions = groups.setdefault(height, ([], []))
        ats.append(at)
        positions.append(position)
    return [(levels[height], _as_index(ats), _as_index(positions))
            for height, (ats, positions) in sorted(groups.items())]


def _as_index(ids):
    """A list of column ids as a numpy index: the id itself for one, a
    slice for a run counting up by one, else an integer array."""
    if len(ids) == 1:
        return ids[0]
    if ids == list(range(ids[0], ids[0] + len(ids))):
        return slice(ids[0], ids[0] + len(ids))
    return np.array(ids)


def encode_tree(graph, tree, vocab, table, params, dropout_rate=0.0, rng=None):
    """Encode every node of ``tree``; returns its :class:`TreeStates`,
    whose ``h`` is the tree's ``(k, n)`` h matrix.

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
