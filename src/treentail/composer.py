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

:func:`walk_values` runs the cell once per level of a schedule
(:func:`~treentail.trees.forest_schedule`: the nodes of one height,
in forest ids) on that level's nodes side by side, so a level costs one
matrix product however many nodes it holds.  Each level gathers its
children's states by forest id and writes its own h and c columns.
Both paths run it on the same forests: the tape on a training batch's
premises and hypotheses (or a lone tree's), and the tape-free forward in
:mod:`treentail.entailment` on the same pairs' or a chunk's.  BLAS
rounds a product over several columns differently from one column at a
time, so the last bit of every state depends on how the levels group
the nodes; both paths group and lay out their operands alike, and agree
bit for bit.

On the tape, :func:`walk_tree` records a whole walk, of one tree or a
forest, as one fused op with a hand-written backward rule, so the tape
holds one node per walk, none per level or tree node.  Its value is the
``(k, n)`` h matrix in forest-id order, the form attention and the
relation walk read; its one input node is the leaves' word vectors
(meaning walk) or every node's ``[h; context]`` column (relation walk).
The op keeps each level's gate pre-activations for its backward and
nothing else per level.  The backward sweeps the levels top down,
routing each level's child gradients into the ``[h; c]`` gradient of
the nodes below and freeing each level's kept state as it passes it,
and returns the gate-block weight's gradient factored over every node
of the walk (:class:`OuterGrad`), one GEMM per walk.  The backward rule
is exercised directly by the finite-difference suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import AffineMap, Node, NonFiniteValue, OuterGrad, ShapeMismatch, sigmoid
from .embeddings import embedding_node
from .trees import BinaryTree, forest_schedule


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
    ``(h, c, z, cols)``: the new state, the ``(5k, m)`` pre-activations
    overwritten in place, block by block, by the four sigmoid gates
    (input, left forget, right forget, output) and the candidate ``u``,
    and the columns ``cols`` of ``W`` that multiplied the input rows.

    Any operand may also carry a leading stack axis, one model per entry
    (the gradient audit's perturbed copies of one parameter): the cell
    reads only the last two axes, and a 2-D operand broadcasts over the
    stack.  A stacked leaf level leaves its forget-gate rows of ``z``
    raw: no child state reads them, and no backward runs on a stack.
    """
    gates, u_rows, i_rows, f1_rows, f2_rows, o_rows = _gate_rows(k)
    d = w.shape[-1] - 2 * k
    if h1 is None:
        cols, inp = slice(0, d), x
    elif x is None:
        cols, inp = slice(d, None), np.concatenate((h1, h2), axis=-2)
    else:
        if x.ndim < h1.ndim:  # the stack reached the children, not the input
            x = np.broadcast_to(x, h1.shape[:-2] + x.shape[-2:])
        cols, inp = slice(None), np.concatenate((x, h1, h2), axis=-2)
    z = w[..., cols] @ inp
    if b.ndim > z.ndim:
        z = z + b
    else:
        z += b
    if h1 is None and z.ndim > 2:
        sigmoid(z[i_rows], out=z[i_rows])
        sigmoid(z[o_rows], out=z[o_rows])
    else:
        sigmoid(z[gates], out=z[gates])
    u = z[u_rows]
    np.tanh(u, out=u)
    c = z[i_rows] * u
    if h1 is not None:
        forget = z[f1_rows] * c1
        c += forget
        np.multiply(z[f2_rows], c2, out=forget)
        c += forget
    h = np.tanh(c)
    h *= z[o_rows]
    return h, c, z, cols


@functools.cache
def _gate_rows(k):
    """Indices, by the last two axes, of the row blocks of a ``(5k, m)``
    pre-activation array: the four sigmoid gates together, the candidate,
    then each sigmoid gate alone."""
    return tuple((Ellipsis, slice(lo * k, hi * k), slice(None))
                 for lo, hi in ((0, 4), (4, 5), (0, 1), (1, 2), (2, 3), (3, 4)))


def walk_values(schedule, x, w, b, k, kept=None):
    """The walk's arithmetic without a tape: one :func:`cell_values` per
    level of ``schedule`` (:func:`~treentail.trees.forest_schedule`),
    lowest first.  Each level gathers its children's states by forest
    id, and writes its own h and c columns.

    ``x`` is the ``(d_in, .)`` input: one column per leaf, in leaf-level
    order, feeds the leaf level only; one column per node feeds every
    node.  Returns the forest's ``(k, n)`` h and c matrices, behind a
    leading stack axis if ``x``, ``w`` or ``b`` has one (at most one
    stack, shared by every operand that carries it).  ``kept``, if
    given, receives each level's ``(z, cols)``, which the tape's
    backward rule reads.
    """
    offsets, levels = schedule
    lead = w.shape[:-2] or b.shape[:-2] or x.shape[:-2]
    hs = np.empty(lead + (k, offsets[-1]), w.dtype)
    cs = np.empty_like(hs)
    every = x.shape[-1] == offsets[-1]
    for ids, lefts, rights in levels:
        h1 = h2 = c1 = c2 = None
        if lefts is not None:
            h1, h2 = _cols(hs, lefts), _cols(hs, rights)
            c1, c2 = _cols(cs, lefts), _cols(cs, rights)
        if every:
            inputs = _cols(x, ids)
        else:
            inputs = x if lefts is None else None
        hs[..., ids], cs[..., ids], *rest = cell_values(w, b, inputs, h1, h2, c1, c2, k)
        if kept is not None:
            kept.append(rest)
    return hs, cs


def _cols(a, ix):
    """Columns ``ix`` of ``a`` (its last axis): a view for a slice, else a
    C-ordered copy (``a[:, ids]`` would be Fortran-ordered, and BLAS may
    round a product of the two layouts differently)."""
    return a[..., ix] if isinstance(ix, slice) else a.take(ix, axis=-1)


def dropout(graph, x, rate, rng=None, draws=None):
    """Inverted dropout on a ``(d, m)`` level node, a mask per level,
    drawn leaf by leaf (column ``j`` takes the ``d`` draws after column
    ``j - 1``'s): each entry is zeroed with probability ``rate`` and
    survivors are scaled by 1/(1 - rate), so the expectation is
    unchanged.  ``draws``, the ``(m, d)`` uniform draws of the level's
    leaves taken from elsewhere, a row per leaf, stands in for drawing
    from ``rng``.  Evaluation passes neither, which like ``rate == 0``
    returns ``x`` itself and draws nothing.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0 or (rng is None and draws is None):
        return x
    if draws is None:
        draws = rng.random(x.shape[::-1])
    keep = np.ascontiguousarray(draws.T) >= rate
    return graph.hadamard(x, graph.constant(keep / (1.0 - rate), op="dropout_mask"))


class NodeView(NamedTuple):
    """One node's exposed vector, a ``(k, 1)`` column of a walk's h matrix."""

    h: Node


class TreeStates:
    """A tree or forest walked on the tape: ``h`` is the ``(k, n)`` node
    whose column ``i`` is node ``i``'s exposed vector."""

    def __init__(self, graph, h):
        self.graph, self.h = graph, h

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


def walk_tree(graph, tree, params, x):
    """Run the cell bottom-up over ``tree``, or over a forest given as its
    prebuilt :func:`~treentail.trees.forest_schedule`, as one tape op,
    named ``lstm_cell``; returns its :class:`TreeStates`, whose ``h`` is
    the ``(k, n)`` h matrix of the tree or forest.

    ``x`` is the walk's ``(d_in, .)`` input node: one column per leaf
    feeds the leaf level only (the meaning walk), one column per node
    feeds every node (the relation walk).  The forward is
    :func:`walk_values`, so a level of m nodes is one
    ``(5k, .) x (., m)`` product.  The backward sweeps the levels top
    down, adding each level's child gradients into the ``[h; c]``
    gradient of the nodes below, and frees each level's kept state as it
    passes it (a second backward of the same tape recomputes it).  It
    hands the gate weight one :class:`OuterGrad` over every node of the
    forest and the bias one dense part: the parents are ``(W, b, x)``.
    """
    k, d = params.k_out, params.d_in
    schedule = forest_schedule((tree,)) if isinstance(tree, BinaryTree) else tree
    offsets, levels = schedule
    n = offsets[-1]
    leaves = (n + len(offsets) - 1) // 2  # a binary tree of t nodes has (t + 1) / 2 leaves
    if x.shape not in ((d, leaves), (d, n)):
        raise ShapeMismatch(f"walk input must be ({d}, {leaves}) or ({d}, {n}), "
                            f"got {x.shape}")
    wn = graph.parameter(params.block.weight)
    bn = graph.parameter(params.block.bias)
    wv, xv = wn.value, x.value
    kept = []
    hs, cs = walk_values(schedule, xv, wv, bn.value, k, kept)
    # the op's value is h; c never leaves the op, so check it here
    if not np.isfinite(cs).all():
        raise NonFiniteValue("non-finite value produced by op 'lstm_cell'")
    every = x.shape[1] == n

    def vjp(g):
        if not kept:  # freed by an earlier backward: run the forward again
            walk_values(schedule, xv, wv, bn.value, k, kept)
        gs = np.zeros((2 * k, n), g.dtype)  # the [h; c] gradient of every node
        gs[:k] = g
        # Each node's gate gradient and multiplied input rows, which are
        # zero for the blocks its level does not read: a level's m nodes
        # side by side, top level first.
        gz_all = np.empty((5 * k, n), g.dtype)
        rows = np.zeros((wv.shape[1], n), g.dtype)
        gx = np.empty(x.shape, g.dtype) if every else None
        end = 0
        for ids, lefts, rights in reversed(levels):
            z, cols = kept.pop()
            gates, u = z[:4 * k], z[4 * k:]
            m = u.shape[1]
            at = slice(end, end + m)
            end += m
            g_level = _cols(gs, ids)
            gh, gc_ext = g_level[:k], g_level[k:]
            i_g, o = gates[:k], gates[3 * k:]
            t = np.tanh(_cols(cs, ids))
            gc = gc_ext + gh * o * (1.0 - t * t)
            # The gradient of the gate pre-activations, built in place block
            # by block with the products, in their order, of
            # [(gc*u)*i*(1-i); (gc*c1)*f1*(1-f1); (gc*c2)*f2*(1-f2);
            #  (gh*t)*o*(1-o); (gc*i)*(1-u*u)]: the first four share a
            # sigmoid's s*(1-s) factor, applied over all four at once.
            gz = gz_all[:, at]
            np.multiply(gc, u, out=gz[:k])
            if lefts is not None:
                np.multiply(gc, _cols(cs, lefts), out=gz[k:2 * k])
                np.multiply(gc, _cols(cs, rights), out=gz[2 * k:3 * k])
                rows[-2 * k:-k, at] = _cols(hs, lefts)
                rows[-k:, at] = _cols(hs, rights)
            else:
                gz[k:3 * k] = 0.0
            if every or lefts is None:
                rows[:d, at] = _cols(xv, ids) if every else xv
            np.multiply(gh, t, out=gz[3 * k:4 * k])
            sig = gz[:4 * k]
            sig *= gates
            sig *= 1.0 - gates
            np.multiply(gc, i_g, out=gz[4 * k:])
            gz[4 * k:] *= 1.0 - u * u
            ginp = wv[:, cols].T @ gz
            if every:
                gx[:, ids] = ginp[:d]
            elif lefts is None:
                gx = ginp[:d]
            if lefts is not None:
                # the [h; c] gradient of the left children, then of the right
                sides = np.empty((2, 2 * k, m), g.dtype)
                sides[:, :k] = ginp[-2 * k:].reshape(2, k, m)
                np.multiply(gc, gates[k:3 * k].reshape(2, k, m), out=sides[:, k:])
                gs[:, lefts] += sides[0]
                gs[:, rights] += sides[1]
        return OuterGrad(gz_all, rows), gz_all.sum(axis=1, keepdims=True), gx

    h = graph.record(hs, (wn, bn, x), vjp, "lstm_cell")
    return TreeStates(graph, h)


def encode_tree(graph, tree, vocab, table, params, dropout_rate=0.0, rng=None):
    """Encode every node of ``tree``; returns its :class:`TreeStates`,
    whose ``h`` is the tree's ``(k, n)`` h matrix: :func:`encode_forest`
    of the lone tree, its dropout mask drawn from ``rng``."""
    return encode_forest(graph, tree, tree.leaves(), vocab, table, params, dropout_rate,
                         rng=rng)


def encode_forest(graph, forest, tokens, vocab, table, params, dropout_rate=0.0, rng=None,
                  draws=None):
    """Encode every node of ``forest`` (a tree, or a forest's
    :func:`~treentail.trees.forest_schedule`) whose leaf level reads
    ``tokens``, in leaf-level order; returns its :class:`TreeStates`.

    The leaf level reads its word vectors with one :func:`embedding_node`
    and, given ``rng`` or ``draws``, applies one :func:`dropout` mask,
    drawn leaf by leaf in id order; internal nodes feed no input.
    """
    d = params.d_in
    if table.dim != d:
        raise ShapeMismatch(f"embedding width {table.dim} vs cell input {d}")
    words = embedding_node(graph, vocab, table, tokens)
    return walk_tree(graph, forest, params,
                     dropout(graph, words, dropout_rate, rng=rng, draws=draws))
