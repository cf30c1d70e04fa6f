"""Reverse-mode automatic differentiation over small dense tensors.

Values are two-dimensional numpy arrays; column vectors have shape
``(n, 1)``.  Each training batch builds its own :class:`Graph`: an
append-only tape of operations whose insertion order is already
topological, so one reverse walk accumulates exact gradients into every
parameter leaf.

A backward rule may hand a parent its gradient in one of two factored
forms instead of a dense array.  :class:`OuterGrad` ``(u, v)`` stands
for ``u @ v.T``, which :func:`gradients` forms with one GEMM when the
part arrives: a tree walk hands its gate weight one over every node of
its forest.  :class:`RowGrad` ``(rows, values)`` is zero outside
``rows`` and is what reading rows of an embedding table hands the
table: a parameter's row parts are summed by :func:`sum_rows` on the
union of their rows, so a large table's gradient costs its read rows
only.  :func:`backward` is the dense form of the same result.

The tape keeps one op per job: work that an existing op does along
another axis, on a single entry or after a shift is done by that op.

Every op checks its result for NaN/Inf and aborts the tape by
raising :class:`NonFiniteValue` naming the op, which turns silent
numeric corruption into a loud diagnostic.  Parameter leaves are not
checked here: a graph only reads them, and the optimizer checks each
parameter after it changes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ShapeMismatch(ValueError):
    pass


class EmptyVector(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class NonFiniteValue(FloatingPointError):
    pass


def sigmoid(x, out=None):
    """Numerically stable logistic function of a numpy array, written
    into ``out`` if given (which may be ``x`` itself)."""
    # tanh is stable over the whole real line, unlike a bare exp.
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class OuterGrad(NamedTuple):
    """Factored gradient ``u @ v.T`` of a matrix, from columns ``u``, ``v``."""

    u: np.ndarray
    v: np.ndarray


class RowGrad(NamedTuple):
    """A gradient that is zero outside ``rows``: row ``rows[j]`` of the
    parameter's gradient gets ``values[j]``, and a repeated row gets the
    sum of its values.  The rows are integers, in a list or an array."""

    rows: list | np.ndarray
    values: np.ndarray


def sum_rows(parts):
    """One :class:`RowGrad` for the sum of ``parts``, on the sorted union
    of their rows: each part is added into zeros in turn, and within a
    part row by row, so a repeated row sums its values in arrival order."""
    # sorted(set()) rather than np.unique, which imports numpy.ma.
    rows = np.array(sorted(set().union(*(np.asarray(r).tolist() for r, _ in parts))),
                    np.intp)
    total = np.zeros((len(rows), parts[0].values.shape[1]), parts[0].values.dtype)
    for r, values in parts:
        np.add.at(total, np.searchsorted(rows, r), values)
    return RowGrad(rows, total)


def _row_sum(node, parts, dense):
    """:func:`sum_rows` of the row parts of parameter ``node``, after
    checking that it got no other part and that each row part fits it."""
    if node.param is None:
        raise ShapeMismatch(f"op '{node.op}' got a row gradient")
    name = node.param.name
    if dense is not None:
        raise ShapeMismatch(f"parameter '{name}' got row and whole-matrix gradients")
    n, cols = node.shape
    for rows, values in parts:
        rows = np.asarray(rows)
        if values.shape != (len(rows), cols) or values.dtype != node.value.dtype:
            raise ShapeMismatch(f"row gradient of shape {values.shape} and dtype "
                                f"{values.dtype} for '{name}'")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ShapeMismatch(f"row gradient outside the {n} rows of '{name}'")
    return sum_rows(parts)


class Parameter:
    """Named trainable tensor, shared across graphs and hashed by identity."""

    __slots__ = ("name", "value")

    def __init__(self, name, value):
        value = np.ascontiguousarray(value)
        if value.ndim == 1:
            value = value.reshape(-1, 1)
        if value.ndim != 2:
            raise ShapeMismatch(f"parameter {name!r} must be 2-d")
        self.name = name
        self.value = value

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@dataclass
class AffineMap:
    """A dense affine transform ``x -> weight @ x + bias``."""

    weight: Parameter  # (out_dim, in_dim)
    bias: Parameter    # (out_dim, 1)

    def __post_init__(self):
        if self.bias.value.shape != (self.weight.value.shape[0], 1):
            raise ShapeMismatch(
                f"bias shape {self.bias.value.shape} does not match weight "
                f"{self.weight.value.shape}"
            )

    @property
    def in_dim(self):
        return self.weight.value.shape[1]

    @property
    def out_dim(self):
        return self.weight.value.shape[0]

    @classmethod
    def from_arrays(cls, name, weight, bias):
        return cls(Parameter(name + ".weight", weight), Parameter(name + ".bias", bias))


class Node:
    """One recorded value on the tape."""

    __slots__ = ("value", "parents", "vjp", "op", "param", "idx")

    def __init__(self, value, parents, vjp, op, param, idx):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.param = param
        self.idx = idx

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape})"


class Graph:
    """Append-only operation tape for one batch of examples (a batch of
    one is a single example).

    Graphs are built, differentiated, and discarded per batch.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.nodes = []
        self._param_nodes = {}

    # -- tape primitives -------------------------------------------------

    def record(self, value, parents=(), vjp=None, op="const"):
        """Append one op result.  The extension point for fused ops.

        ``vjp`` maps the output gradient to a tuple of parent gradients,
        one per parent: a dense array, an :class:`OuterGrad`, a
        :class:`RowGrad` (for a parameter parent only) or ``None``
        (skipped).  Dense arrays may be views of the incoming gradient.
        Parameter leaves are made only by :meth:`parameter`, which keeps
        one node per parameter.
        """
        value = np.asarray(value, dtype=self.dtype)
        if value.ndim != 2:
            raise ShapeMismatch(f"op '{op}' produced a non-2d value")
        if not np.isfinite(value).all():
            raise NonFiniteValue(f"non-finite value produced by op '{op}'")
        node = Node(value, tuple(parents), vjp, op, None, len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value, op="const"):
        return self.record(value, (), None, op)

    def parameter(self, param):
        """Leaf node for a trainable tensor, memoized per graph.  Its value
        is not checked for NaN/Inf (see the module docstring)."""
        node = self._param_nodes.get(param)
        if node is None:
            value = param.value.astype(self.dtype, copy=False)
            node = Node(value, (), None, f"param:{param.name}", param, len(self.nodes))
            self.nodes.append(node)
            self._param_nodes[param] = node
        return node

    # -- elementwise and structural ops ----------------------------------

    def hadamard(self, a, b):
        if a.shape != b.shape:
            raise ShapeMismatch(f"hadamard {a.shape} vs {b.shape}")
        av, bv = a.value, b.value
        return self.record(av * bv, (a, b), lambda g: (g * bv, g * av), "hadamard")

    def tanh(self, a):
        y = np.tanh(a.value)
        return self.record(y, (a,), lambda g: (g * (1.0 - y * y),), "tanh")

    def neg(self, a):
        return self.record(-a.value, (a,), lambda g: (-g,), "neg")

    def log(self, a):
        av = a.value
        return self.record(np.log(av), (a,), lambda g: (g / av,), "log")

    def concat(self, parts):
        """Stack nodes with equal column counts vertically, preserving
        argument order."""
        parts = list(parts)
        if not parts:
            raise EmptyVector("concat of no vectors")
        for p in parts:
            if p.shape[1] != parts[0].shape[1]:
                raise ShapeMismatch("concat expects equal column counts")
        offsets = np.cumsum([0] + [p.shape[0] for p in parts])

        def vjp(g):
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

        return self.record(np.concatenate([p.value for p in parts]), parts, vjp, "concat")

    def _read(self, a, index, op):
        """``a.value[index]`` as a view, whose vjp hands ``a`` zeros with
        the gradient at ``index``."""
        # The vjp holds no reference to the graph, which holds the vjp:
        # a cycle would outlive the example until the garbage collector ran.
        shape, dtype = a.shape, a.value.dtype

        def vjp(g):
            out = np.zeros(shape, dtype)
            out[index] = g
            return (out,)

        return self.record(a.value[index], (a,), vjp, op)

    def slice_rows(self, a, start, stop):
        if not 0 <= start < stop <= a.shape[0]:
            raise ShapeMismatch(f"slice_rows [{start}:{stop}] of {a.shape}")
        return self._read(a, np.s_[start:stop, :], "slice_rows")

    def take_col(self, a, j):
        """Column ``j`` of a matrix, or for a ``range`` ``j`` of step 1 the
        block ``a[:, j.start:j.stop]``; either is read as a view."""
        n = a.shape[1]
        if isinstance(j, range) and j.step == 1 and 0 <= j.start < j.stop <= n:
            index = np.s_[:, j.start:j.stop]
        elif isinstance(j, (int, np.integer)) and 0 <= j < n:
            index = np.s_[:, j:j + 1]
        else:
            raise ShapeMismatch(f"take_col columns {j} of a {n}-column matrix")
        return self._read(a, index, "take_col")

    def stack_columns(self, blocks):
        """Pack column blocks with equal row counts side by side into one
        matrix, preserving argument order; a single block stands for
        itself and records nothing."""
        blocks = list(blocks)
        if not blocks:
            raise EmptyVector("stack_columns of no vectors")
        for b in blocks:
            if b.shape[0] != blocks[0].shape[0]:
                raise ShapeMismatch("stack_columns expects equal row counts")
        if len(blocks) == 1:
            return blocks[0]
        offsets = np.cumsum([0] + [b.shape[1] for b in blocks])

        def vjp(g):
            return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(blocks)))

        return self.record(np.hstack([b.value for b in blocks]), blocks, vjp,
                           "stack_columns")

    def gather(self, a, rows, cols):
        """The entries ``a[rows, cols]`` of integer index arrays that
        broadcast to a 2-d shape, the result's: ``rows[:, None]`` with
        ``cols[None, :]`` gathers a block of whole rows and columns,
        ``rows[None, :]`` with ``cols[None, :]`` one entry per column.
        Read as a C-ordered copy; its vjp adds the gradient of a repeated
        entry."""
        rows, cols = np.asarray(rows, np.intp), np.asarray(cols, np.intp)
        if rows.ndim != 2 or cols.ndim != 2 or not rows.size or not cols.size:
            raise ShapeMismatch("gather takes two non-empty 2-d index arrays")
        n, m = a.shape
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m:
            raise ShapeMismatch(f"gather of entries outside a {a.shape} matrix")
        shape, dtype = a.shape, a.value.dtype

        def vjp(g):
            out = np.zeros(shape, dtype)
            np.add.at(out, (rows, cols), g)
            return (out,)

        return self.record(a.value[rows, cols], (a,), vjp, "gather")

    def transpose(self, a):
        return self.record(a.value.T, (a,), lambda g: (g.T,), "transpose")

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
        av, bv = a.value, b.value
        return self.record(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g), "matmul")

    def affine(self, m, x):
        """Apply an :class:`AffineMap` to each column of a matrix."""
        if x.shape[0] != m.in_dim:
            raise ShapeMismatch(
                f"affine expects ({m.in_dim}, .) input, got {x.shape}"
            )
        wn, bn = self.parameter(m.weight), self.parameter(m.bias)
        wv, xv = wn.value, x.value

        def vjp(g):
            return (g @ xv.T, g.sum(axis=1, keepdims=True), wv.T @ g)

        return self.record(wv @ xv + bn.value, (wn, bn, x), vjp, "affine")

    def outer_sum(self, u, v, bias):
        """Matrix with entry ``(i, j) = u[i] + v[j] + bias``, from a
        column ``u`` and a row ``v``."""
        if u.shape[1] != 1 or v.shape[0] != 1:
            raise ShapeMismatch("outer_sum expects a column and a row")
        if bias.shape != (1, 1):
            raise ShapeMismatch("outer_sum bias must be (1, 1)")

        def vjp(g):
            return (g.sum(axis=1, keepdims=True), g.sum(axis=0, keepdims=True),
                    g.sum().reshape(1, 1))

        return self.record(u.value + v.value + bias.value, (u, v, bias), vjp,
                           "outer_sum")

    # -- normalizers ------------------------------------------------------

    def softmax(self, m, axis):
        """Max-subtracted softmax of each column (``axis=0``) or each row
        (``axis=1``) of a matrix."""
        if m.shape[0] == 0 or m.shape[1] == 0:
            raise EmptyVector("softmax of an empty matrix")
        e = np.exp(m.value - m.value.max(axis=axis, keepdims=True))
        y = e / e.sum(axis=axis, keepdims=True)

        def vjp(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            return (y * (g - inner),)

        return self.record(y, (m,), vjp, "softmax")

    def row_normalize(self, m, floor):
        """Add the positive Python float ``floor`` to every entry of a
        nonnegative matrix, then divide each row by its sum, which the
        floor keeps from being zero."""
        raw = m.value + floor
        s = raw.sum(axis=1, keepdims=True)
        y = raw / s

        def vjp(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            return ((g - inner) / s,)

        return self.record(y, (m,), vjp, "row_normalize")


def gradients(graph, loss):
    """Walk the tape in reverse and return ``{Parameter: gradient}``.

    The loss must be a (1, 1) scalar node.  Insertion order is the
    topological order, so a single reverse pass with accumulation is
    exact.  Dense parent gradients are summed as they arrive, never in
    place, because vjps may return views of the incoming gradient; an
    :class:`OuterGrad` part is formed as one GEMM, in the graph's dtype,
    as it arrives and then summed the same way, so its factors live no
    longer than the vjp that made them.  :meth:`Graph.parameter` records
    one node per parameter, so that node's gradient is the parameter's
    whole gradient.

    A parameter that receives :class:`RowGrad` parts gets their
    :func:`sum_rows` instead, with no parameter-sized array built.  A
    row part that reaches a non-parameter node, arrives with a dense or
    outer-product part, or does not fit its parameter's rows, width or
    dtype raises :class:`ShapeMismatch`.  Every other gradient is a
    dense ndarray.
    """
    if loss.value.shape != (1, 1):
        raise NonScalarLoss(f"loss has shape {loss.value.shape}")
    grads = [None] * len(graph.nodes)
    grads[loss.idx] = np.ones((1, 1), dtype=graph.dtype)
    row_parts = {}

    param_grads = {}
    for node in reversed(graph.nodes):
        g = grads[node.idx]
        parts = row_parts.pop(node.idx, None)
        if parts is not None:
            param_grads[node.param] = _row_sum(node, parts, g)
            continue
        if g is None:
            continue
        if node.param is not None:
            param_grads[node.param] = g
        if node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                if type(pg) is RowGrad:
                    row_parts.setdefault(parent.idx, []).append(pg)
                    continue
                cur = grads[parent.idx]
                if type(pg) is OuterGrad:
                    # a fresh array, so the sum can go into it
                    pg = (pg.u @ pg.v.T).astype(graph.dtype, copy=False)
                    if cur is not None:
                        pg += cur
                    grads[parent.idx] = pg
                    continue
                grads[parent.idx] = pg if cur is None else cur + pg
        grads[node.idx] = None

    for p, g in param_grads.items():
        if not np.isfinite(g.values if type(g) is RowGrad else g).all():
            raise NonFiniteValue(f"non-finite gradient for {p.name}")
    return param_grads


def backward(graph, loss):
    """:func:`gradients` with every gradient a dense ndarray of its
    parameter's shape: each :class:`RowGrad` is scattered into zeros,
    which gives the bits of adding each read row into a zero table in
    the same order."""
    param_grads = gradients(graph, loss)
    for p, g in param_grads.items():
        if type(g) is RowGrad:
            dense = param_grads[p] = np.zeros(p.value.shape, graph.dtype)
            dense[g.rows] = g.values
    return param_grads


# The most bytes one chunk of grad_check's perturbed copies of a
# parameter may hold, in the parameter's dtype.  The chunk size follows
# from it, so a stacked evaluation's memory does not grow with the
# parameter's size.  A parameter whose two copies alone exceed it goes
# one scalar per chunk.
STACK_BYTES = 512 << 10


def perturbation_chunks(value):
    """The ranges of ``value``'s flat indices that :func:`grad_check`
    perturbs together: as many scalars per chunk as fit their two copies
    each (up and down) of ``value`` in :data:`STACK_BYTES`, and at least
    one."""
    per = max(1, STACK_BYTES // max(1, 2 * value.nbytes))
    return (range(lo, min(lo + per, value.size)) for lo in range(0, value.size, per))


def grad_check(build, params, eps=1e-5, loss_fn=None, stacked_loss=None):
    """Compare analytic gradients against central differences.

    ``build()`` must construct a fresh ``(graph, loss_node)`` at the
    current parameter values.  Returns the worst relative error

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|)

    over every scalar of every parameter in ``params``; one NaN error
    makes it NaN.  ``eps`` must be positive and finite.

    Each parameter's scalars go in chunks (:func:`perturbation_chunks`).
    A chunk of n scalars is one ``(2n, *shape)`` stack of copies of the
    parameter's value, in its own dtype: copy ``i`` holds ``value + eps``
    at the chunk's scalar ``i``, copy ``n + i`` holds ``value - eps``
    there.  ``stacked_loss(param, stack)``, when given, evaluates the
    loss at every copy at once, every other parameter as it stands, and
    returns the 2n losses, or one loss if ``param`` does not reach it.
    An independent implementation of the loss is fine and makes the
    comparison stronger.  Without it, ``loss_fn``, a cheaper
    ``() -> float`` evaluated at the current values in place of a full
    ``build()``, or else ``build()`` itself, is run on one copy at a
    time, written into the parameter and restored after.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    graph, loss = build()
    analytic = backward(graph, loss)
    if stacked_loss is None:
        if loss_fn is None:
            loss_fn = lambda: float(build()[1].value[0, 0])  # noqa: E731
        stacked_loss = _one_copy_at_a_time(loss_fn)

    worst = 0.0
    for p in params:
        a = analytic.get(p)
        aflat = np.zeros(p.value.size) if a is None else np.asarray(a).reshape(-1)
        for chunk in perturbation_chunks(p.value):
            n = len(chunk)
            at = np.arange(chunk.start, chunk.stop)
            stack = np.repeat(p.value[None], 2 * n, axis=0)
            flat = stack.reshape(2 * n, -1)
            flat[np.arange(n), at] += eps
            flat[np.arange(n, 2 * n), at] -= eps
            losses = np.broadcast_to(stacked_loss(p, stack), (2 * n,))
            numeric = (losses[:n] - losses[n:]) / (2.0 * eps)
            analytic_at = aflat[at]
            denom = np.maximum(1e-8, np.abs(analytic_at) + np.abs(numeric))
            worst = np.maximum(worst, (np.abs(analytic_at - numeric) / denom).max())
    return float(worst)


def _one_copy_at_a_time(loss_fn):
    """A :func:`grad_check` ``stacked_loss`` that writes each copy of the
    stack into the parameter in turn, calls ``loss_fn`` at it, and
    restores the parameter's value after."""

    def losses(p, stack):
        saved = p.value.copy()
        out = []
        try:
            for copy in stack:
                p.value[...] = copy
                out.append(loss_fn())
        finally:
            p.value[...] = saved
        return np.array(out)

    return losses
