"""Reverse-mode automatic differentiation over small dense tensors.

Values are two-dimensional numpy arrays; column vectors have shape
``(n, 1)``.  Each example builds its own :class:`Graph`: an append-only
tape of operations whose insertion order is already topological, so one
reverse walk accumulates exact gradients into every parameter leaf.

Every op checks its result for NaN/Inf and aborts the example by
raising :class:`NonFiniteValue` naming the op, which turns silent
numeric corruption into a loud diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    pass


class EmptyVector(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class NonFiniteValue(FloatingPointError):
    pass


def sigmoid(x):
    """Numerically stable logistic function of a numpy array."""
    # tanh is stable over the whole real line, unlike a bare exp.
    out = np.tanh(x * 0.5)
    out += 1.0
    out *= 0.5
    return out


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
    """Append-only operation tape for a single example.

    Graphs are built, differentiated, and discarded per example.
    """

    def __init__(self, dtype=np.float64, check_finite=True):
        self.dtype = np.dtype(dtype)
        self.check_finite = check_finite
        self.nodes = []
        self._param_nodes = {}

    # -- tape primitives -------------------------------------------------

    def record(self, value, parents=(), vjp=None, op="const", param=None):
        """Append one op result.  The extension point for fused ops.

        ``vjp`` maps the output gradient to a tuple of parent gradients
        (``None`` entries are skipped).
        """
        value = np.asarray(value, dtype=self.dtype)
        if value.ndim != 2:
            raise ShapeMismatch(f"op '{op}' produced a non-2d value")
        if self.check_finite and not np.isfinite(value).all():
            raise NonFiniteValue(f"non-finite value produced by op '{op}'")
        node = Node(value, tuple(parents), vjp, op, param, len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value, op="const"):
        return self.record(value, (), None, op)

    def parameter(self, param):
        """Leaf node for a trainable tensor, memoized per graph."""
        node = self._param_nodes.get(id(param))
        if node is None:
            value = param.value.astype(self.dtype, copy=False)
            node = self.record(value, (), None, f"param:{param.name}", param=param)
            self._param_nodes[id(param)] = node
        return node

    # -- elementwise and structural ops ----------------------------------

    def add(self, a, b):
        if a.shape != b.shape:
            raise ShapeMismatch(f"add {a.shape} vs {b.shape}")
        return self.record(a.value + b.value, (a, b), lambda g: (g, g), "add")

    def add_const(self, a, c):
        """Shift every entry by the Python float ``c``."""
        return self.record(a.value + c, (a,), lambda g: (g,), "add_const")

    def hadamard(self, a, b):
        if a.shape != b.shape:
            raise ShapeMismatch(f"hadamard {a.shape} vs {b.shape}")
        av, bv = a.value, b.value
        return self.record(av * bv, (a, b), lambda g: (g * bv, g * av), "hadamard")

    def sigmoid(self, a):
        y = sigmoid(a.value)
        return self.record(y, (a,), lambda g: (g * y * (1.0 - y),), "sigmoid")

    def tanh(self, a):
        y = np.tanh(a.value)
        return self.record(y, (a,), lambda g: (g * (1.0 - y * y),), "tanh")

    def neg(self, a):
        return self.record(-a.value, (a,), lambda g: (-g,), "neg")

    def log(self, a):
        av = a.value
        return self.record(np.log(av), (a,), lambda g: (g / av,), "log")

    def concat(self, parts):
        """Stack column vectors vertically, preserving argument order."""
        parts = list(parts)
        if not parts:
            raise EmptyVector("concat of no vectors")
        for p in parts:
            if p.shape[1] != 1:
                raise ShapeMismatch("concat expects column vectors")
        sizes = [p.shape[0] for p in parts]
        offsets = np.concatenate(([0], np.cumsum(sizes)))

        def vjp(g):
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

        return self.record(np.vstack([p.value for p in parts]), parts, vjp, "concat")

    def slice_rows(self, a, start, stop):
        if not 0 <= start < stop <= a.shape[0]:
            raise ShapeMismatch(f"slice_rows [{start}:{stop}] of {a.shape}")

        def vjp(g):
            out = np.zeros_like(a.value)
            out[start:stop, :] = g
            return (out,)

        return self.record(a.value[start:stop, :], (a,), vjp, "slice_rows")

    def slice_cols(self, a, start, stop):
        if not 0 <= start < stop <= a.shape[1]:
            raise ShapeMismatch(f"slice_cols [{start}:{stop}] of {a.shape}")

        def vjp(g):
            out = np.zeros_like(a.value)
            out[:, start:stop] = g
            return (out,)

        return self.record(a.value[:, start:stop], (a,), vjp, "slice_cols")

    def take_row(self, a, i):
        """Row ``i`` of a matrix, returned as a column vector."""
        if not 0 <= i < a.shape[0]:
            raise ShapeMismatch(f"take_row {i} of {a.shape}")

        def vjp(g):
            out = np.zeros_like(a.value)
            out[i, :] = g[:, 0]
            return (out,)

        return self.record(a.value[i:i + 1, :].T, (a,), vjp, "take_row")

    def take_col(self, a, j):
        if not 0 <= j < a.shape[1]:
            raise ShapeMismatch(f"take_col {j} of {a.shape}")

        def vjp(g):
            out = np.zeros_like(a.value)
            out[:, j:j + 1] = g
            return (out,)

        return self.record(a.value[:, j:j + 1], (a,), vjp, "take_col")

    def stack_columns(self, cols):
        """Pack column vectors side by side into one matrix."""
        cols = list(cols)
        if not cols:
            raise EmptyVector("stack_columns of no vectors")
        rows = cols[0].shape[0]
        for c in cols:
            if c.shape != (rows, 1):
                raise ShapeMismatch("stack_columns expects equal-length columns")

        def vjp(g):
            return tuple(g[:, i:i + 1] for i in range(len(cols)))

        return self.record(np.hstack([c.value for c in cols]), cols, vjp, "stack_columns")

    def transpose(self, a):
        return self.record(a.value.T, (a,), lambda g: (g.T,), "transpose")

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
        av, bv = a.value, b.value
        return self.record(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g), "matmul")

    def affine(self, m, x):
        """Apply an :class:`AffineMap` to a column vector."""
        if x.shape != (m.in_dim, 1):
            raise ShapeMismatch(
                f"affine expects ({m.in_dim}, 1) input, got {x.shape}"
            )
        wn, bn = self.parameter(m.weight), self.parameter(m.bias)
        wv, xv = wn.value, x.value

        def vjp(g):
            return (g @ xv.T, g, wv.T @ g)

        return self.record(wv @ xv + bn.value, (wn, bn, x), vjp, "affine")

    def outer_sum(self, u, v, bias=None):
        """Matrix with entry ``(i, j) = u[i] + v[j] (+ bias)``."""
        if u.shape[1] != 1 or v.shape[1] != 1:
            raise ShapeMismatch("outer_sum expects column vectors")
        value = u.value + v.value.T
        parents = (u, v)
        if bias is not None:
            if bias.shape != (1, 1):
                raise ShapeMismatch("outer_sum bias must be (1, 1)")
            value = value + bias.value
            parents = (u, v, bias)

        def vjp(g):
            gu = g.sum(axis=1, keepdims=True)
            gv = g.sum(axis=0).reshape(-1, 1)
            if bias is None:
                return (gu, gv)
            return (gu, gv, g.sum().reshape(1, 1))

        return self.record(value, parents, vjp, "outer_sum")

    # -- normalizers ------------------------------------------------------

    def softmax(self, v):
        """Max-subtracted softmax of a column vector."""
        if v.shape[1] != 1:
            raise ShapeMismatch("softmax expects a column vector")
        if v.shape[0] == 0:
            raise EmptyVector("softmax of an empty vector")
        e = np.exp(v.value - v.value.max())
        y = e / e.sum()

        def vjp(g):
            return (y * (g - float((g * y).sum())),)

        return self.record(y, (v,), vjp, "softmax")

    def row_softmax(self, m):
        """Independent softmax along each row of a matrix."""
        if m.shape[0] == 0 or m.shape[1] == 0:
            raise EmptyVector("row_softmax of an empty matrix")
        e = np.exp(m.value - m.value.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)

        def vjp(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            return (y * (g - inner),)

        return self.record(y, (m,), vjp, "row_softmax")

    def row_normalize(self, m):
        """Divide each row by its sum.  Callers floor entries first so a
        row can never sum to zero."""
        s = m.value.sum(axis=1, keepdims=True)
        y = m.value / s

        def vjp(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            return ((g - inner) / s,)

        return self.record(y, (m,), vjp, "row_normalize")

    # -- scalar extraction -------------------------------------------------

    def pick(self, v, i):
        """Entry ``i`` of a column vector as a (1, 1) scalar."""
        if v.shape[1] != 1:
            raise ShapeMismatch("pick expects a column vector")
        if not 0 <= i < v.shape[0]:
            raise ShapeMismatch(f"pick index {i} out of range for {v.shape}")

        def vjp(g):
            out = np.zeros_like(v.value)
            out[i, 0] = g[0, 0]
            return (out,)

        return self.record(v.value[i:i + 1, 0:1], (v,), vjp, "pick")

    def total(self, a):
        """Sum of all entries as a (1, 1) scalar."""
        value = np.full((1, 1), a.value.sum(), dtype=self.dtype)

        def vjp(g):
            return (np.full(a.shape, g[0, 0], dtype=self.dtype),)

        return self.record(value, (a,), vjp, "total")


def backward(graph, loss):
    """Walk the tape in reverse and return ``{Parameter: gradient}``.

    The loss must be a (1, 1) scalar node.  Insertion order is the
    topological order, so a single reverse pass with accumulation is
    exact; accumulation never mutates arrays in place because vjps may
    return views of the incoming gradient.
    """
    if loss.value.shape != (1, 1):
        raise NonScalarLoss(f"loss has shape {loss.value.shape}")
    grads = [None] * len(graph.nodes)
    grads[loss.idx] = np.ones((1, 1), dtype=graph.dtype)

    param_grads = {}
    for node in reversed(graph.nodes):
        g = grads[node.idx]
        if g is None:
            continue
        if node.param is not None:
            prev = param_grads.get(node.param)
            param_grads[node.param] = g if prev is None else prev + g
        if node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                cur = grads[parent.idx]
                grads[parent.idx] = pg if cur is None else cur + pg
        grads[node.idx] = None

    if graph.check_finite:
        for p, g in param_grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteValue(f"non-finite gradient for {p.name}")
    return param_grads


def grad_check(build, params, eps=1e-5, loss_fn=None):
    """Compare analytic gradients against central differences.

    ``build()`` must construct a fresh ``(graph, loss_node)`` at the
    current parameter values.  Returns the worst relative error

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|)

    over every scalar of every parameter in ``params``.

    ``loss_fn``, when given, is a cheaper ``() -> float`` evaluated at
    the perturbed parameters in place of a full ``build()``; it must
    compute the same loss (an independent implementation is fine and
    makes the comparison stronger).
    """
    graph, loss = build()
    analytic = backward(graph, loss)
    if loss_fn is None:
        loss_fn = lambda: float(build()[1].value[0, 0])  # noqa: E731

    worst = 0.0
    for p in params:
        a = analytic.get(p)
        aflat = np.zeros(p.value.size) if a is None else np.asarray(a).reshape(-1)
        flat = p.value.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + eps
            up = loss_fn()
            flat[j] = saved - eps
            down = loss_fn()
            flat[j] = saved
            numeric = (up - down) / (2.0 * eps)
            denom = max(1e-8, abs(aflat[j]) + abs(numeric))
            worst = max(worst, abs(aflat[j] - numeric) / denom)
    return float(worst)
