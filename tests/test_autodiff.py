"""Tape construction, backward rules, and the finite-difference harness.

Every op of :class:`Graph` appears in the composite graph used by the
seeded sweep (a guard test checks this), so a wrong backward rule
anywhere shows up as a finite-difference mismatch rather than a silent
training bug.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treentail import autodiff
from treentail.autodiff import (
    STACK_BYTES,
    AffineMap,
    EmptyVector,
    Graph,
    NonFiniteValue,
    NonScalarLoss,
    OuterGrad,
    Parameter,
    RowGrad,
    ShapeMismatch,
    backward,
    grad_check,
    gradients,
    perturbation_chunks,
    sigmoid,
    sum_rows,
)
from treentail.attention import attend
from treentail.composer import LstmParameters, walk_tree
from treentail.embeddings import embedding_node, empty_vocabulary, register_oov
from treentail.entailment import ModelParameters
from treentail.trees import parse_tree

from tape_helpers import total


def test_sigmoid_matches_logistic_definition():
    x = np.linspace(-30.0, 30.0, 401)
    expected = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(sigmoid(x), expected, rtol=0, atol=1e-15)
    # stays finite far outside the exp-safe range
    assert np.isfinite(sigmoid(np.array([-1e4, 1e4]))).all()


class TestParameter:
    def test_one_dimensional_becomes_column(self):
        p = Parameter("b", np.arange(3.0))
        assert p.value.shape == (3, 1)
        assert p.size == 3

    def test_rejects_three_dimensional(self):
        with pytest.raises(ShapeMismatch):
            Parameter("t", np.zeros((2, 2, 2)))

    def test_affine_map_checks_bias_shape(self):
        w = Parameter("m.weight", np.zeros((3, 4)))
        with pytest.raises(ShapeMismatch):
            AffineMap(w, Parameter("m.bias", np.zeros((4, 1))))

    def test_parameter_node_is_memoized_per_graph(self):
        p = Parameter("p", np.ones((2, 2)))
        g = Graph()
        assert g.parameter(p) is g.parameter(p)
        assert len(g.nodes) == 1

    def test_rows_read_are_the_union_of_each_read(self):
        p = Parameter("t", np.zeros((5, 2)))
        g = Graph()
        pn = g.parameter(p)
        reads = [_row_read(g, pn, rows) for rows in ([3, 1], [1, 4])]
        grad = gradients(g, total(g, g.concat(reads)))[p]
        assert grad.rows.tolist() == [1, 3, 4]
        assert grad.values.tolist() == [[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]]

    def test_a_parameter_is_read_by_rows_or_whole(self):
        """Mixing the two kinds of read raises when the gradients meet,
        naming the parameter."""
        p = Parameter("t", np.zeros((5, 2)))
        g = Graph()
        pn = g.parameter(p)
        loss = total(g, g.concat([_row_read(g, pn, [0]), total(g, g.tanh(pn))]))
        for differentiate in (gradients, backward):
            with pytest.raises(ShapeMismatch, match="'t'"):
                differentiate(g, loss)


class TestForwardValues:
    """Hand-checkable values for the ops with any arithmetic content."""

    def test_softmax_hand_case(self):
        # exp(ln 2) : exp(0) = 2 : 1
        g = Graph()
        y = g.softmax(g.constant(np.array([[np.log(2.0)], [0.0]])), axis=0)
        np.testing.assert_allclose(y.value[:, 0], [2 / 3, 1 / 3], atol=1e-15)
        y = g.softmax(g.constant(np.array([[0.0, np.log(2.0)]])), axis=1)
        np.testing.assert_allclose(y.value[0], [1 / 3, 2 / 3], atol=1e-15)

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal((rng.integers(1, 9), 1))
            g = Graph()
            y = g.softmax(g.constant(v), axis=0).value
            y_shift = g.softmax(g.constant(v + 123.456), axis=0).value
            assert abs(y.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(y, y_shift, rtol=0, atol=1e-12)

    def test_row_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 7)) * 10
        g = Graph()
        y = g.softmax(g.constant(m), axis=1).value
        np.testing.assert_allclose(y.sum(axis=1), np.ones(5), atol=1e-12)
        assert (y > 0).all()
        y = g.softmax(g.constant(m), axis=0).value
        np.testing.assert_allclose(y.sum(axis=0), np.ones(7), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_column_softmax_is_the_transposed_row_softmax(self, dtype):
        """Bit for bit, in value and in backward rule."""
        rng = np.random.default_rng(8)
        for n in (1, 3, 9, 40):
            v, gv = rng.standard_normal((2, n, 1)) * 4
            g = Graph(dtype)
            col = g.softmax(g.constant(v), axis=0)
            row = g.softmax(g.constant(v.T), axis=1)
            np.testing.assert_array_equal(col.value, row.value.T)
            gv = gv.astype(dtype)
            np.testing.assert_array_equal(col.vjp(gv)[0], row.vjp(gv.T)[0].T)

    def test_row_normalize(self):
        g = Graph()
        y = g.row_normalize(g.constant(np.array([[1.0, 3.0], [2.0, 2.0]])), 1.0)
        np.testing.assert_allclose(y.value, [[1 / 3, 2 / 3], [0.5, 0.5]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_normalize_keeps_a_zero_row_stochastic(self, dtype):
        g = Graph(dtype)
        y = g.row_normalize(g.constant(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])),
                            1e-12).value
        eps = np.finfo(dtype).eps
        assert y.dtype == dtype
        np.testing.assert_allclose(y.sum(axis=1), [1.0, 1.0], rtol=0, atol=2 * eps)
        np.testing.assert_allclose(y[0], [1 / 3] * 3, rtol=eps)

    def test_outer_sum_entries(self):
        g = Graph()
        u = g.constant(np.array([[1.0], [2.0]]))
        v = g.constant(np.array([[10.0, 20.0, 30.0]]))
        b = g.constant(np.array([[0.5]]))
        y = g.outer_sum(u, v, b).value
        expected = np.array([[11.5, 21.5, 31.5], [12.5, 22.5, 32.5]])
        np.testing.assert_array_equal(y, expected)

    def test_structural_ops_round_trip(self):
        g = Graph()
        m = g.constant(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(g.take_col(m, 2).value[:, 0], [2, 6, 10])
        cols = [g.take_col(m, j) for j in range(4)]
        np.testing.assert_array_equal(g.stack_columns(cols).value, m.value)
        np.testing.assert_array_equal(g.transpose(m).value, m.value.T)
        parts = [g.take_col(m, 0), g.take_col(m, 1)]
        np.testing.assert_array_equal(
            g.concat(parts).value[:, 0], [0, 4, 8, 1, 5, 9]
        )
        np.testing.assert_array_equal(
            g.slice_rows(m, 1, 3).value, m.value[1:3, :]
        )
        assert g.slice_rows(cols[1], 2, 3).value.item() == 9.0
        block = g.take_col(m, range(1, 3)).value
        np.testing.assert_array_equal(block, m.value[:, 1:3])
        assert np.shares_memory(block, m.value)
        assert g.stack_columns(cols[2:3]) is cols[2]

    def test_affine_value(self):
        m = AffineMap.from_arrays("f", np.array([[1.0, 2.0], [3.0, 4.0]]),
                                  np.array([10.0, 20.0]))
        g = Graph()
        y = g.affine(m, g.constant(np.array([[1.0], [1.0]])))
        np.testing.assert_array_equal(y.value[:, 0], [13.0, 27.0])

    def test_total(self):
        g = Graph()
        v = g.constant(np.array([[1.0], [5.0], [9.0]]))
        assert total(g, v).value.item() == 15.0


class TestBackward:
    def test_constant_loss_has_no_parameter_gradients(self):
        p = Parameter("p", np.ones((2, 1)))
        g = Graph()
        g.parameter(p)
        loss = g.constant(np.array([[3.0]]))
        assert backward(g, loss) == {}

    def test_add_and_hadamard_by_hand(self):
        a = Parameter("a", np.array([2.0, 3.0]))
        b = Parameter("b", np.array([5.0, 7.0]))
        g = Graph()
        an, bn = g.parameter(a), g.parameter(b)
        loss = total(g, g.concat([g.hadamard(an, bn), an]))
        grads = backward(g, loss)
        # d/da (a*b + a) = b + 1, d/db = a
        np.testing.assert_array_equal(grads[a][:, 0], [6.0, 8.0])
        np.testing.assert_array_equal(grads[b][:, 0], [2.0, 3.0])

    def test_duplicated_parent_accumulates(self):
        """An op whose two parents are the same node must get both
        gradient contributions: d(x*x)/dx = 2x."""
        p = Parameter("x", np.array([3.0]))
        g = Graph()
        xn = g.parameter(p)
        grads = backward(g, total(g, g.hadamard(xn, xn)))
        assert grads[p].item() == pytest.approx(6.0)

    def test_parameter_reused_across_ops_accumulates(self):
        p = Parameter("x", np.array([[1.5]]))
        g = Graph()
        xn = g.parameter(p)
        # loss = x + x^2 -> grad = 1 + 2x = 4
        loss = total(g, g.concat([xn, g.hadamard(xn, xn)]))
        assert backward(g, loss)[p].item() == pytest.approx(4.0)

    def test_rejects_non_scalar_loss(self):
        g = Graph()
        v = g.constant(np.ones((2, 1)))
        with pytest.raises(NonScalarLoss):
            backward(g, v)

    def test_gradient_unaffected_by_unrelated_branches(self):
        p = Parameter("p", np.array([2.0]))
        g = Graph()
        pn = g.parameter(p)
        g.tanh(g.constant(np.ones((4, 1))))  # dangling branch
        loss = total(g, g.hadamard(pn, pn))
        assert backward(g, loss)[p].item() == pytest.approx(4.0)


def _row_read(graph, a, rows):
    """A (1, 1) node whose vjp hands ``a`` a :class:`RowGrad` of ones on
    ``rows``."""
    part = RowGrad(rows, np.ones((len(rows), a.shape[1])))
    return graph.record(np.ones((1, 1)), (a,), lambda _: (part,), "take_row")


def _row(graph, a, i):
    """Row ``i`` of ``a`` as a column, read through a one-row slice."""
    return graph.transpose(graph.slice_rows(a, i, i + 1))


def _matvec(graph, w, x, factored):
    """``w @ x`` for a column ``x``, whose vjp hands ``w`` its gradient as
    an OuterGrad or, for the dense reference, as the outer product."""
    wv, xv = w.value, x.value

    def vjp(g):
        gw = OuterGrad(g, xv) if factored else g @ xv.T
        return (gw, wv.T @ g)

    return graph.record(wv @ xv, (w, x), vjp, "matvec")


class TestFactoredGradients:
    """OuterGrad and RowGrad parts are summed once per receiving node."""

    def test_leaves_sharing_a_row_sum(self):
        table = Parameter("t", np.arange(12.0).reshape(4, 3))
        weights = np.arange(1.0, 13.0).reshape(4, 3)
        rows = [1, 2, 1, 1]
        g = Graph()
        tn = g.parameter(table)
        leaves = [g.hadamard(_row(g, tn, i), g.constant(weights[j].reshape(3, 1)))
                  for j, i in enumerate(rows)]
        grad = backward(g, total(g, g.concat(leaves)))[table]
        expected = np.zeros((4, 3))
        for j, i in enumerate(rows):
            expected[i] += weights[j]
        np.testing.assert_array_equal(grad, expected)

    def test_take_row_of_an_intermediate_node(self):
        rng = np.random.default_rng(5)
        p = Parameter("p", rng.uniform(-1, 1, (4, 3)))
        g = Graph()
        th = g.tanh(g.parameter(p))
        loss = total(g, g.concat([_row(g, th, 2), _row(g, th, 0)]))
        expected = np.zeros((4, 3))
        expected[[0, 2]] = 1.0 - np.tanh(p.value[[0, 2]]) ** 2
        np.testing.assert_allclose(backward(g, loss)[p], expected, rtol=0, atol=1e-15)

        def build():
            g = Graph()
            th = g.tanh(g.parameter(p))
            return g, total(g, g.hadamard(_row(g, th, 1), _row(g, th, 1)))

        assert grad_check(build, [p]) < 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_and_factored_parts_together(self, seed):
        rng = np.random.default_rng(seed)
        w = Parameter("w", rng.uniform(-1, 1, (4, 3)))
        xs = [rng.uniform(-1, 1, (3, 1)) for _ in range(3)]
        scale = rng.uniform(-1, 1, (4, 3))

        def grads(factored):
            g = Graph()
            wn = g.parameter(w)
            parts = [g.tanh(_matvec(g, wn, g.constant(x), factored)) for x in xs]
            for _ in range(2):
                parts.append(_row(g, wn, 2) if factored else
                             g.transpose(g.matmul(g.constant(np.eye(4)[2:3]), wn)))
            dense = total(g, g.hadamard(g.tanh(wn), g.constant(scale)))
            loss = total(g, g.concat([total(g, g.concat(parts)), dense]))
            return backward(g, loss)[w]

        np.testing.assert_allclose(grads(True), grads(False), rtol=0, atol=1e-12)

    def test_float32_graph_returns_float32_arrays(self):
        rng = np.random.default_rng(2)
        d, k = 3, 2
        block = LstmParameters(AffineMap.from_arrays(
            "cell", rng.uniform(-1, 1, (5 * k, d + 2 * k)), rng.uniform(-1, 1, (5 * k, 1))))
        table = Parameter("t", rng.uniform(-1, 1, (6, d)))
        scale = Parameter("s", rng.uniform(-1, 1, (k, 1)))
        g = Graph(np.float32)
        tn = g.parameter(table)
        # a walk over ( a b ) whose every node reads a table row: 4, 1, 4
        x = g.stack_columns([_row(g, tn, 4), _row(g, tn, 1), _row(g, tn, 4)])
        h = walk_tree(g, parse_tree("( a b )"), block, x).h
        loss = total(g, g.hadamard(g.take_col(h, 2), g.parameter(scale)))
        grads = backward(g, loss)
        assert set(grads) == {block.block.weight, block.block.bias, table, scale}
        for p, grad in grads.items():
            assert type(grad) is np.ndarray
            assert grad.dtype == np.float32
            assert grad.shape == p.value.shape

    @pytest.mark.parametrize("part", [
        OuterGrad(np.ones((4, 1)), np.ones((2, 1))),
        np.ones((4, 2)),
        RowGrad([4], np.ones((1, 2))),
        RowGrad(np.array([-1]), np.ones((1, 2))),
        RowGrad([1], np.ones((1, 3))),
        RowGrad([1], np.ones((1, 2), np.float32)),
    ], ids=["outer", "dense", "past-the-last-row", "negative-row", "wide-values",
            "other-dtype"])
    def test_a_row_read_parameter_takes_read_row_slices_only(self, part):
        """A parameter read by rows takes row parts only, each on its own
        rows with values of its width and dtype: an outer-product or dense
        part next to a row part, a row outside [0, 4) (which a scatter
        would wrap), or other values is a misuse that names the
        parameter."""
        p = Parameter("t", np.ones((4, 2)))
        g = Graph()
        tn = g.parameter(p)
        misuse = g.record(np.ones((1, 1)), (tn,), lambda _: (part,), "misuse")
        loss = total(g, g.concat([_row_read(g, tn, [1]), misuse]))
        for differentiate in (gradients, backward):
            with pytest.raises(ShapeMismatch, match="'t'"):
                differentiate(g, loss)

    def test_a_row_gradient_reaches_parameters_only(self):
        g = Graph()
        th = g.tanh(g.parameter(Parameter("t", np.ones((4, 2)))))
        with pytest.raises(ShapeMismatch, match="'tanh'"):
            gradients(g, total(g, _row_read(g, th, [1])))

    def test_take_row_has_the_table_as_its_one_parent(self):
        vocab, table = empty_vocabulary(3)
        register_oov(vocab, table, ["a", "b"], np.random.default_rng(0))
        g = Graph()
        node = embedding_node(g, vocab, table, ["a", "b", "a", "zebra"])
        assert node.parents == (g.parameter(table.trainable),)
        (part,) = node.vjp(np.arange(12.0).reshape(3, 4))
        # last token first; "zebra" reads the fallback row 0
        assert part.rows.tolist() == [0, 1, 2, 1]
        assert part.values.tolist() == [[3.0, 7.0, 11.0], [2.0, 6.0, 10.0],
                                        [1.0, 5.0, 9.0], [0.0, 4.0, 8.0]]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=60, deadline=None)
    @given(reads=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=8),
                          min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_sum_rows_adds_each_part_in_arrival_order(self, dtype, reads, seed):
        """Parts whose rows repeat, one row three times or more: the sum
        has the bits of adding every row's values into a zero table in
        arrival order, on the sorted union of the rows."""
        reads[-1] = reads[-1] + [reads[0][0]] * 2
        rng = np.random.default_rng(seed)
        parts = []
        for rows in reads:
            # Magnitudes from 1e-4 to 1e4, so that the order of addition shows.
            scale = 10.0 ** rng.integers(-4, 5, (len(rows), 1))
            values = rng.standard_normal((len(rows), 3)) * scale
            parts.append(RowGrad(np.array(rows), values.astype(dtype)))
        dense = np.zeros((10, 3), dtype)
        for rows, values in parts:
            for r, v in zip(rows, values):
                dense[r] += v
        got = sum_rows(parts)
        union = sorted({r for rows, _ in parts for r in rows.tolist()})
        assert got.rows.tolist() == union
        assert got.values.dtype == dtype
        assert got.values.tobytes() == dense[union].tobytes()

    def test_take_row_backward_stays_near_one_table(self):
        """A level of forty leaves must not cost forty table-sized
        arrays: backward's peak allocation stays below three tables."""
        rng = np.random.default_rng(0)
        vocab, table = empty_vocabulary(64)
        register_oov(vocab, table, [f"w{i:04d}" for i in range(1, 5000)], rng)
        assert table.trainable.value.shape == (5000, 64)
        tokens = [vocab.tokens[i] for i in rng.integers(0, 5000, 40)]
        g = Graph()
        loss = total(g, embedding_node(g, vocab, table, tokens))
        tracemalloc.start()
        try:
            grad = backward(g, loss)[table.trainable]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * table.trainable.value.nbytes
        assert grad.sum() == 40 * 64


def _everything_build(seed):
    """One graph touching every differentiable op, for the seeded sweep."""
    rng = np.random.default_rng(seed)
    a_p = Parameter("A", rng.uniform(-1, 1, (3, 4)))
    b_p = Parameter("B", rng.uniform(-1, 1, (1, 1)))
    amap = AffineMap.from_arrays("f", rng.uniform(-1, 1, (4, 3)),
                                 rng.uniform(-1, 1, (4, 1)))
    x_const = rng.uniform(-1, 1, (4, 2))

    def build():
        g = Graph()
        a = g.parameter(a_p)
        mm = g.matmul(a, g.constant(x_const))        # (3, 2)
        cs = g.softmax(mm, axis=0)                   # (3, 2)
        sm = g.softmax(g.transpose(cs), axis=1)      # (2, 3)
        rn = g.row_normalize(sm, 0.1)                # (2, 3)
        cc = g.concat([g.take_col(rn, 0), _row(g, rn, 1)])  # (5, 1)
        sc = g.slice_rows(cc, 1, 4)                  # (3, 1)
        st = g.stack_columns([sc, g.neg(sc)])        # (3, 2)
        h = g.hadamard(st, st)
        os_ = g.outer_sum(g.take_col(h, 0), g.transpose(g.take_col(h, 1)),
                          g.parameter(b_p))          # (3, 3)
        th = g.tanh(os_)
        sl = g.take_col(th, range(2))                # (3, 2)
        af = g.affine(amap, g.take_col(sl, 1))       # (4, 1)
        nll = g.neg(g.log(g.slice_rows(g.softmax(af, axis=0), 1, 2)))
        picked = g.concat([sm, g.neg(rn)])           # (4, 3)
        # entry (2, 0) twice, then the columns of a block under one map
        gt = g.gather(th, [[2, 0], [2, 1]], [[0, 1], [0, 2]])  # (2, 2)
        wide = g.affine(amap, g.tanh(sl))            # (4, 2)
        # two pairs of one and two nodes a side, over th's three columns
        at, _ = attend(g, g.take_col(h, 0), g.transpose(g.take_col(th, 2)),
                       g.parameter(b_p), th, ([0, 1, 3], [0, 1, 3]), True)  # (3, 3)
        loss = total(g, g.concat([nll, total(g, g.take_col(h, range(2))),
                                  total(g, g.hadamard(picked, picked)),
                                  total(g, g.hadamard(gt, gt)), total(g, wide),
                                  total(g, g.hadamard(at, th))]))
        return g, loss

    params = [a_p, b_p, amap.weight, amap.bias]
    return build, params


class TestGradCheck:
    def test_quadratic_is_exact_up_to_rounding(self):
        p = Parameter("q", np.array([1.0, -2.0, 0.5]))

        def build():
            g = Graph()
            pn = g.parameter(p)
            return g, total(g, g.hadamard(pn, pn))

        assert grad_check(build, [p], eps=1e-5) < 1e-9

    def test_sum_tanh_affine(self):
        """Σ tanh(Wx + b) against central differences at eps 1e-5."""
        rng = np.random.default_rng(11)
        amap = AffineMap.from_arrays("g", rng.standard_normal((5, 4)),
                                     rng.standard_normal((5, 1)))
        x = rng.standard_normal((4, 1))

        def build():
            g = Graph()
            return g, total(g, g.tanh(g.affine(amap, g.constant(x))))

        assert grad_check(build, [amap.weight, amap.bias], eps=1e-5) < 1e-6

    def test_composite_graph_records_every_op(self):
        ops = {name for name, attr in vars(Graph).items()
               if callable(attr) and not name.startswith("_")}
        ops -= {"record", "constant", "parameter"}
        ops.add("attention")  # the fused op of attention.attend
        graph, _ = _everything_build(0)[0]()
        assert ops <= {node.op for node in graph.nodes}

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_every_op_over_twenty_seeds(self, eps):
        for seed in range(20):
            build, params = _everything_build(seed)
            worst = grad_check(build, params, eps=eps)
            assert worst < 1e-4, f"seed {seed}: {worst:.3e}"

    def test_loss_fn_shortcut_agrees_with_build(self):
        build, params = _everything_build(99)
        via_build = grad_check(build, params, eps=1e-5)
        via_fn = grad_check(build, params, eps=1e-5,
                            loss_fn=lambda: float(build()[1].value[0, 0]))
        assert via_build == pytest.approx(via_fn, rel=1e-12)

    def test_corrupted_backward_rule_is_caught(self):
        p = Parameter("w", np.array([0.7, -0.3]))

        def build():
            g = Graph()
            pn = g.parameter(p)
            # Deliberately wrong rule: claims d(2x)/dx = 3.
            y = g.record(pn.value * 2.0, (pn,), lambda gr: (gr * 3.0,), "bad_scale")
            return g, total(g, y)

        assert grad_check(build, [p], eps=1e-5) > 1e-2

    def test_disconnected_parameter_reports_zero_error(self):
        used = Parameter("u", np.array([1.0]))
        unused = Parameter("nc", np.array([5.0]))

        def build():
            g = Graph()
            return g, total(g, g.hadamard(g.parameter(used), g.parameter(used)))

        assert grad_check(build, [unused], eps=1e-5) == 0.0

    def test_nan_error_is_never_dropped(self):
        """One NaN difference quotient among finite ones makes the audit
        NaN, so it can never read as a pass."""
        p = Parameter("w", np.array([0.7, -0.3, 0.2]))

        def build():
            g = Graph()
            return g, total(g, g.hadamard(g.parameter(p), g.parameter(p)))

        def loss_fn():
            # NaN only while the middle scalar is perturbed.
            return np.nan if p.value[1, 0] != -0.3 else float((p.value ** 2).sum())

        assert not np.isfinite(grad_check(build, [p], eps=1e-5, loss_fn=loss_fn))

    @pytest.mark.parametrize("eps", [0.0, -1e-4, np.nan, np.inf])
    def test_step_size_must_be_positive_and_finite(self, eps):
        p = Parameter("w", np.array([0.7]))

        def build():
            g = Graph()
            return g, total(g, g.parameter(p))

        with pytest.raises(ValueError, match="eps"):
            grad_check(build, [p], eps=eps)


class TestStackedGradCheck:
    """grad_check with a ``stacked_loss``: one evaluation per chunk of
    perturbed copies of a parameter, and the same contract as the
    one-copy-at-a-time loop."""

    @staticmethod
    def _square(p):
        def build():
            g = Graph()
            return g, total(g, g.hadamard(g.parameter(p), g.parameter(p)))

        def stacked(param, stack):
            return (stack ** 2).reshape(len(stack), -1).sum(axis=1)

        return build, stacked

    @pytest.mark.parametrize("eps", [0.0, -1e-4, np.nan, np.inf])
    def test_step_size_is_checked_before_any_forward(self, eps):
        p = Parameter("w", np.array([0.7]))
        calls = []

        def build():
            calls.append("build")
            g = Graph()
            return g, total(g, g.parameter(p))

        def stacked(param, stack):
            calls.append("stacked")
            return stack.reshape(len(stack), -1).sum(axis=1)

        with pytest.raises(ValueError, match="eps"):
            grad_check(build, [p], eps=eps, stacked_loss=stacked)
        assert calls == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_each_copy_moves_one_scalar_up_then_down(self, dtype):
        """Copy i of a chunk holds value + eps at scalar i and copy n + i
        value - eps there, in the parameter's dtype, and the worst error
        equals the one-copy-at-a-time loop's exactly."""
        p = Parameter("w", np.array([[0.7, -0.3, 0.2], [0.1, 0.9, -0.6]], dtype))
        build, square = self._square(p)
        seen = []

        def stacked(param, stack):
            assert param is p
            seen.append(stack.copy())
            return square(param, stack)

        via_stack = grad_check(build, [p], eps=1e-3, stacked_loss=stacked)
        via_copies = grad_check(build, [p], eps=1e-3,
                                loss_fn=lambda: (p.value ** 2).reshape(-1).sum())
        assert via_stack == via_copies < 1e-4
        (stack,) = seen
        assert stack.dtype == dtype and stack.shape == (12, 2, 3)
        for i in range(6):
            for copy, step in ((stack[i], 1e-3), (stack[6 + i], -1e-3)):
                want = p.value.copy()
                want.reshape(-1)[i] += step
                np.testing.assert_array_equal(copy, want)

    def test_one_nan_quotient_in_a_stack_makes_the_result_nan(self):
        p = Parameter("w", np.array([0.7, -0.3, 0.2]))
        build, square = self._square(p)

        def stacked(param, stack):
            losses = square(param, stack)
            losses[4] = np.nan  # scalar 1 moved down
            return losses

        assert np.isnan(grad_check(build, [p], eps=1e-5, stacked_loss=stacked))

    def test_a_parameter_the_loss_does_not_reach_reports_zero(self):
        """A stacked loss that ``param`` does not reach returns one loss
        for the whole stack; every quotient is then zero, as is the
        tape's gradient."""
        used = Parameter("u", np.array([1.0]))
        unused = Parameter("nc", np.array([5.0, -2.0]))

        def build():
            g = Graph()
            return g, total(g, g.hadamard(g.parameter(used), g.parameter(used)))

        def stacked(param, stack):
            return np.float64(used.value[0, 0] ** 2)

        assert grad_check(build, [unused], eps=1e-5, stacked_loss=stacked) == 0.0

    def test_a_non_finite_oracle_value_propagates(self):
        p = Parameter("w", np.array([0.7]))
        build, _ = self._square(p)

        def stacked(param, stack):
            raise NonFiniteValue("non-finite class distribution")

        with pytest.raises(NonFiniteValue):
            grad_check(build, [p], eps=1e-5, stacked_loss=stacked)

    def test_chunks_stay_within_the_budget_and_give_the_same_error(self, monkeypatch):
        """Shrinking the budget splits a parameter into more, smaller
        stacks, none over the budget, and moves no digit of the result."""
        rng = np.random.default_rng(3)
        p = Parameter("w", rng.uniform(-1, 1, (4, 5)))
        build, square = self._square(p)
        whole = grad_check(build, [p], eps=1e-4, stacked_loss=square)
        sizes = []

        def stacked(param, stack):
            sizes.append(stack.nbytes)
            return square(param, stack)

        monkeypatch.setattr(autodiff, "STACK_BYTES", 7 * 2 * p.value.nbytes)
        assert grad_check(build, [p], eps=1e-4, stacked_loss=stacked) == whole
        assert sizes == [7 * 2 * p.value.nbytes] * 2 + [6 * 2 * p.value.nbytes]


class TestPerturbationChunks:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (40, 26), (40, 32), (3, 10),
                                       (20, 12), (750, 1), (160, 200)])
    def test_no_stack_exceeds_the_budget(self, shape):
        """Every index is perturbed once, in order, and no chunk's 2n
        copies exceed the budget."""
        value = np.broadcast_to(np.zeros(()), shape)  # no memory behind it
        chunks = list(perturbation_chunks(value))
        assert [i for c in chunks for i in c] == list(range(value.size))
        for chunk in chunks:
            assert 1 <= len(chunk) and 2 * len(chunk) * value.nbytes <= STACK_BYTES

    @pytest.mark.parametrize("k, d", [(150, 300), (32, 300)])
    def test_a_paper_width_weight_still_gets_a_scalar_per_chunk(self, k, d):
        """meaning.weight at paper widths is too wide for two copies to fit
        the budget.  It still goes one scalar per chunk, so ``gradcheck
        --k 150`` holds two copies of it at once (7.2 MB), never a stack
        of gigabytes."""
        params = ModelParameters.build(
            k, k, d, lambda name, rows, cols: AffineMap.from_arrays(
                name, np.broadcast_to(np.zeros(()), (rows, cols)), np.zeros((rows, 1))))
        weight = params.meaning.block.weight.value
        assert weight.shape == (5 * k, d + 2 * k)
        assert 2 * weight.nbytes > STACK_BYTES
        chunks = perturbation_chunks(weight)
        assert [next(chunks) for _ in range(3)] == [range(0, 1), range(1, 2), range(2, 3)]
        assert sum(1 for _ in chunks) == weight.size - 3


class TestNumericGuards:
    def test_non_finite_value_names_the_op(self):
        g = Graph()
        v = g.constant(np.array([[0.0], [1.0]]))
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteValue, match="log"):
            g.log(v)

    def test_shape_errors(self):
        g = Graph()
        a = g.constant(np.ones((2, 2)))
        b = g.constant(np.ones((3, 2)))
        with pytest.raises(ShapeMismatch):
            g.concat([a, g.transpose(b)])  # column counts 2 and 3
        with pytest.raises(ShapeMismatch):
            g.hadamard(a, b)
        with pytest.raises(ShapeMismatch):
            g.matmul(a, b)
        for start, stop in ((1, 5), (2, 3), (1, 1), (-1, 1)):
            with pytest.raises(ShapeMismatch):
                g.slice_rows(a, start, stop)
        for cols in (2, -1, [0, 1], range(1, 3), range(0), range(0, 2, 2)):
            with pytest.raises(ShapeMismatch):
                g.take_col(a, cols)
        col, one = g.constant(np.ones((2, 1))), g.constant(np.ones((1, 1)))
        with pytest.raises(ShapeMismatch):
            g.outer_sum(col, col, one)  # the second term must be a row

    def test_empty_collections_rejected(self):
        g = Graph()
        with pytest.raises(EmptyVector):
            g.concat([])
        with pytest.raises(EmptyVector):
            g.stack_columns([])
        for shape in ((0, 1), (2, 0)):
            for axis in (0, 1):
                with pytest.raises(EmptyVector):
                    g.softmax(g.constant(np.zeros(shape)), axis=axis)

    def test_non_2d_record_rejected(self):
        g = Graph()
        with pytest.raises(ShapeMismatch):
            g.constant(np.zeros((2, 2, 2)))


class TestDeterminism:
    def test_identical_builds_are_bit_identical(self):
        build, params = _everything_build(4)
        g1, l1 = build()
        g2, l2 = build()
        assert l1.value.item() == l2.value.item()
        grads1 = backward(g1, l1)
        grads2 = backward(g2, l2)
        for p in params:
            np.testing.assert_array_equal(grads1[p], grads2[p])

    def test_float32_graphs_cast_consistently(self):
        p = Parameter("p", np.array([0.25, -0.75]))
        g = Graph(np.float32)
        node = g.parameter(p)
        assert node.value.dtype == np.float32
        loss = total(g, g.tanh(node))
        assert backward(g, loss)[p].dtype == np.float32
