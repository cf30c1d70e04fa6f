"""Soft alignment: pairwise scoring, the three normalizations, contexts,
and the enumeration oracle they approximate."""

import numpy as np
import pytest

from treentail.attention import (
    RENORM_FLOOR,
    NotDistribution,
    NotOnePerRow,
    attend,
    attended_context,
    dual_attention,
    forward_attention,
    mix_alignments,
    reverse_attention,
    row_entropy,
    score_matrix,
    score_terms,
)
from treentail.autodiff import AffineMap, Graph, Parameter, ShapeMismatch, backward, grad_check

from tape_helpers import total


def random_scorer(k, rng, name="scorer"):
    return AffineMap.from_arrays(
        name, rng.standard_normal((1, 2 * k)), rng.standard_normal((1, 1)))


def constant_vectors(graph, arrays):
    return [graph.constant(a) for a in arrays]


class TestScoreMatrix:
    def test_matches_per_pair_affine(self):
        """The vectorized split-weight form must equal scoring each
        (hypothesis, premise) pair one concatenation at a time."""
        k = 4
        rng = np.random.default_rng(31)
        for _ in range(20):
            scorer = random_scorer(k, rng)
            hyp = [rng.standard_normal((k, 1)) for _ in range(3)]
            prem = [rng.standard_normal((k, 1)) for _ in range(5)]
            g = Graph()
            scores = score_matrix(g, constant_vectors(g, hyp),
                                  constant_vectors(g, prem), scorer)
            w, b = scorer.weight.value, scorer.bias.value
            expected = np.array([
                [(w @ np.vstack([h, p]) + b).item() for p in prem] for h in hyp
            ])
            assert scores.shape == (3, 5)
            np.testing.assert_allclose(scores.value, expected, atol=1e-12)

    def test_zero_scorer_gives_uniform_attention(self):
        k = 3
        rng = np.random.default_rng(5)
        scorer = AffineMap.from_arrays("s", np.zeros((1, 2 * k)), np.zeros((1, 1)))
        g = Graph()
        hyp = constant_vectors(g, rng.standard_normal((2, k, 1)))
        prem = constant_vectors(g, rng.standard_normal((4, k, 1)))
        att = forward_attention(g, score_matrix(g, hyp, prem, scorer))
        np.testing.assert_allclose(att.value, 0.25, atol=1e-15)

    @pytest.mark.parametrize("weight_shape,bias_shape", [
        ((2, 6), (2, 1)),   # two outputs is not a score
        ((1, 5), (1, 1)),   # odd input cannot split into halves
    ])
    def test_rejects_malformed_scorer(self, weight_shape, bias_shape):
        scorer = AffineMap.from_arrays(
            "s", np.zeros(weight_shape), np.zeros(bias_shape))
        g = Graph()
        vecs = constant_vectors(g, np.zeros((2, 3, 1)))
        with pytest.raises(ShapeMismatch):
            score_matrix(g, vecs, vecs, scorer)

    def test_rejects_wrong_vector_width(self):
        g = Graph()
        scorer = random_scorer(3, np.random.default_rng(0))
        good = constant_vectors(g, np.zeros((2, 3, 1)))
        bad = constant_vectors(g, np.zeros((2, 4, 1)))
        with pytest.raises(ShapeMismatch):
            score_matrix(g, good, bad, scorer)


class TestNormalizations:
    def test_forward_and_reverse_rows_are_distributions(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            scores = rng.standard_normal((4, 6)) * 3
            g = Graph()
            node = g.constant(scores)
            fwd = forward_attention(g, node)
            rev = reverse_attention(g, node)
            assert fwd.shape == (4, 6) and rev.shape == (6, 4)
            np.testing.assert_allclose(fwd.value.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(rev.value.sum(axis=1), 1.0, atol=1e-12)
            assert fwd.value.min() > 0

    def test_dual_hand_case(self):
        fwd = np.array([[0.6, 0.4], [0.5, 0.5]])
        rev = np.array([[0.3, 0.7], [0.9, 0.1]])  # rows = premise nodes
        g = Graph()
        dual = dual_attention(g, g.constant(fwd), g.constant(rev))
        # raw products [[0.18, 0.36], [0.35, 0.05]], then each row renormalized
        np.testing.assert_allclose(
            dual.value, [[1 / 3, 2 / 3], [0.875, 0.125]], atol=1e-9)

    def test_agreeing_one_hot_alignment_is_a_fixed_point(self):
        perm = np.eye(4)[[2, 0, 3, 1]]
        g = Graph()
        dual = dual_attention(g, g.constant(perm), g.constant(perm.T))
        np.testing.assert_allclose(dual.value, perm, atol=1e-9)

    def test_dual_rows_stay_stochastic_under_disagreement(self):
        """Even when the two views contradict each other the floor keeps
        every row a distribution instead of dividing by zero."""
        fwd = np.array([[1.0, 0.0], [1.0, 0.0]])
        rev = np.array([[0.0, 0.0], [1.0, 1.0]])  # nobody attends back to col 0
        g = Graph()
        dual = dual_attention(g, g.constant(fwd), g.constant(rev))
        np.testing.assert_allclose(dual.value.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(dual.value, [[0.5, 0.5], [0.5, 0.5]], atol=1e-9)

    def test_dual_rejects_mismatched_views(self):
        g = Graph()
        with pytest.raises(ShapeMismatch):
            dual_attention(g, g.constant(np.ones((2, 3)) / 3),
                           g.constant(np.ones((2, 3)) / 3))


class TestAttendedContext:
    def test_one_hot_rows_pick_premise_vectors_exactly(self):
        rng = np.random.default_rng(8)
        prem = [rng.standard_normal((3, 1)) for _ in range(4)]
        att = np.eye(4)[[3, 1]]
        g = Graph()
        ctx = attended_context(g, g.constant(att), constant_vectors(g, prem))
        assert ctx.shape == (3, 2)
        np.testing.assert_array_equal(ctx.value[:, :1], prem[3])
        np.testing.assert_array_equal(ctx.value[:, 1:], prem[1])

    def test_matches_manual_weighted_sum(self):
        rng = np.random.default_rng(21)
        prem = [rng.standard_normal((5, 1)) for _ in range(3)]
        att = rng.dirichlet(np.ones(3), size=4)
        g = Graph()
        ctx = attended_context(g, g.constant(att), constant_vectors(g, prem))
        for i in range(4):
            expected = sum(att[i, j] * prem[j] for j in range(3))
            np.testing.assert_allclose(ctx.value[:, i:i + 1], expected, atol=1e-12)

    def test_rejects_column_count_mismatch(self):
        g = Graph()
        prem = constant_vectors(g, np.zeros((3, 2, 1)))
        with pytest.raises(ShapeMismatch):
            attended_context(g, g.constant(np.ones((2, 4)) / 4), prem)


class TestMixAlignments:
    def test_hand_mixture(self):
        a = np.array([[1, 0, 0], [0, 1, 0]])
        b = np.array([[0, 1, 0], [0, 0, 1]])
        c = np.array([[0, 0, 1], [1, 0, 0]])
        mixed = mix_alignments([a, b, c], [1 / 3, 1 / 2, 1 / 6])
        np.testing.assert_allclose(
            mixed, [[1 / 3, 1 / 2, 1 / 6], [1 / 6, 1 / 3, 1 / 2]], atol=1e-15)
        np.testing.assert_allclose(mixed.sum(axis=1), 1.0, atol=1e-12)

    def test_random_mixtures_are_row_stochastic(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n, m, count = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 7)
            alignments = [np.eye(m)[rng.integers(0, m, n)] for _ in range(count)]
            probs = rng.dirichlet(np.ones(count))
            mixed = mix_alignments(alignments, probs)
            np.testing.assert_allclose(mixed.sum(axis=1), 1.0, atol=1e-9)
            assert mixed.min() >= 0

    def test_rejects_bad_probabilities(self):
        a = np.eye(2)
        with pytest.raises(NotDistribution):
            mix_alignments([a, a], [0.5, 0.6])
        with pytest.raises(NotDistribution):
            mix_alignments([a, a], [1.5, -0.5])
        with pytest.raises(NotDistribution):
            mix_alignments([a], [0.5, 0.5])
        with pytest.raises(NotDistribution):
            mix_alignments([], [])

    def test_rejects_non_alignments(self):
        with pytest.raises(NotOnePerRow):
            mix_alignments([np.array([[0.5, 0.5]])], [1.0])
        with pytest.raises(NotOnePerRow):
            mix_alignments([np.array([[1.0, 1.0]])], [1.0])
        with pytest.raises(NotOnePerRow):
            mix_alignments([np.eye(2), np.eye(3)], [0.5, 0.5])

    def test_error_types_are_value_errors(self):
        assert issubclass(NotDistribution, ValueError)
        assert issubclass(NotOnePerRow, ValueError)


class TestRowEntropy:
    def test_uniform_and_one_hot_extremes(self):
        m = np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]])
        ent = row_entropy(m)
        np.testing.assert_allclose(ent, [np.log(4), 0.0], atol=1e-12)

    def test_hand_value(self):
        ent = row_entropy([[0.5, 0.5]])
        np.testing.assert_allclose(ent, [np.log(2)], atol=1e-15)

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(6), size=40)
        assert (row_entropy(rows) <= np.log(6) + 1e-12).all()


class TestGradientFlow:
    def test_grad_check_through_dual_pipeline(self):
        """Scores, both softmax views, the product, and the floor-and-
        renormalize step all sit between the loss and the parameters.

        The difference quotients run over a plain transcription of the
        pipeline in extended precision: the alignment matrices are
        invariant to shifting every score, so the bias direction has a
        near-zero gradient that float64 quotients read as pure rounding
        noise.
        """
        k, n_hyp, n_prem = 3, 3, 4
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scorer = AffineMap.from_arrays(
                "scorer",
                rng.uniform(-0.8, 0.8, (1, 2 * k)),
                rng.uniform(-0.8, 0.8, (1, 1)))
            hyp = [Parameter(f"h{i}", rng.uniform(-0.9, 0.9, (k, 1)))
                   for i in range(n_hyp)]
            prem = [Parameter(f"p{j}", rng.uniform(-0.9, 0.9, (k, 1)))
                    for j in range(n_prem)]
            probe = rng.standard_normal((n_hyp, n_prem))

            def build():
                g = Graph()
                scores = score_matrix(g, [g.parameter(p) for p in hyp],
                                      [g.parameter(p) for p in prem], scorer)
                dual = dual_attention(g, forward_attention(g, scores),
                                      reverse_attention(g, scores))
                return g, total(g, g.hadamard(dual, g.constant(probe)))

            def plain(dtype=np.float64):
                w = np.asarray(scorer.weight.value, dtype)
                b = np.asarray(scorer.bias.value, dtype)
                hs = np.concatenate([np.asarray(p.value, dtype) for p in hyp],
                                    axis=1)
                ps = np.concatenate([np.asarray(p.value, dtype) for p in prem],
                                    axis=1)
                scores = (w[:, :k] @ hs).T + (w[:, k:] @ ps) + b

                def rows(m):
                    e = np.exp(m - m.max(axis=1, keepdims=True))
                    return e / e.sum(axis=1, keepdims=True)

                raw = rows(scores) * rows(scores.T).T + dtype(RENORM_FLOOR)
                dual = raw / raw.sum(axis=1, keepdims=True)
                return (dual * np.asarray(probe, dtype)).sum()

            # the transcription must agree with the tape before it may
            # stand in as the finite-difference reference
            assert abs(plain() - build()[1].value.item()) < 1e-12

            checked = [scorer.weight, scorer.bias, *hyp, *prem]
            worst = grad_check(build, checked, eps=1e-5,
                               loss_fn=lambda: plain(np.longdouble))
            assert worst < 1e-4, f"seed {seed}: {worst:.3e}"


def plain_rows(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def plain_contexts(weight, bias, hyp, prem, offsets, use_dual):
    """The ``(k, n_hyp)`` contexts of a batch of pairs, one pair at a time
    in the arrays' own dtype: the reference for the batch op."""
    k = hyp.shape[0]
    hyp_at, prem_at = offsets
    contexts = []
    for j in range(len(hyp_at) - 1):
        h, p = hyp[:, hyp_at[j]:hyp_at[j + 1]], prem[:, prem_at[j]:prem_at[j + 1]]
        scores = (weight[:, :k] @ h).T + (weight[:, k:] @ p) + bias
        final = plain_rows(scores)
        if use_dual:
            raw = final * plain_rows(scores.T).T + hyp.dtype.type(RENORM_FLOOR)
            final = raw / raw.sum(axis=1, keepdims=True)
        contexts.append(p @ final.T)
    return np.concatenate(contexts, axis=1)


class TestAttendOp:
    """The batch's attention as one tape op (``attend``), checked against
    a per-pair transcription and central differences."""

    # pair shapes (|hyp|, |prem|): (2, 3) three times, the rest once,
    # with one-node hypotheses and premises among them
    SHAPES = [(2, 3), (1, 1), (2, 3), (3, 1), (2, 3), (1, 4), (4, 2)]

    @pytest.mark.parametrize("use_dual", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ragged_batch_grad_check(self, dtype, use_dual):
        """Every pair's scores, softmaxes, dual renormalization and
        contexts sit between the loss and the scorer and both forests'
        states.  The difference quotients run over the per-pair
        transcription in extended precision.

        The row softmax cancels the hypothesis terms (the affine scorer's
        collapse), so the hypotheses' gradients are zero up to the
        renormalization floor, and the bias's is zero by algebra.  In
        float32 rounding noise is the whole of such a gradient, so there
        the hypothesis side and the bias are checked for size only."""
        k = 3
        offsets = tuple(np.cumsum([0] + [shape[i] for shape in self.SHAPES]).tolist()
                        for i in range(2))
        small = 10 * np.finfo(dtype).eps
        for seed in range(4):
            rng = np.random.default_rng(seed)
            scorer = AffineMap.from_arrays("scorer", rng.uniform(-1.5, 1.5, (1, 2 * k)),
                                           rng.uniform(-0.8, 0.8, (1, 1)))
            hyp = Parameter("hyp", rng.uniform(-0.9, 0.9, (k, offsets[0][-1])))
            prem = Parameter("prem", rng.uniform(-0.9, 0.9, (k, offsets[1][-1])))
            probe = rng.standard_normal((k, offsets[0][-1]))

            def plain(dtype):
                arrays = (np.asarray(a.value, dtype) for a in (scorer.weight, scorer.bias,
                                                                hyp, prem))
                return plain_contexts(*arrays, offsets, use_dual)

            def build():
                g = Graph(dtype)
                h, p = g.parameter(hyp), g.parameter(prem)
                hyp_terms, prem_terms = score_terms(g, h, p, scorer)
                contexts, _ = attend(g, hyp_terms, prem_terms, g.parameter(scorer.bias), p,
                                     offsets, use_dual)
                return g, total(g, g.hadamard(contexts, g.constant(probe)))

            graph, loss = build()
            contexts = next(n for n in graph.nodes if n.op == "attention").value
            np.testing.assert_allclose(contexts, plain(dtype), rtol=0, atol=small)
            grads = backward(graph, loss)
            assert abs(grads[scorer.bias].item()) < small
            checked = [scorer.weight, hyp, prem]
            if dtype == np.float32:
                assert np.abs(grads[hyp]).max() < small
                assert np.abs(grads[scorer.weight][:, :k]).max() < small
                checked = [prem]
            worst = grad_check(build, checked, eps=1e-5,
                               loss_fn=lambda: (plain(np.longdouble) * probe).sum())
            assert worst < 1e-4, f"seed {seed}: {worst:.3e}"

    @pytest.mark.parametrize("use_dual", [False, True])
    def test_alignments_are_each_pairs_own(self, use_dual):
        """Each pair's returned alignments are its per-pair softmaxes, in
        the order given, whatever group the pair fell in."""
        k = 4
        rng = np.random.default_rng(9)
        offsets = tuple(np.cumsum([0] + [shape[i] for shape in self.SHAPES]).tolist()
                        for i in range(2))
        scorer = random_scorer(k, rng)
        hyp = rng.standard_normal((k, offsets[0][-1]))
        prem = rng.standard_normal((k, offsets[1][-1]))
        g = Graph()
        hyp_terms, prem_terms = score_terms(g, g.constant(hyp), g.constant(prem), scorer)
        _, alignments = attend(g, hyp_terms, prem_terms, g.parameter(scorer.bias),
                               g.constant(prem), offsets, use_dual)
        w, b = scorer.weight.value, scorer.bias.value
        for j, (fwd, rev, final) in enumerate(alignments):
            h = hyp[:, offsets[0][j]:offsets[0][j + 1]]
            p = prem[:, offsets[1][j]:offsets[1][j + 1]]
            scores = (w[:, :k] @ h).T + (w[:, k:] @ p) + b
            assert fwd.shape == self.SHAPES[j]
            np.testing.assert_allclose(fwd, plain_rows(scores), rtol=0, atol=1e-15)
            if use_dual:
                np.testing.assert_allclose(rev, plain_rows(scores.T), rtol=0, atol=1e-15)
                np.testing.assert_allclose(final.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            else:
                assert rev is None and final is fwd
