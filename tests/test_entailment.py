"""Relation composition, classification, and the end-to-end pipeline,
including the tape-free twin used for fast evaluation and as the
difference-quotient reference."""

import numpy as np
import pytest

from treentail.autodiff import AffineMap, Graph, ShapeMismatch
from treentail.composer import LstmParameters
from treentail.embeddings import empty_vocabulary, register_oov
from treentail.entailment import (
    LABELS,
    InvalidLabel,
    ModelParameters,
    classify,
    cross_entropy,
    loss_node,
    node_confidences,
    plain_forward,
    plain_loss,
    predict,
    run_forward,
)
from treentail.trainer import full_model_grad_check
from treentail.trees import BinaryTree, parse_tree


def affine(name, out_dim, in_dim, rng, scale=0.4):
    return AffineMap.from_arrays(
        name,
        rng.uniform(-scale, scale, (out_dim, in_dim)),
        rng.uniform(-scale, scale, (out_dim, 1)))


def toy_model(k, r, d, seed, scale=0.4, with_reverse=False, zero=False):
    rng = np.random.default_rng(seed)
    if zero:
        scale = 0.0
    reverse = affine("rev", 1, 2 * k, rng, scale) if with_reverse else None
    params = ModelParameters(
        meaning=LstmParameters(affine("meaning", 5 * k, d + 2 * k, rng, scale)),
        relation=LstmParameters(affine("relation", 5 * r, 2 * k + 2 * r, rng, scale)),
        scorer=affine("scorer", 1, 2 * k, rng, scale),
        classifier=affine("classifier", 3, r, rng, scale),
        reverse_scorer=reverse)
    vocab, table = empty_vocabulary(d)
    register_oov(vocab, table, ["cat", "dog", "sat", "ran", "the"], rng)
    if not zero:
        table.trainable.value[...] = rng.uniform(
            -0.7, 0.7, table.trainable.value.shape)
    return vocab, table, params


PAIRS = [
    ("( the ( cat sat ) )", "( the cat )"),
    ("( ( the dog ) ran )", "( ( the cat ) ( sat ran ) )"),
    ("cat", "( dog dog )"),
]


class TestLabelsAndLoss:
    def test_label_order_is_fixed(self):
        assert LABELS == ("contradiction", "neutral", "entailment")

    def test_uniform_distribution_costs_log_three(self):
        for gold in LABELS:
            assert cross_entropy([1 / 3, 1 / 3, 1 / 3], gold) == pytest.approx(
                np.log(3), abs=1e-12)

    def test_confident_right_answer_costs_little(self):
        assert cross_entropy([0.001, 0.001, 0.998], "entailment") < 0.01

    def test_unknown_label_rejected_everywhere(self):
        g = Graph()
        dist = g.constant(np.full((3, 1), 1 / 3))
        with pytest.raises(InvalidLabel):
            cross_entropy([1 / 3, 1 / 3, 1 / 3], "maybe")
        with pytest.raises(InvalidLabel):
            loss_node(g, dist, "maybe")
        vocab, table, params = toy_model(2, 2, 3, 0)
        with pytest.raises(InvalidLabel):
            plain_loss(parse_tree("cat"), parse_tree("dog"),
                       vocab, table, params, "maybe")

    def test_loss_node_matches_plain_formula(self):
        g = Graph()
        dist = g.constant(np.array([[0.2], [0.5], [0.3]]))
        node = loss_node(g, dist, "neutral")
        assert node.value.item() == pytest.approx(cross_entropy([0.2, 0.5, 0.3],
                                                                "neutral"),
                                                  abs=1e-15)

    def test_wrong_size_distribution_rejected(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy([0.5, 0.5], "neutral")


class TestClassify:
    def test_zero_classifier_is_exactly_uniform(self):
        g = Graph()
        zero = AffineMap.from_arrays("c", np.zeros((3, 4)), np.zeros((3, 1)))
        dist = classify(g, g.constant(np.random.default_rng(0).standard_normal((4, 1))),
                        zero)
        np.testing.assert_array_equal(dist.value, 1 / 3)

    def test_output_is_a_distribution(self):
        rng = np.random.default_rng(11)
        g = Graph()
        dist = classify(g, g.constant(rng.standard_normal((5, 1))),
                        affine("c", 3, 5, rng, scale=2.0))
        v = dist.value[:, 0]
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert (v > 0).all()

    def test_wrong_logit_count_rejected(self):
        g = Graph()
        with pytest.raises(ShapeMismatch):
            classify(g, g.constant(np.zeros((4, 1))),
                     AffineMap.from_arrays("c", np.zeros((2, 4)), np.zeros((2, 1))))


class TestRunForward:
    def test_dual_off_reuses_forward_as_final(self):
        vocab, table, params = toy_model(3, 2, 4, 1)
        g = Graph()
        run = run_forward(g, parse_tree(PAIRS[0][0]), parse_tree(PAIRS[0][1]),
                          vocab, table, params)
        assert run.final_attention is run.forward_attention
        assert run.reverse_attention is None

    def test_want_reverse_is_a_diagnostic_only(self):
        vocab, table, params = toy_model(3, 2, 4, 1)
        prem, hyp = (parse_tree(s) for s in PAIRS[1])
        g = Graph()
        run = run_forward(g, prem, hyp, vocab, table, params, want_reverse=True)
        assert run.reverse_attention.shape == (prem.node_count, hyp.node_count)
        assert run.final_attention is run.forward_attention

    def test_dual_alignment_collapses_onto_forward(self):
        """The product-and-renormalize step is an identity here, by algebra.

        The pair score is affine in the concatenated node vectors, so it
        splits as u(hyp node) + v(premise node).  Row softmax cancels the
        u term (every forward row is the same distribution over premise
        nodes), column softmax cancels the v term, and the row
        renormalization of fwd[i,j]*rev[j,i] divides the rev factor back
        out.  The dual matrix therefore equals the forward matrix except
        for the 1e-12 renormalization floor nudging rows toward uniform.
        """
        for seed in range(4):
            vocab, table, params = toy_model(3, 2, 4, seed)
            prem, hyp = (parse_tree(s) for s in PAIRS[1])
            plain_run = run_forward(Graph(), prem, hyp, vocab, table, params)
            dual_run = run_forward(Graph(), prem, hyp, vocab, table, params,
                                   use_dual=True)
            assert dual_run.final_attention is not dual_run.forward_attention
            np.testing.assert_allclose(dual_run.final_attention.value,
                                       plain_run.final_attention.value,
                                       atol=1e-9)
            np.testing.assert_allclose(
                dual_run.final_attention.value.sum(axis=1), 1.0, atol=1e-9)

    def test_collapse_holds_with_a_separate_reverse_scorer(self):
        """A second scorer is still affine, so the cancellation survives."""
        vocab, table, split = toy_model(3, 2, 4, 3, with_reverse=True)
        prem, hyp = (parse_tree(s) for s in PAIRS[0])
        fwd_run = run_forward(Graph(), prem, hyp, vocab, table, split)
        dual_run = run_forward(Graph(), prem, hyp, vocab, table, split,
                               use_dual=True)
        np.testing.assert_allclose(dual_run.final_attention.value,
                                   fwd_run.final_attention.value,
                                   atol=1e-9)

    def test_dropout_only_acts_when_given_an_rng(self):
        vocab, table, params = toy_model(3, 2, 4, 4)
        prem, hyp = (parse_tree(s) for s in PAIRS[0])

        def dist(rate, rng):
            return run_forward(Graph(), prem, hyp, vocab, table, params,
                               dropout_rate=rate, rng=rng).distribution.value

        base = dist(0.0, None)
        trained = [dist(0.5, np.random.default_rng(s)) for s in range(6)]
        assert any(not np.array_equal(base, t) for t in trained)
        np.testing.assert_array_equal(base, dist(0.0, np.random.default_rng(0)))

    def test_relation_width_mismatch_rejected(self):
        vocab, table, params = toy_model(3, 2, 4, 5)
        bad = ModelParameters(
            meaning=params.meaning,
            relation=LstmParameters(affine("relation", 5 * 2, 4 + 2 * 2,
                                           np.random.default_rng(0))),
            scorer=params.scorer,
            classifier=params.classifier)
        with pytest.raises(ShapeMismatch):
            run_forward(Graph(), parse_tree("cat"), parse_tree("dog"),
                        vocab, table, bad)


class TestPlainTwin:
    """plain_forward re-implements the pipeline without a tape but with
    the same operation order, so in float64 the two must agree bitwise."""

    @pytest.mark.parametrize("use_dual", [False, True])
    @pytest.mark.parametrize("with_reverse", [False, True])
    def test_distributions_are_bit_identical(self, use_dual, with_reverse):
        for seed in range(6):
            rng = np.random.default_rng(seed + 40)
            k, r, d = rng.integers(2, 6), rng.integers(2, 6), rng.integers(2, 7)
            vocab, table, params = toy_model(int(k), int(r), int(d), seed,
                                             with_reverse=with_reverse)
            for prem_s, hyp_s in PAIRS:
                prem, hyp = parse_tree(prem_s), parse_tree(hyp_s)
                run = run_forward(Graph(), prem, hyp, vocab, table, params,
                                  use_dual=use_dual)
                twin = plain_forward(prem, hyp, vocab, table, params,
                                     use_dual=use_dual)
                np.testing.assert_array_equal(run.distribution.value[:, 0], twin)

    def test_ids_out_of_dfs_order_match_the_twin(self):
        """Node ids that are child-before-parent but not a DFS order."""
        vocab, table, params = toy_model(3, 4, 5, 11)
        tokens = ("the", "cat", "dog", "sat", None, None, None)
        shuffled = BinaryTree(tokens=tokens,
                              lefts=(-1, -1, -1, -1, 0, 1, 4),
                              rights=(-1, -1, -1, -1, 2, 3, 5))
        for use_dual in (False, True):
            run = run_forward(Graph(), shuffled, shuffled, vocab, table, params,
                              use_dual=use_dual)
            twin = plain_forward(shuffled, shuffled, vocab, table, params,
                                 use_dual=use_dual)
            np.testing.assert_array_equal(run.distribution.value[:, 0], twin)

    def test_loss_matches_tape_loss(self):
        vocab, table, params = toy_model(3, 4, 5, 9)
        prem, hyp = (parse_tree(s) for s in PAIRS[2])
        for gold in LABELS:
            g = Graph()
            run = run_forward(g, prem, hyp, vocab, table, params, use_dual=True)
            tape = loss_node(g, run.distribution, gold).value.item()
            twin = plain_loss(prem, hyp, vocab, table, params, gold,
                              use_dual=True)
            assert twin == tape

    def test_loss_keeps_the_working_precision(self):
        vocab, table, params = toy_model(2, 2, 3, 9)
        prem, hyp = (parse_tree(s) for s in PAIRS[0])
        wide = plain_loss(prem, hyp, vocab, table, params, "neutral",
                          dtype=np.longdouble)
        assert wide.dtype == np.longdouble

    def test_float32_stays_close_to_float64(self):
        vocab, table, params = toy_model(3, 3, 4, 10)
        prem, hyp = (parse_tree(s) for s in PAIRS[1])
        lo = plain_forward(prem, hyp, vocab, table, params, dtype=np.float32)
        hi = plain_forward(prem, hyp, vocab, table, params)
        assert lo.dtype == np.float32
        np.testing.assert_allclose(lo, hi, atol=1e-5)


class TestPredict:
    def test_zero_model_ties_resolve_to_first_label(self):
        vocab, table, params = toy_model(2, 2, 3, 0, zero=True)
        out = predict(parse_tree("( cat dog )"), parse_tree("( the sat )"),
                      vocab, table, params)
        np.testing.assert_allclose(out.distribution, 1 / 3, atol=1e-12)
        assert out.label == "contradiction"

    def test_shapes_and_contents(self):
        vocab, table, params = toy_model(3, 4, 5, 6)
        prem, hyp = (parse_tree(s) for s in PAIRS[1])
        out = predict(prem, hyp, vocab, table, params, use_dual=True)
        assert out.label in LABELS
        assert out.distribution.shape == (3,)
        assert out.forward_attention.shape == (hyp.node_count, prem.node_count)
        assert out.reverse_attention.shape == (prem.node_count, hyp.node_count)
        assert out.final_attention.shape == (hyp.node_count, prem.node_count)
        assert out.relations.shape == (hyp.node_count, 4)
        assert out.label == LABELS[int(np.argmax(out.distribution))]


class TestNodeConfidences:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(13)
        relations = rng.standard_normal((7, 5))
        conf = node_confidences(relations, affine("c", 3, 5, rng))
        assert conf.shape == (7, 3)
        np.testing.assert_allclose(conf.sum(axis=1), 1.0, atol=1e-12)
        assert (conf > 0).all()

    def test_root_row_matches_predict(self):
        vocab, table, params = toy_model(3, 4, 5, 6)
        prem, hyp = (parse_tree(s) for s in PAIRS[0])
        out = predict(prem, hyp, vocab, table, params)
        conf = node_confidences(out.relations, params.classifier)
        np.testing.assert_allclose(conf[hyp.root], out.distribution, atol=1e-12)


class TestEndToEndGradients:
    def test_small_model_grad_check(self):
        """Both composition blocks, dual attention, and the classifier in
        one loss, at deliberately non-square widths."""
        worst = full_model_grad_check(k=4, r=3, d=5, seed=1, pairs=3, eps=1e-4)
        assert worst < 1e-4, f"{worst:.3e}"
