"""Relation composition, classification, and the end-to-end pipeline,
including the tape-free forward that serves all inference and is the
difference-quotient reference."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treentail.attention import (
    attended_context,
    forward_attention,
    reverse_attention,
    score_matrix,
)
from treentail.autodiff import AffineMap, Graph, Parameter, ShapeMismatch, backward
from treentail.composer import LstmParameters, encode_tree
from treentail.embeddings import (
    EmbeddingTable,
    Vocabulary,
    empty_vocabulary,
    register_oov,
)
from treentail.entailment import (
    LABELS,
    InvalidLabel,
    ModelParameters,
    _forests,
    _wavefront,
    batch_loss,
    classify,
    compose_relations,
    cross_entropy,
    loss_node,
    node_confidences,
    plain_distributions,
    plain_forward,
    plain_loss,
    predict,
    run_batch,
    run_forward,
)
from treentail.data import generate_toy, leaf_tokens, left_branching, random_tree
from treentail.trainer import _audit_fixture, _audit_oracle, full_model_grad_check
from treentail.trees import forest_schedule, parse_tree


def affine(name, out_dim, in_dim, rng, scale=0.4):
    return AffineMap.from_arrays(
        name,
        rng.uniform(-scale, scale, (out_dim, in_dim)),
        rng.uniform(-scale, scale, (out_dim, 1)))


def toy_model(k, r, d, seed, scale=0.4, zero=False):
    rng = np.random.default_rng(seed)
    if zero:
        scale = 0.0
    params = ModelParameters.build(
        k, r, d, lambda name, rows, cols: affine(name, rows, cols, rng, scale))
    vocab, table = empty_vocabulary(d)
    register_oov(vocab, table, ["cat", "dog", "sat", "ran", "the"], rng)
    if not zero:
        table.trainable.value[...] = rng.uniform(
            -0.7, 0.7, table.trainable.value.shape)
    return vocab, table, params


def pretrained_model(k, r, d, seed):
    """toy_model's maps over a vocabulary whose "the" and "cat" rows are
    pretrained (frozen), so one leaf level mixes constant and trainable
    rows."""
    _, _, params = toy_model(k, r, d, seed)
    rng = np.random.default_rng(seed + 100)
    vocab = Vocabulary(tokens=["the", "cat"], index={"the": 0, "cat": 1},
                       frozen_count=2)
    table = EmbeddingTable(rng.uniform(-0.7, 0.7, (2, d)))
    register_oov(vocab, table, ["cat", "dog", "sat", "ran", "the"], rng)
    table.trainable.value[...] = rng.uniform(-0.7, 0.7, table.trainable.value.shape)
    return vocab, table, params


PAIRS = [
    ("( the ( cat sat ) )", "( the cat )"),
    ("( ( the dog ) ran )", "( ( the cat ) ( sat ran ) )"),
    ("cat", "( dog dog )"),
]


def attention_scores(graph):
    """The score matrix of a batch of one on ``graph``: the ``outer_sum``
    of its ``attention`` op's hypothesis terms, premise terms and bias."""
    op = next(n for n in graph.nodes if n.op == "attention")
    return graph.outer_sum(*op.parents[:3])


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("gold", LABELS)
    def test_loss_node_gradient_is_minus_inverse_gold_probability(self, dtype, gold):
        dist = Parameter("dist", np.array([0.2, 0.5, 0.3]))
        g = Graph(dtype)
        grad = backward(g, loss_node(g, g.parameter(dist), gold))[dist]
        i = LABELS.index(gold)
        expected = np.zeros((3, 1), dtype)
        expected[i] = -1 / dist.value[i].astype(dtype)
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad, expected)

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
            np.testing.assert_allclose(dual_run.final_attention,
                                       plain_run.final_attention,
                                       atol=1e-9)
            np.testing.assert_allclose(
                dual_run.final_attention.sum(axis=1), 1.0, atol=1e-9)

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

    def test_table_gradient_adds_leaf_slices_in_tape_order(self):
        """"cat" is read twice in the premise and once in the hypothesis.
        Its table row sums the slices of its leaves in the order the
        reverse walk meets them: hypothesis leaves last to first, then
        premise leaves last to first."""
        vocab, table, params = toy_model(3, 4, 64, 12)
        prem, hyp = parse_tree("( ( cat sat ) ( the cat ) )"), parse_tree("( dog cat )")
        g = Graph()
        run = run_forward(g, prem, hyp, vocab, table, params,
                          dropout_rate=0.3, rng=np.random.default_rng(4))
        received = {}
        for node in (n for n in g.nodes if n.op == "take_row"):
            def keep(grad, node=node, vjp=node.vjp):
                received[node.idx] = grad
                return vjp(grad)
            node.vjp = keep
        grad = backward(g, loss_node(g, run.distribution, "neutral"))[table.trainable]
        prem_level, hyp_level = sorted(received)

        def summed(order):
            out = np.zeros_like(table.trainable.value)
            for tree, idx in order:
                for j, token in reversed(list(enumerate(tree.leaves()))):
                    out[vocab.index[token]] += received[idx][:, j]
            return out

        assert summed([(hyp, hyp_level), (prem, prem_level)]).tobytes() == grad.tobytes()
        # Across 64 entries the sum order shows in the bits, so a
        # reordering of the slices would fail the check above.
        assert summed([(prem, prem_level), (hyp, hyp_level)]).tobytes() != grad.tobytes()

    def test_a_dropped_tape_is_freed_without_the_garbage_collector(self):
        """No vjp refers back to its graph, so an example's tape goes as
        soon as training drops it.  Through a cycle it would stay until a
        full collection, which added about 20 MB to the paper-width
        benchmark's peak RSS."""
        vocab, table, params = toy_model(3, 4, 6, 12)
        gc.disable()
        try:
            g = Graph()
            run = run_forward(g, parse_tree("( ( cat sat ) ( the cat ) )"),
                              parse_tree("( dog cat )"), vocab, table, params,
                              use_dual=True, dropout_rate=0.3, rng=np.random.default_rng(4))
            backward(g, loss_node(g, run.distribution, "neutral"))
            tape = weakref.ref(g)
            del g, run
            assert tape() is None
        finally:
            gc.enable()

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


class TestTapeSize:
    """The tape records a fixed number of nodes per pair, whatever the
    trees' sizes and heights: each tree walk is one op."""

    # with dual attention, dropout and the loss
    NODES = 34

    @staticmethod
    def tape_nodes(prem, hyp, vocab, table, params, rng):
        g = Graph()
        run = run_forward(g, prem, hyp, vocab, table, params, use_dual=True,
                          dropout_rate=0.2, rng=rng)
        loss_node(g, run.distribution, "neutral")
        return len(g.nodes)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_prem=st.integers(1, 200),
           n_hyp=st.integers(1, 200))
    def test_tape_size_is_independent_of_the_trees(self, seed, n_prem, n_hyp):
        """At most 34 nodes per pair for random trees of 1-200 leaves:
        three walks, two leaf reads with their dropout masks, and fixed
        attention, classifier and loss ops."""
        vocab, table, params = toy_model(2, 2, 3, 3)
        rng = np.random.default_rng(seed)
        words = ["cat", "dog", "sat", "ran", "the"]
        prem, hyp = (random_tree(rng, list(rng.choice(words, n))) for n in (n_prem, n_hyp))
        assert self.tape_nodes(prem, hyp, vocab, table, params, rng) <= self.NODES

    def test_a_300_level_pair_keeps_the_bound_and_the_plain_forward_bits(self):
        """Left-branching trees of 300 leaves, one node per level above
        the leaves: the tape stays within the bound, and its distribution
        equals plain_forward's bit for bit."""
        vocab, table, params = toy_model(2, 2, 3, 3)
        words = ["cat", "dog", "sat", "ran", "the"]
        prem, hyp = (left_branching([words[i * step % 5] for i in range(300)])
                     for step in (1, 2))
        assert len(forest_schedule([prem])[1]) == len(forest_schedule([hyp])[1]) == 300
        rng = np.random.default_rng(0)
        assert self.tape_nodes(prem, hyp, vocab, table, params, rng) <= self.NODES
        run = run_forward(Graph(), prem, hyp, vocab, table, params, use_dual=True)
        np.testing.assert_array_equal(
            run.distribution.value[:, 0],
            plain_forward(prem, hyp, vocab, table, params, use_dual=True))

    def test_toy_recipe_records_under_100_nodes_per_example(self):
        pairs = generate_toy(0, 60)
        vocab, table = empty_vocabulary(4)
        rng = np.random.default_rng(0)
        register_oov(vocab, table, leaf_tokens(pairs), rng)
        params = ModelParameters.build(4, 4, 4, lambda name, rows, cols: affine(
            name, rows, cols, rng))
        nodes = [self.tape_nodes(p.premise, p.hypothesis, vocab, table, params, rng)
                 for p in pairs]
        assert np.mean(nodes) < 100

    def test_a_batch_tape_does_not_grow_with_the_batch(self):
        """``run_batch`` plus ``batch_loss`` records as many nodes for 32
        random pairs as for 7 or for one, with dual attention and dropout:
        no op is recorded per pair."""
        vocab, table, params = toy_model(3, 3, 4, 6)
        pairs, golds = random_pairs(np.random.default_rng(6), 32)
        counts = []
        for b in (1, 7, 32):
            g = Graph()
            run = run_batch(g, pairs[:b], vocab, table, params, use_dual=True,
                            dropout_rate=0.2, rng=np.random.default_rng(b))
            batch_loss(g, run.distributions, golds[:b])
            counts.append(len(g.nodes))
        assert counts == [counts[0]] * 3


class TestPerNodeCallForms:
    def test_lists_of_node_vectors_give_the_matrix_forms_bits(self):
        """The per-node call forms (a walk iterated or indexed into
        ``(k, 1)`` views, lists of them passed on) compute what the
        matrix forms compute, bit for bit."""
        vocab, table, params = toy_model(3, 4, 5, 2)
        prem, hyp = (parse_tree(s) for s in PAIRS[1])
        g = Graph()
        p_states = encode_tree(g, prem, vocab, table, params.meaning)
        h_states = encode_tree(g, hyp, vocab, table, params.meaning)
        p_list, h_list = [s.h for s in p_states], [s.h for s in h_states]
        assert len(p_list) == prem.node_count and all(v.shape == (3, 1) for v in p_list)
        scores = score_matrix(g, h_list, p_list, params.scorer)
        final = forward_attention(g, scores)
        contexts = attended_context(g, final, p_list)
        relations = compose_relations(g, hyp, h_list, contexts, params.relation)
        dist = classify(g, relations[hyp.root].h, params.classifier)
        tape = Graph()
        run = run_forward(tape, prem, hyp, vocab, table, params)
        np.testing.assert_array_equal(scores.value, attention_scores(tape).value)
        np.testing.assert_array_equal(final.value, run.forward_attention)
        np.testing.assert_array_equal(relations.h.value, run.relation_states.value)
        np.testing.assert_array_equal(dist.value, run.distribution.value)


def random_pairs(rng, count, most=12):
    """``count`` pairs of random trees of 1 to ``most`` leaves over
    toy_model's words, one of them unknown, and a label for each."""
    words = ["cat", "dog", "sat", "ran", "the", "unseen"]
    pairs = [tuple(random_tree(rng, list(rng.choice(words, rng.integers(1, most + 1))))
                   for _ in range(2)) for _ in range(count)]
    return pairs, [LABELS[int(rng.integers(3))] for _ in range(count)]


class TestBatchTape:
    """One tape over a batch of pairs (``run_batch``), which training runs."""

    @pytest.mark.parametrize("use_dual", [False, True])
    @pytest.mark.parametrize("dtype, tolerance", [(np.float64, 1e-14), (np.float32, 1e-6)])
    def test_gradient_is_the_mean_of_the_per_example_gradients(self, dtype, tolerance,
                                                               use_dual):
        """The batch loss's gradient equals the mean of each pair's own
        ``run_forward`` gradient up to rounding: within 1e-14 absolute in
        float64 and 1e-6 in float32, against gradients of order one (the
        largest differences measured are 6e-17 and 4.5e-8)."""
        for seed in range(5):
            vocab, table, params = toy_model(5, 4, 6, seed)
            pairs, golds = random_pairs(np.random.default_rng(seed), 7)
            g = Graph(dtype)
            run = run_batch(g, pairs, vocab, table, params, use_dual=use_dual)
            batch = backward(g, batch_loss(g, run.distributions, golds)[0])
            summed = {}
            for (prem, hyp), gold in zip(pairs, golds):
                g = Graph(dtype)
                one = run_forward(g, prem, hyp, vocab, table, params, use_dual=use_dual)
                for p, grad in backward(g, loss_node(g, one.distribution, gold)).items():
                    summed[p] = grad if p not in summed else summed[p] + grad
            assert set(batch) == set(summed)
            for p, grad in summed.items():
                assert batch[p].dtype == dtype
                np.testing.assert_allclose(batch[p], grad / len(pairs), rtol=0,
                                           atol=tolerance, err_msg=p.name)

    @pytest.mark.parametrize("use_dual", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_is_the_tape_free_forward_bit_for_bit(self, dtype, use_dual):
        """The batch tape groups and lays out its operands as the
        tape-free forward of the same pairs: distributions, every pair's
        three alignments and its relation vectors agree to the bit."""
        for seed in range(4):
            vocab, table, params = pretrained_model(4, 3, 5, seed)
            pairs, golds = random_pairs(np.random.default_rng(seed + 20), 6, most=20)
            g = Graph(dtype)
            run = run_batch(g, pairs, vocab, table, params, use_dual=use_dual)
            dists, views = _wavefront(*_forests(pairs), vocab, table, params, use_dual,
                                      dtype, attention=True)
            assert run.distributions.value.T.tobytes() == dists.tobytes()
            np.testing.assert_array_equal(
                dists, plain_distributions(pairs, vocab, table, params, use_dual, dtype))
            at = _forests(pairs)[1][0][0]  # the hypotheses' forest offsets
            for j, ((fwd, rev, final), (pf, pr, pfin, prel)) in enumerate(
                    zip(run.attention, views)):
                assert fwd.tobytes() == pf.tobytes()
                assert final.tobytes() == pfin.tobytes()
                if use_dual:
                    assert rev.tobytes() == pr.tobytes()
                relations = run.relation_states.value[:, at[j]:at[j + 1]].T
                np.testing.assert_array_equal(relations, prel)
            loss, losses = batch_loss(g, run.distributions, golds)
            own = [cross_entropy(dists[j], gold) for j, gold in enumerate(golds)]
            assert losses.value[0].tolist() == own
            assert loss.value.item() == pytest.approx(np.mean(own), rel=1e-6)

    def test_dropout_draws_are_each_pairs_own_in_order(self):
        """The batch's two leaf masks are the masks each pair's own tape
        draws when the pairs run one after another on the same stream:
        leaf by leaf, pair by pair, premise before hypothesis."""
        vocab, table, params = toy_model(3, 3, 4, 8)
        pairs, _ = random_pairs(np.random.default_rng(8), 5)
        g = Graph()
        run_batch(g, pairs, vocab, table, params, dropout_rate=0.3,
                  rng=np.random.default_rng(2))
        batch = [n.value for n in g.nodes if n.op == "dropout_mask"]
        rng, own = np.random.default_rng(2), []
        for prem, hyp in pairs:
            g = Graph()
            run_forward(g, prem, hyp, vocab, table, params, dropout_rate=0.3, rng=rng)
            own.append([n.value for n in g.nodes if n.op == "dropout_mask"])
        assert len(batch) == 2
        for side in range(2):
            assert batch[side].tobytes() == np.hstack([m[side] for m in own]).tobytes()

    def test_a_batch_of_one_records_run_forwards_tape(self):
        """``run_forward`` is the batch of one: the same ops in the same
        order, and no block is taken of any forest matrix."""
        vocab, table, params = toy_model(3, 4, 5, 3)
        prem, hyp = (parse_tree(s) for s in PAIRS[1])
        one, batch = Graph(), Graph()
        run_forward(one, prem, hyp, vocab, table, params, use_dual=True)
        run_batch(batch, [(prem, hyp)], vocab, table, params, use_dual=True)
        ops = [n.op for n in one.nodes]
        assert ops == [n.op for n in batch.nodes]
        assert ops.count("take_col") == 2  # the scorer weight's two halves
        assert "slice_rows" not in ops and "stack_columns" not in ops


def assert_matches_tape(prem, hyp, vocab, table, params, use_dual, dtype):
    """Every output of predict equals the tape's value bit for bit."""
    g = Graph(dtype)
    run = run_forward(g, prem, hyp, vocab, table, params, use_dual=use_dual)
    out = predict(prem, hyp, vocab, table, params, use_dual=use_dual, dtype=dtype)
    reverse = run.reverse_attention
    if reverse is None:
        # Without dual the tape records no reverse view; take the column
        # softmax of the scores its forward attention normalized.
        reverse = reverse_attention(g, attention_scores(g)).value
    relations = run.relation_states.value.T
    for got, want in ((out.distribution, run.distribution.value[:, 0]),
                      (out.forward_attention, run.forward_attention),
                      (out.reverse_attention, reverse),
                      (out.final_attention, run.final_attention),
                      (out.relations, relations)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
    assert out.label == LABELS[int(np.argmax(run.distribution.value))]
    np.testing.assert_array_equal(
        plain_forward(prem, hyp, vocab, table, params, use_dual=use_dual, dtype=dtype),
        out.distribution)


class TestPlainTwin:
    """predict (and plain_forward, its distribution) re-implements the
    pipeline without a tape but with the same operation order, so in
    float64 and float32 the two must agree bitwise."""

    @pytest.mark.parametrize("use_dual", [False, True])
    def test_distributions_are_bit_identical(self, use_dual):
        for dtype in (np.float64, np.float32):
            for seed in range(6):
                rng = np.random.default_rng(seed + 40)
                k, r, d = rng.integers(2, 6), rng.integers(2, 6), rng.integers(2, 7)
                vocab, table, params = toy_model(int(k), int(r), int(d), seed)
                for prem_s, hyp_s in PAIRS:
                    assert_matches_tape(parse_tree(prem_s), parse_tree(hyp_s),
                                        vocab, table, params, use_dual, dtype)

    @pytest.mark.parametrize("use_dual", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k, d", [(32, 300), (150, 300)])
    def test_random_shapes_at_benchmark_widths(self, k, d, dtype, use_dual):
        """Random trees of 1-40 leaves, whose levels hold several nodes,
        at the widths the benchmark runs (k = r)."""
        vocab, table, params = toy_model(k, k, d, k + d, scale=0.1)
        rng = np.random.default_rng(k)
        words = ["cat", "dog", "sat", "ran", "the", "unseen"]
        widest = 0
        for _ in range(3):
            prem, hyp = (random_tree(rng, list(rng.choice(words, rng.integers(1, 41))))
                         for _ in range(2))
            widest = max(widest, *(np.arange(hyp.node_count)[ids].size
                                   for ids, _, _ in forest_schedule([hyp])[1][1:]), 0)
            assert_matches_tape(prem, hyp, vocab, table, params, use_dual, dtype)
        assert widest > 1

    @pytest.mark.parametrize("use_dual", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pretrained_and_trainable_rows_in_one_leaf_level(self, dtype, use_dual):
        rng = np.random.default_rng(7)
        words = ["cat", "dog", "sat", "ran", "the", "The", "unseen"]
        for seed in range(3):
            vocab, table, params = pretrained_model(3, 4, 5, seed)
            assert vocab.frozen_count == 2
            for prem_s, hyp_s in PAIRS:
                assert_matches_tape(parse_tree(prem_s), parse_tree(hyp_s),
                                    vocab, table, params, use_dual, dtype)
            prem, hyp = (random_tree(rng, list(rng.choice(words, rng.integers(1, 30))))
                         for _ in range(2))
            assert_matches_tape(prem, hyp, vocab, table, params, use_dual, dtype)

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

    def test_the_audit_oracle_is_plain_loss_bit_for_bit(self):
        """The audit evaluates a stack of one parameter's values with one
        tape-free forward, on each pair's forests built once.  Every entry
        of the stack is the extended-precision plain forward at that value
        exactly: for the weight and the bias of the meaning block, the
        relation block, the scorer and the classifier and for the
        trainable table rows, with dual attention on and off.  With dual
        attention on, the audit's own oracle gives plain_loss exactly, and
        the stacked evaluation leaves every parameter as it was."""
        vocab, table, params, drawn = _audit_fixture(8, 8, 10, 0, 6, (3, 7))
        checked = params.trainable() + [table.trainable]
        rng = np.random.default_rng(5)
        reached = {param.name: 0 for param in checked}
        for premise, hypothesis, gold in drawn:
            forests = _forests([(premise, hypothesis)])
            oracle = _audit_oracle(premise, hypothesis, gold, vocab, table, params)
            for param in checked:
                # the start value, then single scalars moved either way
                stack = np.repeat(param.value[None], 5, axis=0)
                flat = stack.reshape(5, -1)
                flat[np.arange(1, 5), rng.integers(flat.shape[1], size=4)] += [1e-4, -1e-4,
                                                                              1e-3, -1e-3]
                saved = param.value.copy()
                # a pair that reads no trainable row gives one value for all
                losses = oracle(param, stack)
                reached[param.name] += losses.shape == (5,)
                losses = np.broadcast_to(losses, (5,))
                assert losses.dtype == np.longdouble
                for use_dual in (True, False):
                    dists = np.broadcast_to(
                        _wavefront(*forests, vocab, table, params, use_dual, np.longdouble,
                                   attention=False, stand_in=(param, stack))[0], (5, 1, 3))
                    np.testing.assert_array_equal(param.value, saved)
                    for copy, dist in zip(stack, dists):
                        param.value[...] = copy
                        try:
                            np.testing.assert_array_equal(
                                dist[0], plain_forward(premise, hypothesis, vocab, table,
                                                       params, use_dual, np.longdouble))
                        finally:
                            param.value[...] = saved
                for copy, loss in zip(stack, losses):
                    param.value[...] = copy
                    try:
                        assert loss == plain_loss(premise, hypothesis, vocab, table, params,
                                                  gold, use_dual=True, dtype=np.longdouble)
                    finally:
                        param.value[...] = saved
        assert min(reached.values()) > 0, reached

    def test_stacked_audit_equals_the_per_scalar_loop(self):
        """The stacked audit reports the worst error of the loop it
        replaced to the last digit.  That loop moves each scalar in place
        by +eps and then -eps, evaluates plain_loss in extended precision
        once per move and pair, and compares each quotient with the
        tape's gradient."""
        k, r, d, seed, pairs, eps = 4, 3, 5, 1, 2, 1e-4
        vocab, table, params, drawn = _audit_fixture(k, r, d, seed, pairs, (3, 7))
        worst = 0.0
        for premise, hypothesis, gold in drawn:
            graph = Graph(np.float64)
            run = run_forward(graph, premise, hypothesis, vocab, table, params,
                              use_dual=True)
            analytic = backward(graph, loss_node(graph, run.distribution, gold))

            def loss():
                return plain_loss(premise, hypothesis, vocab, table, params, gold,
                                  use_dual=True, dtype=np.longdouble)

            for p in params.trainable() + [table.trainable]:
                a = analytic.get(p)  # None for a table the pair does not read
                aflat = np.zeros(p.value.size) if a is None else np.asarray(a).reshape(-1)
                flat = p.value.reshape(-1)
                for j in range(flat.size):
                    saved = flat[j]
                    flat[j] = saved + eps
                    up = loss()
                    flat[j] = saved - eps
                    down = loss()
                    flat[j] = saved
                    numeric = (up - down) / (2.0 * eps)
                    denom = max(1e-8, abs(aflat[j]) + abs(numeric))
                    worst = np.maximum(worst, abs(aflat[j] - numeric) / denom)
        assert full_model_grad_check(k=k, r=r, d=d, seed=seed, pairs=pairs, eps=eps) \
            == float(worst)
