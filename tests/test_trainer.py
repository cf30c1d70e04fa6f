"""Initialization, Adam, the training loop, evaluation, the closed-form
parameter count, and the checkpoint container."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treentail.autodiff import (
    Graph,
    NonFiniteValue,
    Parameter,
    ShapeMismatch,
    backward,
    gradients,
)
from treentail.composer import dropout
import treentail
from treentail import trainer
from treentail.data import ExamplePair, generate_toy, random_tree
from treentail.embeddings import (
    EmbeddingTable,
    Vocabulary,
    empty_vocabulary,
    load_pretrained,
    register_oov,
)
from treentail.entailment import (
    LABELS,
    batch_loss,
    loss_node,
    plain_distributions,
    plain_forward,
    plain_loss,
    predict,
    run_batch,
    run_forward,
)
from treentail.trainer import (
    MAGIC,
    CheckpointError,
    EmptyDataset,
    EpochMetrics,
    RowGrad,
    TrainConfig,
    adam_step,
    evaluate,
    init_optimizer,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    train,
)
from treentail.trees import BinaryTree, parse_tree


def small_config(**overrides):
    base = dict(k=4, r=3, d=5, epochs=1, batch_size=4, dropout_rate=0.0,
                seed=7)
    base.update(overrides)
    return TrainConfig(**base)


def corpus_fixture(config, n=4, seed=3):
    """Deterministic dataset + registered vocabulary + initial model."""
    pairs = generate_toy(seed, n)
    tokens = sorted({t for p in pairs
                     for t in p.premise.leaves() + p.hypothesis.leaves()})
    vocab, table = empty_vocabulary(config.d)
    register_oov(vocab, table, tokens, np.random.default_rng(seed))
    params = init_parameters(config, np.random.default_rng(seed + 1))
    return pairs, vocab, table, params


class TestTrainConfig:
    def test_defaults_match_the_reference_setup(self):
        config = TrainConfig()
        assert (config.k, config.r, config.d) == (150, 150, 300)
        assert config.learning_rate == 0.001
        assert (config.beta1, config.beta2) == (0.9, 0.999)
        assert config.adam_epsilon == 1e-8
        assert config.batch_size == 32
        assert config.dropout_rate == 0.2
        assert config.dtype is np.float64

    @pytest.mark.parametrize("bad", [
        dict(k=0), dict(d=-3),
        dict(learning_rate=0.0), dict(learning_rate=1.5),
        dict(learning_rate="x"), dict(learning_rate=1),
        dict(dropout_rate=1.0), dict(dropout_rate=-0.1),
        dict(batch_size=0), dict(epochs=-1),
        dict(precision="half"),
        dict(k=2.5), dict(k=True), dict(r=3.0), dict(d="8"),
        dict(batch_size=2.0), dict(epochs=1.0), dict(seed=1.5),
        dict(use_dual="no"), dict(seed=-1),
        dict(dropout_rate=None), dict(dropout_rate=False),
    ])
    def test_rejects_bad_settings(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_single_precision_dtype(self):
        assert TrainConfig(precision="single").dtype is np.float32

    def test_adam_constants_are_not_settings(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "k", "r", "d", "learning_rate", "batch_size", "dropout_rate",
            "epochs", "seed", "use_dual", "precision"]
        assert (TrainConfig.beta1, TrainConfig.beta2, TrainConfig.adam_epsilon) \
            == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError):
            TrainConfig(adam_epsilon=1e-8)

    def test_every_value_constructs_or_is_a_value_error(self):
        """Each field drawn from mixed types either yields a config that
        survives the checkpoint header's JSON round trip, or raises
        ValueError; no other exception gets out."""
        anything = st.one_of(
            st.integers(-3, 400), st.floats(), st.booleans(), st.none(),
            st.text(max_size=6), st.sampled_from(["double", "single"]),
            st.floats(0.0, 1.0))
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        outcomes = []

        @settings(max_examples=400, derandomize=True, deadline=None)
        @given(st.fixed_dictionaries({}, optional=dict.fromkeys(names, anything)))
        def construct(values):
            try:
                config = TrainConfig(**values)
            except ValueError:
                outcomes.append(False)
                return
            outcomes.append(True)
            header = json.loads(json.dumps(dataclasses.asdict(config)))
            assert TrainConfig(**header) == config

        construct()
        assert any(outcomes) and not all(outcomes)


class TestInitParameters:
    def test_every_scalar_within_the_init_box(self):
        config = small_config()
        params = init_parameters(config, np.random.default_rng(0))
        for p in params.trainable():
            assert np.abs(p.value).max() < 0.05

    def test_same_seed_same_model(self):
        config = small_config()
        a = init_parameters(config, np.random.default_rng(5))
        b = init_parameters(config, np.random.default_rng(5))
        for pa, pb in zip(a.trainable(), b.trainable()):
            np.testing.assert_array_equal(pa.value, pb.value)
        c = init_parameters(config, np.random.default_rng(6))
        assert any(not np.array_equal(pa.value, pc.value)
                   for pa, pc in zip(a.trainable(), c.trainable()))

    def test_shapes_follow_the_widths(self):
        config = small_config(k=6, r=4, d=9)
        params = init_parameters(config, np.random.default_rng(1))
        assert params.meaning.block.weight.value.shape == (30, 9 + 12)
        assert params.relation.block.weight.value.shape == (20, 12 + 8)
        assert params.scorer.weight.value.shape == (1, 12)
        assert params.classifier.weight.value.shape == (3, 4)

    def test_draw_looks_uniform_at_scale(self):
        """~1e5 scalars: the sample mean of U(-0.05, 0.05) stays within
        four standard errors and the spread matches width/sqrt(12)."""
        config = TrainConfig(k=50, r=50, d=100)
        params = init_parameters(config, np.random.default_rng(11))
        flat = np.concatenate([p.value.ravel() for p in params.trainable()])
        assert flat.size == parameter_count(config)
        expected_sd = 0.1 / np.sqrt(12.0)
        assert abs(flat.mean()) < 4 * expected_sd / np.sqrt(flat.size)
        assert abs(flat.std() - expected_sd) < 0.05 * expected_sd


class TestDropout:
    """The encoder's inverted dropout, which training applies to every
    leaf vector with the trainer's mask stream."""

    def drop(self, v, rate, rng):
        g = Graph()
        x = g.constant(v)
        return x, dropout(g, x, rate, rng)

    def test_eval_mode_is_the_identity(self):
        v = np.random.default_rng(0).standard_normal((4, 1))
        x, out = self.drop(v, 0.5, None)
        assert out is x
        x, out = self.drop(v, 0.0, np.random.default_rng(0))
        assert out is x

    def test_train_mode_zeroes_or_rescales(self):
        _, out = self.drop(np.ones((10_000, 1)), 0.3, np.random.default_rng(1))
        values = np.unique(out.value)
        np.testing.assert_array_equal(values, [0.0, 1.0 / (1.0 - 0.3)])

    def test_expectation_is_preserved(self):
        _, out = self.drop(np.ones((100_000, 1)), 0.3, np.random.default_rng(2))
        # variance of one entry is 1/keep - 1, so four standard errors:
        bound = 4 * np.sqrt((1 / 0.7 - 1) / 100_000)
        assert abs(out.value.mean() - 1.0) < bound

    def test_rejects_bad_arguments(self):
        for rate in (1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                self.drop(np.ones((3, 1)), rate, np.random.default_rng(0))

    def test_mask_is_one_uniform_draw_per_entry(self):
        d, rate = 7, 0.4
        _, out = self.drop(np.ones((d, 1)), rate, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(
            out.value, (rng.random((d, 1)) >= rate) / (1 - rate))


    def test_level_mask_is_drawn_leaf_by_leaf(self):
        """A (d, m) leaf level's mask is the m per-leaf (d, 1) draws side
        by side, so each leaf keeps the draws it would get alone."""
        d, m, rate = 5, 4, 0.4
        _, out = self.drop(np.ones((d, m)), rate, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        per_leaf = [(rng.random((d, 1)) >= rate) / (1 - rate) for _ in range(m)]
        np.testing.assert_array_equal(out.value, np.hstack(per_leaf))
        assert out.value.flags["C_CONTIGUOUS"]


class TestAdam:
    def config(self):
        return small_config(learning_rate=0.01)

    def test_zero_gradient_is_the_identity_from_a_fresh_state(self):
        p = Parameter("p", np.random.default_rng(0).standard_normal((3, 2)))
        before = p.value.copy()
        state = init_optimizer([p])
        adam_step([p], {}, state, self.config())
        np.testing.assert_array_equal(p.value, before)
        assert state.step == 1

    def test_first_step_size_is_the_learning_rate(self):
        """Bias correction makes m-hat/sqrt(v-hat) = sign(g) on step one,
        so every coordinate moves by almost exactly lr."""
        rng = np.random.default_rng(3)
        p = Parameter("p", rng.standard_normal((4, 4)))
        g = rng.uniform(0.5, 2.0, (4, 4)) * rng.choice([-1.0, 1.0], (4, 4))
        before = p.value.copy()
        state = init_optimizer([p])
        adam_step([p], {p: g}, state, self.config())
        step = before - p.value
        np.testing.assert_allclose(np.abs(step), 0.01, rtol=1e-7)
        np.testing.assert_array_equal(np.sign(step), np.sign(g))

    def test_five_steps_match_a_scalar_transcription(self):
        config = self.config()
        rng = np.random.default_rng(4)
        p = Parameter("p", rng.standard_normal((2, 3)))
        reference = p.value.copy()
        grad_seq = [rng.standard_normal((2, 3)) for _ in range(5)]

        m = np.zeros_like(reference)
        v = np.zeros_like(reference)
        for t, g in enumerate(grad_seq, start=1):
            m = config.beta1 * m + (1 - config.beta1) * g
            v = config.beta2 * v + (1 - config.beta2) * g * g
            m_hat = m / (1 - config.beta1 ** t)
            v_hat = v / (1 - config.beta2 ** t)
            reference -= config.learning_rate * m_hat / (np.sqrt(v_hat)
                                                         + config.adam_epsilon)

        state = init_optimizer([p])
        for g in grad_seq:
            adam_step([p], {p: g}, state, config)
        np.testing.assert_allclose(p.value, reference, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_five_steps_are_bit_identical_to_the_textbook_expression(self, dtype):
        """The in-place update performs the same IEEE operations in the
        same order as the expression with temporaries, for parameters of
        different sizes sharing the work buffers and a parameter that
        gets no gradient on some steps."""
        config = self.config()
        b1, b2 = config.beta1, config.beta2
        lr, eps = config.learning_rate, config.adam_epsilon
        rng = np.random.default_rng(6)
        shapes = [(7, 5), (3, 1), (40, 9)]
        params = [Parameter(f"p{i}", rng.standard_normal(s).astype(dtype))
                  for i, s in enumerate(shapes)]
        values = [p.value.copy() for p in params]
        m = [np.zeros_like(v) for v in values]
        v2 = [np.zeros_like(v) for v in values]
        state = init_optimizer(params)
        for t in range(1, 6):
            grads = {p: rng.standard_normal(p.value.shape).astype(dtype)
                     for j, p in enumerate(params) if (j + t) % 3}
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for j, p in enumerate(params):
                g = grads.get(p, 0.0)
                m[j] = b1 * m[j] + (1.0 - b1) * g
                v2[j] = b2 * v2[j] + (1.0 - b2) * (g * g)
                values[j] = values[j] - lr * (m[j] / c1) / (np.sqrt(v2[j] / c2) + eps)
            adam_step(params, grads, state, config)
            for j, p in enumerate(params):
                assert p.value.dtype == dtype
                np.testing.assert_array_equal(p.value, values[j])
                first, second = state.dense_moments(p)
                np.testing.assert_array_equal(first, m[j])
                np.testing.assert_array_equal(second, v2[j])

    def test_update_from_an_overflowed_gradient_raises(self):
        """An infinite gradient entry makes its Adam update inf / inf, so
        the step leaves a NaN in the parameter and must say which one."""
        fine, hit = Parameter("fine", np.array([0.5])), Parameter("hit", np.array([0.5, -0.5]))
        state = init_optimizer([fine, hit])
        grads = {fine: np.array([[1.0]]), hit: np.array([[1.0], [np.inf]])}
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteValue, match="parameter 'hit' after update 1"):
            adam_step([fine, hit], grads, state, small_config())
        assert np.isnan(hit.value[1, 0])

    def test_rejects_misshapen_gradient(self):
        p = Parameter("p", np.zeros((2, 2)))
        state = init_optimizer([p])
        with pytest.raises(ShapeMismatch):
            adam_step([p], {p: np.zeros((3, 3))}, state, self.config())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_gradients_step_like_zero_filled_dense_ones(self, dtype):
        """Row-sparse steps give the bits of the same steps with the rows
        scattered into a zero gradient: through changing, unsorted and
        empty row sets, an absent gradient, and a dense gradient at the
        end, which makes every row live."""
        config = self.config()
        rng = np.random.default_rng(11)
        start = rng.standard_normal((30, 4)).astype(dtype)
        sparse, dense = Parameter("t", start.copy()), Parameter("t", start.copy())
        weight = rng.standard_normal((3, 2)).astype(dtype)
        w_sparse, w_dense = Parameter("w", weight.copy()), Parameter("w", weight.copy())
        s_state = init_optimizer([w_sparse, sparse])
        d_state = init_optimizer([w_dense, dense])
        row_sets = [[3, 7], [20, 1, 7], [], None, [5], list(range(8, 22)), [0, 29],
                    None, "dense"]
        for rows in row_sets:
            wg = rng.standard_normal((3, 2)).astype(dtype)
            s_grads, d_grads = {w_sparse: wg}, {w_dense: wg.copy()}
            if rows == "dense":
                # Until now the rows no gradient reached kept zero moments.
                np.testing.assert_array_equal(
                    s_state.dense_moments(sparse)[0][[2, 4, 6, *range(22, 29)]], 0.0)
                g = rng.standard_normal((30, 4)).astype(dtype)
                s_grads[sparse], d_grads[dense] = g, g.copy()
            elif rows is not None:
                values = rng.standard_normal((len(rows), 4)).astype(dtype)
                full = np.zeros((30, 4), dtype)
                full[rows] = values
                s_grads[sparse] = RowGrad(np.array(rows, dtype=np.intp), values)
                d_grads[dense] = full
            adam_step([w_sparse, sparse], s_grads, s_state, config)
            adam_step([w_dense, dense], d_grads, d_state, config)
            for got, want in ((sparse, dense), (w_sparse, w_dense)):
                assert got.value.dtype == dtype
                assert got.value.tobytes() == want.value.tobytes()
                s_first, s_second = s_state.dense_moments(got)
                d_first, d_second = d_state.dense_moments(want)
                assert s_first.tobytes() == d_first.tobytes()
                assert s_second.tobytes() == d_second.tobytes()

    def test_rows_past_three_quarters_make_every_row_live(self):
        """Once row gradients have reached more than 3/4 of the rows, the
        whole parameter is updated in place, with the bits of zero-filled
        dense steps, and a row no gradient reached keeps zero moments."""
        config = self.config()
        rng = np.random.default_rng(12)
        start = rng.standard_normal((8, 3))
        sparse, dense = Parameter("t", start.copy()), Parameter("t", start.copy())
        s_state, d_state = init_optimizer([sparse]), init_optimizer([dense])
        for rows in ([5, 1], [0, 6], None, [4, 2, 3], [6, 0]):
            s_grads, d_grads = {}, {}
            if rows is not None:
                values = rng.standard_normal((len(rows), 3))
                s_grads[sparse] = RowGrad(np.array(rows), values)
                d_grads[dense] = np.zeros((8, 3))
                d_grads[dense][rows] = values
            adam_step([sparse], s_grads, s_state, config)
            adam_step([dense], d_grads, d_state, config)
            assert s_state.live[sparse].all() == (rows == [4, 2, 3] or rows == [6, 0])
            assert sparse.value.tobytes() == dense.value.tobytes()
            for got, want in zip(s_state.dense_moments(sparse), d_state.dense_moments(dense)):
                assert got.tobytes() == want.tobytes()
        assert not s_state.dense_moments(sparse)[0][7].any()

    @pytest.mark.parametrize("rows, values_shape", [
        ([3], (1, 2)), ([-1], (1, 2)), ([1, 1], (2, 2)), ([[0, 1]], (2, 2)),
        (np.array([0.0]), (1, 2)), ([0, 1], (3, 2)), ([0], (1, 3)),
    ])
    def test_rejects_rows_outside_the_parameter(self, rows, values_shape):
        """Out-of-range, repeated or non-integer rows, and values that do
        not hold one row per index, fail before anything moves."""
        p = Parameter("p", np.ones((3, 2)))
        state = init_optimizer([p])
        with pytest.raises(ShapeMismatch, match="'?p'?"):
            adam_step([p], {p: RowGrad(rows, np.ones(values_shape))}, state,
                      self.config())
        np.testing.assert_array_equal(p.value, 1.0)
        assert not state.live[p].any()

    def test_rejects_row_values_of_another_dtype(self):
        p = Parameter("p", np.ones((3, 2)))
        p.value = p.value.astype(np.float32)
        state = init_optimizer([p])
        with pytest.raises(ShapeMismatch, match="dtype float64 for p of dtype float32"):
            adam_step([p], {p: RowGrad(np.array([1]), np.ones((1, 2)))}, state,
                      self.config())
        np.testing.assert_array_equal(p.value, 1.0)

    def test_overflowed_row_gradient_names_its_parameter(self):
        p = Parameter("embeddings.oov", np.zeros((50, 3)))
        state = init_optimizer([p])
        values = np.array([[1.0, 2.0, 3.0], [1.0, np.inf, 1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteValue, match="parameter 'embeddings.oov' after update 1"):
            adam_step([p], {p: RowGrad(np.array([4, 9]), values)}, state,
                      self.config())
        assert np.isnan(p.value[9, 1])

    def test_a_few_rows_step_in_memory_sized_to_those_rows(self):
        """Three rows of a 5,000-row table: the step allocates well under
        a tenth of the table."""
        p = Parameter("table", np.random.default_rng(2).standard_normal((5000, 64)))
        state = init_optimizer([p])
        grad = RowGrad(np.array([4000, 7, 123]), np.ones((3, 64)))
        tracemalloc.start()
        try:
            adam_step([p], {p: grad}, state, self.config())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.value.nbytes / 10
        assert np.flatnonzero(state.live[p]).tolist() == [7, 123, 4000]


class TestTrain:
    def test_loss_decreases_on_a_learnable_corpus(self):
        config = small_config(k=8, r=8, d=12, epochs=4, batch_size=4,
                              dropout_rate=0.1)
        pairs = generate_toy(0, 12)
        params, vocab, table, metrics = train(pairs, pairs, config)
        assert len(metrics) == 4
        assert metrics[-1].train_loss < metrics[0].train_loss

    def test_one_batch_equals_mean_gradient_step(self):
        """Replays the loop by hand: per-example gradients summed in
        shuffle order, averaged, and fed to one Adam step must leave the
        returned model where ``train``'s one batch tape does, up to
        rounding (1e-12 absolute): the batch's products group the pairs'
        columns, which rounds their last bits differently."""
        config = small_config()
        pairs, vocab, table, params = corpus_fixture(config)
        _, vocab2, table2, params2 = corpus_fixture(config)

        trained, _, _, metrics = train(pairs, pairs, config,
                                       vocab=vocab, table=table,
                                       initial_params=params)

        # hand replay on the second copy of the same starting point
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence(config.seed).spawn(4)[2])
        order = shuffle_rng.permutation(len(pairs))
        grad_sum, losses = {}, []
        for idx in order:
            pair = pairs[idx]
            graph = Graph()
            run = run_forward(graph, pair.premise, pair.hypothesis,
                              vocab2, table2, params2)
            loss = loss_node(graph, run.distribution, pair.gold)
            losses.append(float(loss.value[0, 0]))
            for p, g in backward(graph, loss).items():
                prev = grad_sum.get(p)
                grad_sum[p] = g if prev is None else prev + g
        optimized = params2.trainable() + [table2.trainable]
        mean = {p: g * (1.0 / len(pairs)) for p, g in grad_sum.items()}
        adam_step(optimized, mean, init_optimizer(optimized), config)

        for got, want in zip(trained.trainable(), params2.trainable()):
            np.testing.assert_allclose(got.value, want.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.trainable.value, table2.trainable.value,
                                   rtol=0, atol=1e-12)
        assert metrics[0].train_loss == pytest.approx(float(np.mean(losses)), rel=0,
                                                      abs=1e-12)

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("spare_rows", [0, 80])
    def test_row_sparse_training_equals_the_dense_replay(self, tmp_path, precision,
                                                         spare_rows):
        """`train` hands Adam the table's gradient on the rows a batch
        read; a hand replay through the public batch tape with dense
        gradients and dense Adam steps ends with the same bits in every
        parameter, the table and the epoch metrics.  One token occurs in one pair of the first batch
        only, so later steps move its row with a zero gradient; tokens
        repeat within pairs and across them, and two have pretrained
        rows.  Unread spare rows keep the tracked rows under half the
        table, so the row-gathered update runs throughout; without them
        it turns into the whole-table update partway."""
        config = small_config(epochs=3, batch_size=2, dropout_rate=0.2,
                              learning_rate=0.01, precision=precision)
        texts = [("( ( a b ) ( a c ) )", "( a d )"), ("( b ( c PRE ) )", "( e e )"),
                 ("( ( f g ) h )", "( h ( pre a ) )"), ("( c d )", "( ( b g ) f )"),
                 ("( e ( f ( g h ) ) )", "( a c )"), ("( ( d d ) d )", "( b h )"),
                 ("( a ( e f ) )", "( g c )")]
        order = np.random.default_rng(
            np.random.SeedSequence(config.seed).spawn(4)[2]).permutation(len(texts))
        first = int(order[0])
        texts[first] = (f"( solo {texts[first][0]} )", texts[first][1])
        pairs = [ExamplePair(parse_tree(p), parse_tree(h), LABELS[i % 3])
                 for i, (p, h) in enumerate(texts)]
        path = tmp_path / "vectors.txt"
        path.write_text("pre 0.1 0.2 -0.3 0.4 0.5\nh -0.2 0.1 0.0 0.3 -0.1\n")
        tokens = sorted({t for p in pairs for t in p.premise.leaves() + p.hypothesis.leaves()})
        spare = [f"spare{i}" for i in range(spare_rows)]

        def model():
            vocab, table = load_pretrained(path, dtype=config.dtype)
            register_oov(vocab, table, tokens + spare, np.random.default_rng(3))
            return vocab, table, init_parameters(config, np.random.default_rng(4))

        vocab, table, params = model()
        _, _, _, metrics = train(pairs, pairs[:4], config, vocab, table, params)

        vocab2, table2, params2 = model()
        streams = np.random.SeedSequence(config.seed).spawn(4)
        shuffle_rng, mask_rng = (np.random.default_rng(s) for s in streams[2:])
        optimized = params2.trainable() + [table2.trainable]
        state = init_optimizer(optimized)
        replayed, best, best_values = [], -1.0, None
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(pairs))
            losses = []
            for start in range(0, len(pairs), config.batch_size):
                chunk = order[start:start + config.batch_size]
                graph = Graph(config.dtype)
                run = run_batch(graph, [(pairs[i].premise, pairs[i].hypothesis)
                                        for i in chunk],
                                vocab2, table2, params2, dropout_rate=0.2, rng=mask_rng)
                loss, pair_losses = batch_loss(graph, run.distributions,
                                               [pairs[i].gold for i in chunk])
                losses += pair_losses.value[0].tolist()
                mean = backward(graph, loss)
                if epoch == 0 and start == 0:
                    assert first in chunk
                    assert mean[table2.trainable][vocab2.index["solo"]
                                                  - vocab2.frozen_count].any()
                adam_step(optimized, mean, state, config)
            train_acc, _ = evaluate(pairs, params2, config, vocab2, table2)
            dev_acc, _ = evaluate(pairs[:4], params2, config, vocab2, table2)
            replayed.append(EpochMetrics(epoch, float(np.mean(losses)), train_acc, dev_acc))
            if dev_acc > best:
                best, best_values = dev_acc, [p.value.copy() for p in optimized]
        for p, value in zip(optimized, best_values):
            p.value[...] = value

        assert metrics == replayed
        for got, want in zip(params.trainable() + [table.trainable], optimized):
            assert got.value.dtype == config.dtype
            assert got.value.tobytes() == want.value.tobytes()
        assert table.frozen.tobytes() == table2.frozen.tobytes()

    def test_train_is_its_replay_through_the_batch_tape_bit_for_bit(self):
        """Replays ``train`` by hand through the public batch forward:
        shuffle order, one ``run_batch`` tape per batch whose loss is the
        batch mean, ``gradients`` with the table's rows merged in row
        form, Adam, per-epoch evaluation and the best-dev rollback.  The
        replay ends with ``train``'s bits in every parameter, the table
        and the epoch metrics.  Dual attention, dropout and a last batch
        shorter than the rest are on; the dev set is small enough that the
        best epoch is not the last."""
        config = small_config(k=5, r=4, d=6, epochs=4, batch_size=3, dropout_rate=0.3,
                              use_dual=True, learning_rate=0.05)
        pairs, dev = generate_toy(11, 8), generate_toy(31, 3)

        def model():
            return corpus_fixture(config, n=8, seed=11)[1:]

        vocab, table, params = model()
        _, _, _, metrics = train(pairs, dev, config, vocab, table, params)

        vocab2, table2, params2 = model()
        streams = np.random.SeedSequence(config.seed).spawn(4)
        shuffle_rng, mask_rng = (np.random.default_rng(s) for s in streams[2:])
        optimized = params2.trainable() + [table2.trainable]
        state = init_optimizer(optimized)
        replayed, best, best_values = [], -1.0, None
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(pairs))
            losses = []
            for start in range(0, len(pairs), config.batch_size):
                batch = [pairs[i] for i in order[start:start + config.batch_size]]
                graph = Graph(config.dtype)
                run = run_batch(graph, [(p.premise, p.hypothesis) for p in batch],
                                vocab2, table2, params2, use_dual=True, dropout_rate=0.3,
                                rng=mask_rng)
                loss, pair_losses = batch_loss(graph, run.distributions,
                                               [p.gold for p in batch])
                losses += pair_losses.value[0].tolist()
                grads = gradients(graph, loss)
                assert type(grads[table2.trainable]) is RowGrad
                adam_step(optimized, grads, state, config)
            train_acc, _ = evaluate(pairs, params2, config, vocab2, table2)
            dev_acc, _ = evaluate(dev, params2, config, vocab2, table2)
            replayed.append(EpochMetrics(epoch, float(np.mean(losses)), train_acc, dev_acc))
            if dev_acc > best:
                best, best_values = dev_acc, [p.value.copy() for p in optimized]
        assert max(m.dev_accuracy for m in replayed) != replayed[-1].dev_accuracy
        for p, value in zip(optimized, best_values):
            p.value[...] = value

        assert metrics == replayed
        for got, want in zip(params.trainable() + [table.trainable], optimized):
            assert got.value.tobytes() == want.value.tobytes()

    def test_one_toy_batch_tape_stays_small(self):
        """One toy batch of 32 pairs (k = r = d = 32, dual attention,
        dropout 0.2): building its tape and its gradients peaks at 3.64
        MB of traced allocations, and the built tape holds 2.41 MB.  The
        peak's bound is that plus 25%; the held tape's is that plus 10%,
        which keeping each level's tanh(c) and multiplied input rows for
        the backward (2.96 MB) breaks."""
        pairs = generate_toy(0, 32)
        config = TrainConfig(k=32, r=32, d=32, use_dual=True)
        vocab, table = empty_vocabulary(32)
        register_oov(vocab, table, sorted({t for p in pairs for t in
                                           p.premise.leaves() + p.hypothesis.leaves()}),
                     np.random.default_rng(0))
        params = init_parameters(config, np.random.default_rng(1))

        def batch():
            graph = Graph()
            run = run_batch(graph, [(p.premise, p.hypothesis) for p in pairs], vocab,
                            table, params, use_dual=True, dropout_rate=0.2,
                            rng=np.random.default_rng(0))
            loss, _ = batch_loss(graph, run.distributions, [p.gold for p in pairs])
            held = tracemalloc.get_traced_memory()[0]
            gradients(graph, loss)
            return held, tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            batch()  # the first batch also fills caches that outlive it
            tracemalloc.stop()
            tracemalloc.start()
            held, peak = batch()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 3.64e6
        assert held < 1.10 * 2.41e6

    def test_same_seed_is_bit_identical(self):
        config = small_config(epochs=2, batch_size=2)
        pairs = generate_toy(1, 6)
        a, _, ta, _ = train(pairs, pairs, config)
        b, _, tb, _ = train(pairs, pairs, config)
        for pa, pb in zip(a.trainable(), b.trainable()):
            np.testing.assert_array_equal(pa.value, pb.value)
        np.testing.assert_array_equal(ta.trainable.value, tb.trainable.value)

    def test_returned_model_is_the_best_dev_epoch(self):
        config = small_config(k=6, r=6, d=8, epochs=3, batch_size=3)
        pairs = generate_toy(2, 9)
        dev = generate_toy(5, 6)
        params, vocab, table, metrics = train(pairs, dev, config)
        best = max(m.dev_accuracy for m in metrics)
        accuracy, _ = evaluate(dev, params, config, vocab, table)
        assert accuracy == best

    def test_one_example_one_step_decreases_its_loss(self):
        config = small_config(batch_size=1)
        pairs, vocab, table, params = corpus_fixture(config, n=3)
        pair = pairs[0]
        before = plain_loss(pair.premise, pair.hypothesis, vocab, table,
                            params, pair.gold)
        train([pair], [pair], config, vocab=vocab, table=table,
              initial_params=params)
        after = plain_loss(pair.premise, pair.hypothesis, vocab, table,
                           params, pair.gold)
        assert after < before

    def test_frozen_embedding_rows_survive_training(self, tmp_path):
        config = small_config(epochs=2, batch_size=2)
        pairs = generate_toy(0, 6)
        tokens = sorted({t for p in pairs
                         for t in p.premise.leaves() + p.hypothesis.leaves()})
        lines = [" ".join([t] + ["%.3f" % x for x in
                                 np.random.default_rng(1).uniform(-1, 1, config.d)])
                 for t in tokens[:4]]
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n")
        vocab, table = load_pretrained(path)
        frozen_before = table.frozen.copy()
        train(pairs, pairs, config, vocab=vocab, table=table)
        np.testing.assert_array_equal(table.frozen, frozen_before)
        assert table.trainable is not None  # the rest went through OOV rows

    def test_non_finite_value_names_epoch_and_example(self, tmp_path):
        """Every token but one has a pretrained vector, so only the pair
        holding that token reads the trainable rows; poisoning its row
        must abort on that pair."""
        config = small_config()
        pairs = generate_toy(0, 6)
        leaves = [set(p.premise.leaves() + p.hypothesis.leaves()) for p in pairs]
        token, bad = next((t, i) for i, ts in enumerate(leaves) for t in sorted(ts)
                          if sum(t in other for other in leaves) == 1)
        known = sorted(set().union(*leaves) - {token})
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"{t} 0.1 0.2 -0.1 0.3 0.05\n" for t in known))
        vocab, table = load_pretrained(path)
        register_oov(vocab, table, [token], np.random.default_rng(0))
        table.trainable.value[vocab.index[token] - vocab.frozen_count] = np.nan
        with pytest.raises(NonFiniteValue, match=f"^epoch 0, example {bad}: "):
            train(pairs, pairs, config, vocab=vocab, table=table)

    def test_non_finite_update_names_epoch_and_parameter(self, monkeypatch):
        config = small_config()
        pairs, vocab, table, params = corpus_fixture(config)
        bias = params.classifier.bias

        def overflowed(graph, loss):
            grads = gradients(graph, loss)
            grads[bias] = np.full(bias.value.shape, np.inf)
            return grads

        monkeypatch.setattr(trainer, "gradients", overflowed)
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteValue,
                match=r"^epoch 0: non-finite value in parameter 'classifier.bias'"):
            train(pairs, pairs, config, vocab, table, initial_params=params)

    def test_an_epoch_allocates_well_under_a_tenth_of_the_table(self):
        """Three short pairs over a 5,000-row trainable table, most of it
        never read: one epoch's gradients, Adam steps, evaluations and
        best-dev bookkeeping allocate no array sized to the table."""
        config = small_config(k=2, r=2, d=64, batch_size=2)
        pairs = [ExamplePair(parse_tree(p), parse_tree(h), gold) for p, h, gold in (
            ("( a ( cat sat ) )", "( a cat )", "entailment"),
            ("( the dog )", "( a ( cat ran ) )", "neutral"),
            ("( dog sat )", "( the cat )", "contradiction"))]
        vocab, table = empty_vocabulary(config.d)
        spare = [f"spare{i:04d}" for i in range(4993)]
        register_oov(vocab, table, ["a", "cat", "dog", "ran", "sat", "the"] + spare,
                     np.random.default_rng(0))
        assert table.trainable.value.shape == (5000, 64)
        params = init_parameters(config, np.random.default_rng(1))
        tracemalloc.start()
        try:
            train(pairs, pairs[:2], config, vocab, table, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.trainable.value.nbytes / 10

    def test_training_and_inference_leave_numpy_ma_unimported(self):
        """numpy.ma, which ``np.unique`` imports, adds about 1.7 MB to the
        resident set: one toy epoch, ``evaluate`` and ``predict`` in a
        fresh interpreter never import it."""
        script = "\n".join([
            "import sys",
            "from treentail.data import generate_toy",
            "from treentail.entailment import predict",
            "from treentail.trainer import TrainConfig, evaluate, train",
            "pairs = generate_toy(0, 6)",
            "config = TrainConfig(k=32, r=32, d=32, epochs=1, use_dual=True)",
            "params, vocab, table, _ = train(pairs, pairs, config)",
            "evaluate(pairs, params, config, vocab, table)",
            "predict(pairs[0].premise, pairs[0].hypothesis, vocab, table, params, True)",
            "print('numpy.ma' in sys.modules)",
        ])
        src = os.path.dirname(os.path.dirname(treentail.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"

    def test_trees_keep_no_derived_state(self):
        """Training, evaluation and both forwards build their schedules as
        they walk and keep nothing on the trees: afterwards every tree has
        no instance ``__dict__`` and equals a tree rebuilt from its nodes."""
        config = small_config(epochs=1, batch_size=2, use_dual=True)
        pairs = generate_toy(4, 5)
        params, vocab, table, _ = train(pairs, pairs, config)
        evaluate(pairs, params, config, vocab, table)
        for pair in pairs:
            predict(pair.premise, pair.hypothesis, vocab, table, params, True)
            run_forward(Graph(), pair.premise, pair.hypothesis, vocab, table, params,
                        use_dual=True)
        for tree in [t for pair in pairs for t in (pair.premise, pair.hypothesis)]:
            assert not hasattr(tree, "__dict__")
            assert tree == BinaryTree(tree.tokens, tree.lefts, tree.rights)

    def test_empty_datasets_are_rejected(self):
        config = small_config()
        pairs = generate_toy(0, 3)
        with pytest.raises(EmptyDataset):
            train([], pairs, config)
        with pytest.raises(EmptyDataset):
            train(pairs, [], config)


def random_corpus(config, leaf_counts, seed):
    """Pairs of random trees with the given leaf counts, gold labels drawn
    uniformly, and a model whose weights are 8x the training init box."""
    rng = np.random.default_rng(seed)
    words = ["cat", "dog", "sat", "ran", "the", "a"]
    pairs = [ExamplePair(*(random_tree(rng, list(rng.choice(words, n))) for n in counts),
                         gold=LABELS[int(rng.integers(3))])
             for counts in leaf_counts]
    vocab, table = empty_vocabulary(config.d, config.dtype)
    register_oov(vocab, table, words, rng)
    params = init_parameters(config, rng)
    for p in params.trainable():
        p.value *= 8
    return pairs, vocab, table, params


class TestEvaluate:
    @settings(max_examples=60, deadline=None)
    @given(leaf_counts=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                                min_size=1, max_size=40),
           chunk=st.sampled_from([1, 3, 32]),
           precision=st.sampled_from(["double", "single"]),
           use_dual=st.booleans(),
           width=st.sampled_from([3, 32]),
           seed=st.integers(0, 2**16))
    def test_chunked_distributions_match_per_pair_prediction(
            self, leaf_counts, chunk, precision, use_dual, width, seed):
        """Chunks of pairs walk their trees together; every chunk's
        distributions match the pairs' own predictions, exactly in a
        chunk of one, and evaluate counts the argmax of its own chunks."""
        config = small_config(k=width, r=width, d=width + 1,
                              precision=precision, use_dual=use_dual)
        pairs, vocab, table, params = random_corpus(config, leaf_counts, seed)
        dtype = config.dtype
        trees = [(p.premise, p.hypothesis) for p in pairs]
        single = np.array([predict(*t, vocab, table, params, use_dual=use_dual,
                                   dtype=dtype).distribution for t in trees])

        def chunked(size):
            return np.vstack([plain_distributions(trees[i:i + size], vocab, table, params,
                                                  use_dual=use_dual, dtype=dtype)
                              for i in range(0, len(trees), size)])

        dists = chunked(chunk)
        assert dists.dtype == single.dtype == dtype
        if chunk == 1:
            assert dists.tobytes() == single.tobytes()
        np.testing.assert_allclose(dists, single, rtol=0,
                                   atol=1e-12 if dtype == np.float64 else 1e-6)
        assert chunked(chunk).tobytes() == dists.tobytes()

        # Compared with evaluate's own chunking, not per-pair labels: where
        # a pair's top two probabilities tie to the last bit, a chunk may
        # round them the other way.
        expected = np.zeros((3, 3), dtype=int)
        for pair, predicted in zip(pairs, np.argmax(chunked(trainer.EVAL_CHUNK), axis=1)):
            expected[LABELS.index(pair.gold), predicted] += 1
        accuracy, confusion = evaluate(pairs, params, config, vocab, table)
        np.testing.assert_array_equal(confusion, expected)
        assert accuracy == np.trace(expected) / len(pairs)

    def test_chunks_at_benchmark_widths_round_like_single_pairs(self):
        """At k = r = 150, where BLAS groups a chunk's columns into other
        blocks than one pair's, chunked distributions stay within 1e-12."""
        config = small_config(k=150, r=150, d=300, batch_size=32, use_dual=True)
        counts = [(int(a), int(b)) for a, b in
                  np.random.default_rng(5).integers(1, 41, (40, 2))]
        pairs, vocab, table, params = random_corpus(config, counts, 5)
        trees = [(p.premise, p.hypothesis) for p in pairs]
        single = np.array([plain_forward(*t, vocab, table, params, use_dual=True)
                           for t in trees])
        dists = np.vstack([plain_distributions(trees[i:i + 32], vocab, table, params,
                                               use_dual=True)
                           for i in (0, 32)])
        np.testing.assert_allclose(dists, single, rtol=0, atol=1e-12)

    def test_zero_model_predicts_the_first_label_everywhere(self):
        config = small_config()
        pairs, vocab, table, params = corpus_fixture(config, n=6)
        for m in params.affine_maps():
            m.weight.value[...] = 0.0
            m.bias.value[...] = 0.0
        table.trainable.value[...] = 0.0
        accuracy, confusion = evaluate(pairs, params, config, vocab, table)
        gold_counts = [sum(p.gold == label for p in pairs)
                       for label in ("contradiction", "neutral", "entailment")]
        np.testing.assert_array_equal(confusion[:, 0], gold_counts)
        assert confusion[:, 1:].sum() == 0
        assert accuracy == gold_counts[0] / len(pairs)

    def test_confusion_counts_partition_the_dataset(self):
        config = small_config()
        pairs, vocab, table, params = corpus_fixture(config, n=9)
        accuracy, confusion = evaluate(pairs, params, config, vocab, table)
        assert confusion.sum() == len(pairs)
        assert accuracy == np.trace(confusion) / len(pairs)

    def test_empty_dataset_rejected(self):
        config = small_config()
        _, vocab, table, params = corpus_fixture(config)
        with pytest.raises(EmptyDataset):
            evaluate([], params, config, vocab, table)


class TestParameterCount:
    def test_reference_width_total(self):
        assert parameter_count(TrainConfig()) == 902_254

    def test_unit_widths_by_hand(self):
        config = TrainConfig(k=1, r=1, d=1)
        # meaning 5x(1+2) + bias 5 = 20; relation 5x(2+2) + bias 5 = 25;
        # scorer 1x2 + 1 = 3; classifier 3x1 + 3 = 6
        assert parameter_count(config) == 54

    def test_formula_matches_an_actual_allocation(self):
        config = small_config(k=5, r=4, d=7)
        params = init_parameters(config, np.random.default_rng(0))
        total = sum(p.value.size for p in params.trainable())
        assert total == parameter_count(config)


class TestCheckpoint:
    def saved(self, tmp_path, **overrides):
        config = small_config(**overrides)
        pairs, vocab, table, params = corpus_fixture(config)
        path = tmp_path / "model.tent"
        save_checkpoint(path, config, vocab, table, params)
        return path, config, vocab, table, params

    def test_round_trip_is_bit_identical(self, tmp_path):
        path, config, vocab, table, params = self.saved(tmp_path)
        got_config, got_vocab, got_table, got_params = load_checkpoint(path)
        assert got_config == config
        assert got_vocab.tokens == vocab.tokens
        assert got_vocab.frozen_count == vocab.frozen_count
        assert got_vocab.oov_count == vocab.oov_count
        assert got_vocab.unk_index == vocab.unk_index
        for a, b in zip(got_params.trainable(), params.trainable()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(got_table.trainable.value,
                                      table.trainable.value)
        np.testing.assert_array_equal(got_table.frozen, table.frozen)

    def test_single_precision_round_trip(self, tmp_path):
        path, config, _, table, params = self.saved(tmp_path,
                                                    precision="single")
        got_config, _, got_table, got_params = load_checkpoint(path)
        assert got_config.precision == "single"
        assert got_params.meaning.block.weight.value.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOPE!" + data[len(MAGIC):])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header_length(self, tmp_path):
        path = tmp_path / "stub.tent"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CheckpointError, match="truncated header"):
            load_checkpoint(path)

    def test_header_length_past_the_end_allocates_nothing_for_it(self, tmp_path):
        import tracemalloc

        path, *_ = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(MAGIC + struct.pack("<I", 2**31) + data[len(MAGIC) + 4:])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="unreadable header"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24  # the whole file is 6 kB; the damaged length says 2 GB

    def test_unreadable_header(self, tmp_path):
        path = tmp_path / "junk.tent"
        blob = b"\xff\xfenot json"
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path)

    def test_incomplete_header(self, tmp_path):
        path = tmp_path / "thin.tent"
        blob = b'{"labels": []}'
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="incomplete header"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        offset = len(MAGIC) + 4 + header_len
        struct.pack_into("<II", data, offset, 999, 999)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)

    def test_truncated_data(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-50])
        with pytest.raises(CheckpointError, match="truncated data"):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        import json as json_mod

        path, *_ = self.saved(tmp_path)
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        start = len(MAGIC) + 4
        header = json_mod.loads(data[start:start + header_len])
        assert header["tensors"][-1]["name"] == "embeddings.frozen"
        header["tensors"] = header["tensors"][:-1]
        blob = json_mod.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                         + data[start + header_len:])
        with pytest.raises(CheckpointError, match="embeddings.frozen"):
            load_checkpoint(path)

    def saved_with_frozen_rows(self, tmp_path, **overrides):
        """``saved``'s model, over a table with three frozen rows as well."""
        config = small_config(**overrides)
        _, corpus_vocab, _, params = corpus_fixture(config)
        frozen = ["p0", "p1", "p2"]
        vocab = Vocabulary(tokens=list(frozen), frozen_count=len(frozen),
                           index={t: i for i, t in enumerate(frozen)})
        rows = np.random.default_rng(2).uniform(-1, 1, (len(frozen), config.d))
        table = EmbeddingTable(rows.astype(config.dtype))
        register_oov(vocab, table, corpus_vocab.tokens, np.random.default_rng(3))
        path = tmp_path / "model.tent"
        save_checkpoint(path, config, vocab, table, params)
        return path, config, vocab, table, params

    @staticmethod
    def tables(table):
        return {"frozen": table.frozen, "trainable": table.trainable.value}

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_new_file_tables_are_aligned_views_of_the_file(self, tmp_path, precision):
        path, *_ = self.saved_with_frozen_rows(tmp_path, precision=precision)
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        assert (len(MAGIC) + 4 + header_len + 8) % 8 == 0  # the first scalar
        header = data[len(MAGIC) + 4:len(MAGIC) + 4 + header_len]
        assert json.loads(header) == json.loads(header.rstrip(b" "))
        for name, a in self.tables(load_checkpoint(path)[2]).items():
            assert a.flags.aligned and a.flags.c_contiguous, name
            assert not a.flags.owndata and a.flags.writeable, name

    def test_writing_into_a_loaded_table_leaves_the_file_unchanged(self, tmp_path):
        path, *_ = self.saved_with_frozen_rows(tmp_path)
        before = path.read_bytes()
        _, _, table, _ = load_checkpoint(path)
        table.trainable.value[...] = 7.0
        table.frozen[...] = 7.0
        assert path.read_bytes() == before
        for name, a in self.tables(load_checkpoint(path)[2]).items():
            assert (a != 7.0).all(), name

    def test_loading_a_20k_row_table_allocates_under_a_quarter_of_it(self, tmp_path):
        config = small_config(d=128)
        vocab, table = empty_vocabulary(config.d)
        register_oov(vocab, table, [f"w{i}" for i in range(20_000)],
                     np.random.default_rng(0))
        params = init_parameters(config, np.random.default_rng(1))
        path = tmp_path / "big.tent"
        save_checkpoint(path, config, vocab, table, params)
        tracemalloc.start()
        try:
            _, got_vocab, got_table, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got_vocab) == 20_001
        np.testing.assert_array_equal(got_table.trainable.value, table.trainable.value)
        # Copying the 20 MB table would peak above it; the vocabulary's
        # strings and index take about 2.5 MB.
        assert peak < table.trainable.value.nbytes / 4

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_unpadded_file_loads_aligned_and_predicts_bit_identically(
            self, tmp_path, precision):
        path, config, *_ = self.saved_with_frozen_rows(tmp_path, precision=precision)
        data = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        start = len(MAGIC) + 4
        # The header as a writer without padding wrote it, and if that
        # happens to align the scalars, one space more so that it does not.
        blob = json.dumps(json.loads(data[start:start + header_len]),
                          sort_keys=True).encode()
        itemsize = np.dtype(config.dtype).itemsize
        while (start + len(blob) + 8) % itemsize == 0:
            blob += b" "
        old = tmp_path / "old.tent"
        old.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                        + data[start + header_len:])
        new_model, old_model = load_checkpoint(path), load_checkpoint(old)
        for name, a in self.tables(old_model[2]).items():
            assert a.flags.aligned, name
            np.testing.assert_array_equal(a, self.tables(new_model[2])[name])
        premise = parse_tree("( ( a dog ) ( is sleeping ) )")
        hypothesis = parse_tree("( ( a cat ) ( is awake ) )")
        got = [predict(premise, hypothesis, vocab, table, params,
                       use_dual=config.use_dual, dtype=config.dtype)
               for config, vocab, table, params in (new_model, old_model)]
        assert got[0].distribution.tobytes() == got[1].distribution.tobytes()
        assert got[0].final_attention.tobytes() == got[1].final_attention.tobytes()

    def test_saving_a_loaded_model_over_its_own_file(self, tmp_path):
        path, *_ = self.saved_with_frozen_rows(tmp_path)
        config, vocab, table, params = load_checkpoint(path)
        before = {name: a.copy() for name, a in self.tables(table).items()}
        save_checkpoint(path, config, vocab, table, params)
        for name, a in self.tables(table).items():
            np.testing.assert_array_equal(a, before[name])
        _, _, got_table, got_params = load_checkpoint(path)
        for name, a in self.tables(got_table).items():
            assert a.tobytes() == before[name].tobytes(), name
        for a, b in zip(got_params.trainable(), params.trainable()):
            assert a.value.tobytes() == b.value.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.tent"]

    def test_a_failed_save_leaves_the_old_file_and_no_temporary(self, tmp_path):
        path, config, vocab, table, params = self.saved(tmp_path)
        before = path.read_bytes()
        # The frozen rows are written last, after the header and the
        # parameters, and a string does not convert to a scalar.
        table.frozen = np.full((1, config.d), "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, config, vocab, table, params)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.tent"]

    def test_a_save_gives_the_mode_that_open_for_writing_gives(self, tmp_path):
        path, config, vocab, table, params = self.saved(tmp_path)
        reference = tmp_path / "reference"
        reference.write_bytes(b"")
        assert path.stat().st_mode == reference.stat().st_mode
        path.chmod(0o640)
        save_checkpoint(path, config, vocab, table, params)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_a_save_through_a_symlink_writes_its_target(self, tmp_path):
        path, config, vocab, table, params = self.saved(tmp_path)
        link = tmp_path / "link.tent"
        link.symlink_to(path.name)
        params.classifier.bias.value[0, 0] += 1.0
        save_checkpoint(link, config, vocab, table, params)
        assert link.is_symlink()
        got = load_checkpoint(path)[3].classifier.bias.value[0, 0]
        assert got == params.classifier.bias.value[0, 0]

    def test_a_file_that_cannot_be_mapped_is_a_checkpoint_error(self, tmp_path,
                                                                monkeypatch):
        path, *_ = self.saved(tmp_path)

        def refuse(*args, **kwargs):
            raise OSError(19, "No such device")

        monkeypatch.setattr(trainer.mmap, "mmap", refuse)
        with pytest.raises(CheckpointError, match="cannot map"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """The bytes of one small saved checkpoint and a file to damage them in."""
    config = small_config()
    _, vocab, table, params = corpus_fixture(config)
    path = tmp_path_factory.mktemp("fuzz") / "model.tent"
    save_checkpoint(path, config, vocab, table, params)
    return path, path.read_bytes()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_is_a_checkpoint_error(fuzz_checkpoint, data):
    """Cut anywhere, or one byte overwritten in the header length, the
    JSON header, its config, its tensor manifest or the tensor bytes: the
    loader either reads the file or raises CheckpointError, never
    anything else."""
    path, blob = fuzz_checkpoint
    start = len(MAGIC) + 4
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    config = blob.index(b'"config": {', start)
    manifest = blob.index(b'"tensors": [', start)
    sections = {
        "header length": (len(MAGIC), start),
        "header": (start, start + header_len),
        "config": (config, blob.index(b"}", config) + 1),
        "manifest": (manifest, blob.index(b"]", manifest) + 1),
        "tensors": (start + header_len, len(blob)),
    }
    damage = data.draw(st.sampled_from(["truncate", *sections]))
    if damage == "truncate":
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        lo, hi = sections[damage]
        at = data.draw(st.integers(lo, hi - 1))
        # Digits keep a number a number, so the JSON often still parses.
        byte = data.draw(st.sampled_from(b"0123456789") | st.integers(0, 255))
        damaged = blob[:at] + bytes([byte]) + blob[at + 1:]
    path.write_bytes(damaged)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
