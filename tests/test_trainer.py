"""Initialization, Adam, the training loop, evaluation, the closed-form
parameter count, and the checkpoint container."""

import struct

import numpy as np
import pytest

from treentail.autodiff import Graph, NonFiniteValue, Parameter, ShapeMismatch, backward
from treentail.composer import dropout
from treentail.data import generate_toy
from treentail.embeddings import empty_vocabulary, load_pretrained, register_oov
from treentail.entailment import loss_node, plain_loss, run_forward
from treentail.trainer import (
    MAGIC,
    CheckpointError,
    EmptyDataset,
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
        dict(beta1=1.0), dict(beta2=0.0),
        dict(dropout_rate=1.0), dict(dropout_rate=-0.1),
        dict(batch_size=0), dict(epochs=-1),
        dict(precision="half"),
    ])
    def test_rejects_bad_settings(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_single_precision_dtype(self):
        assert TrainConfig(precision="single").dtype is np.float32


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
        assert params.reverse_scorer is None

    def test_separate_reverse_scorer_is_allocated_on_request(self):
        config = small_config(separate_reverse_scorer=True)
        params = init_parameters(config, np.random.default_rng(2))
        assert params.reverse_scorer is not None
        assert params.reverse_scorer.weight.value.shape == (1, 8)
        assert not np.array_equal(params.reverse_scorer.weight.value,
                                  params.scorer.weight.value)

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

    def test_rejects_misshapen_gradient(self):
        p = Parameter("p", np.zeros((2, 2)))
        state = init_optimizer([p])
        with pytest.raises(ShapeMismatch):
            adam_step([p], {p: np.zeros((3, 3))}, state, self.config())


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
        returned model bit-identical."""
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
            np.testing.assert_array_equal(got.value, want.value)
        np.testing.assert_array_equal(table.trainable.value,
                                      table2.trainable.value)
        assert metrics[0].train_loss == float(np.mean(losses))

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

    def test_empty_datasets_are_rejected(self):
        config = small_config()
        pairs = generate_toy(0, 3)
        with pytest.raises(EmptyDataset):
            train([], pairs, config)
        with pytest.raises(EmptyDataset):
            train(pairs, [], config)


class TestEvaluate:
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
        assert parameter_count(config, shared_reverse_scorer=False) == 57

    @pytest.mark.parametrize("separate", [False, True])
    def test_formula_matches_an_actual_allocation(self, separate):
        config = small_config(k=5, r=4, d=7, separate_reverse_scorer=separate)
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

    def test_separate_reverse_scorer_round_trips(self, tmp_path):
        path, _, _, _, params = self.saved(tmp_path,
                                           separate_reverse_scorer=True)
        _, _, _, got = load_checkpoint(path)
        assert got.reverse_scorer is not None
        np.testing.assert_array_equal(got.reverse_scorer.weight.value,
                                      params.reverse_scorer.weight.value)

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
