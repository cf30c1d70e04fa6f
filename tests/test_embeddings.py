"""Pretrained-vector loading, fallback rows, and lookup resolution."""

import numpy as np
import pytest

from treentail import composer, embeddings
from treentail.autodiff import Graph, RowGrad, backward, gradients
from treentail.embeddings import (
    CalledTwice,
    EmbeddingFileError,
    EmptyFile,
    InconsistentDimension,
    UNK_TOKEN,
    UnreadableFloat,
    embedding_node,
    empty_vocabulary,
    load_pretrained,
    lookup,
    lookup_rows,
    register_oov,
    resolve,
    trainable_rows,
)
from treentail.entailment import loss_node, run_forward
from treentail.trainer import TrainConfig, init_parameters
from treentail.trees import parse_tree

from tape_helpers import total


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadPretrained:
    def test_basic_load(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "the 0.1 0.2 0.3",
            "cat -1.0 0.0 1.0",
        ])
        vocab, table = load_pretrained(p)
        assert vocab.tokens == ["the", "cat"]
        assert vocab.frozen_count == 2
        assert table.dim == 3
        np.testing.assert_allclose(table.frozen[1], [-1.0, 0.0, 1.0])
        assert table.trainable is None

    def test_dimension_fixed_by_first_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "a 1 2 3",
            "b 1 2",
        ])
        with pytest.raises(InconsistentDimension) as err:
            load_pretrained(p)
        assert err.value.line_no == 2
        assert "line 2" in str(err.value)

    def test_unreadable_float_reports_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "a 1 2",
            "b 3 oops",
        ])
        with pytest.raises(UnreadableFloat) as err:
            load_pretrained(p)
        assert err.value.line_no == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_pretrained(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "a 1 2",
            "",
            "b 3 4",
        ])
        vocab, _ = load_pretrained(p)
        assert vocab.tokens == ["a", "b"]

    def test_duplicate_tokens_keep_first_row(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "a 1 1",
            "a 9 9",
        ])
        _, table = load_pretrained(p)
        assert table.frozen.shape == (1, 2)
        np.testing.assert_array_equal(table.frozen[0], [1.0, 1.0])

    def test_restrict_to_filters_rows(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "a 1 1", "b 2 2", "c 3 3",
        ])
        vocab, table = load_pretrained(p, restrict_to={"a", "c"})
        assert vocab.tokens == ["a", "c"]
        np.testing.assert_array_equal(table.frozen, [[1, 1], [3, 3]])

    def test_restricted_lines_still_shape_checked(self, tmp_path):
        # A filtered-out line with the wrong width is still an error:
        # the file is malformed whether or not we keep the row.
        p = write_vectors(tmp_path / "v.txt", [
            "a 1 1",
            "skipme 1 2 3",
        ])
        with pytest.raises(InconsistentDimension):
            load_pretrained(p, restrict_to={"a"})

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"\xef\xbb\xbfdog 0.5 -0.5\ncat 1.0 2.0\n")
        vocab, table = load_pretrained(str(p))
        assert vocab.tokens == ["dog", "cat"]
        register_oov(vocab, table, ["dog", "cat", "bird"], np.random.default_rng(0))
        assert resolve(vocab, "dog") == 0
        np.testing.assert_array_equal(lookup(vocab, table, "dog"), [0.5, -0.5])

    def test_fields_split_on_ascii_whitespace_only(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "a\u00a0b 0.1 0.2",
            "c\u2003d\t0.3\x0b0.4\r",
        ])
        vocab, table = load_pretrained(p)
        assert vocab.tokens == ["a\u00a0b", "c\u2003d"]
        assert table.dim == 2
        np.testing.assert_array_equal(table.frozen, [[0.1, 0.2], [0.3, 0.4]])

    def test_errors_are_value_errors(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(EmbeddingFileError):
            load_pretrained(str(p))
        with pytest.raises(ValueError):
            load_pretrained(str(p))


class TestRegisterOov:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def loaded(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "the 0.5 0.5",
            "cat 0.25 0.75",
        ])
        return load_pretrained(p)

    def test_adds_fallback_plus_missing_sorted(self, tmp_path):
        vocab, table = self.loaded(tmp_path)
        register_oov(vocab, table, ["zebra", "cat", "aardvark"], self.rng)
        assert vocab.tokens[2:] == [UNK_TOKEN, "aardvark", "zebra"]
        assert vocab.oov_count == 3
        assert table.trainable.value.shape == (3, 2)
        assert np.abs(table.trainable.value).max() <= 0.05

    def test_lowercase_reachable_tokens_not_duplicated(self, tmp_path):
        vocab, table = self.loaded(tmp_path)
        register_oov(vocab, table, ["The", "CAT", "dog"], self.rng)
        # "The" and "CAT" fold onto pretrained rows; only "dog" is new.
        assert vocab.tokens[2:] == [UNK_TOKEN, "dog"]

    def test_corpus_unk_resolves_to_the_fallback_row(self, tmp_path):
        vocab, table = self.loaded(tmp_path)
        register_oov(vocab, table, [UNK_TOKEN, "dog"], self.rng)
        assert vocab.tokens[2:] == [UNK_TOKEN, "dog"]
        assert resolve(vocab, UNK_TOKEN) == vocab.unk_index

    def test_second_call_refused(self, tmp_path):
        vocab, table = self.loaded(tmp_path)
        register_oov(vocab, table, ["dog"], self.rng)
        with pytest.raises(CalledTwice):
            register_oov(vocab, table, ["bird"], self.rng)

    def test_registration_is_reproducible(self, tmp_path):
        v1, t1 = self.loaded(tmp_path)
        v2, t2 = self.loaded(tmp_path)
        register_oov(v1, t1, ["b", "a"], np.random.default_rng(42))
        register_oov(v2, t2, ["a", "b"], np.random.default_rng(42))
        assert v1.tokens == v2.tokens
        np.testing.assert_array_equal(t1.trainable.value, t2.trainable.value)

    def test_empty_vocabulary_path(self):
        vocab, table = empty_vocabulary(4)
        register_oov(vocab, table, ["x", "y"], self.rng)
        assert vocab.frozen_count == 0
        assert len(vocab) == 3
        assert table.trainable.value.shape == (3, 4)


class TestResolveAndLookup:
    @pytest.fixture
    def model(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "the 1 0",
            "cat 0 1",
        ])
        vocab, table = load_pretrained(p)
        register_oov(vocab, table, ["dog"], np.random.default_rng(1))
        return vocab, table

    def test_exact_match_wins(self, model):
        vocab, table = model
        np.testing.assert_array_equal(lookup(vocab, table, "the"), [1.0, 0.0])

    def test_lowercase_fallback(self, model):
        vocab, table = model
        np.testing.assert_array_equal(lookup(vocab, table, "The"), [1.0, 0.0])
        np.testing.assert_array_equal(lookup(vocab, table, "CAT"), [0.0, 1.0])

    def test_unknown_goes_to_fallback_row(self, model):
        vocab, table = model
        assert resolve(vocab, "xylophone") == vocab.unk_index
        np.testing.assert_array_equal(
            lookup(vocab, table, "xylophone"), table.trainable.value[0]
        )

    def test_registered_token_uses_its_own_row(self, model):
        vocab, table = model
        np.testing.assert_array_equal(
            lookup(vocab, table, "dog"), table.trainable.value[1]
        )

    def test_no_fallback_registered_raises(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", ["a 1 2"])
        vocab, table = load_pretrained(p)
        with pytest.raises(KeyError):
            resolve(vocab, "b")

    def test_trainable_rows_count_from_the_first_trainable_row(self, model):
        vocab, _ = model
        rows = trainable_rows(vocab, ["dog", "the", "xylophone", "CAT", "dog"])
        assert rows.tolist() == [1, -2, 0, -1, 1]

    def test_rows_are_the_per_token_lookups_side_by_side(self, model):
        vocab, table = model
        tokens = ["dog", "the", "xylophone", "CAT", "dog", "The"]
        rows = lookup_rows(vocab, table, tokens)
        expected = np.stack([lookup(vocab, table, t) for t in tokens], axis=1)
        assert rows.tobytes() == expected.tobytes()
        assert rows.shape == (2, 6) and rows.flags["C_CONTIGUOUS"]
        frozen_only = lookup_rows(vocab, table, ["cat", "the"])
        np.testing.assert_array_equal(frozen_only, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("tokens", [["dog", "the", "xylophone", "CAT", "dog"],
                                        ["dog", "xylophone"], ["cat", "the"]])
    def test_a_stack_of_tables_reads_each_table_in_turn(self, model, tokens):
        """A ``(S, R, d)`` stack in place of the trainable table gives the
        ``(S, d, m)`` stack of each table's reads; tokens that resolve to
        pretrained rows alone give the one unstacked read."""
        vocab, table = model
        saved = table.trainable.value.copy()
        stack = saved + np.arange(3.0)[:, None, None]
        rows = lookup_rows(vocab, table, tokens, stack)
        for copy, got in zip(stack, np.broadcast_to(rows, (3,) + rows.shape[-2:])):
            table.trainable.value[...] = copy
            try:
                np.testing.assert_array_equal(got, lookup_rows(vocab, table, tokens))
            finally:
                table.trainable.value[...] = saved
        assert rows.ndim == (2 if tokens == ["cat", "the"] else 3)
        assert rows.flags["C_CONTIGUOUS"]


def _sliced_leaves(graph, vocab, table, tokens):
    """``embedding_node``'s value with each trainable row read by its own
    ``slice_rows``, so the table's gradient is a dense sum of one-row
    parts; the reverse walk meets them last token first."""
    columns = []
    for i in trainable_rows(vocab, tokens).tolist():
        if i >= 0:
            row = graph.slice_rows(graph.parameter(table.trainable), i, i + 1)
            columns.append(graph.transpose(row))
        else:
            columns.append(graph.constant(table.frozen[[i + vocab.frozen_count]].T))
    return graph.stack_columns(columns)


class TestEmbeddingNodes:
    def make(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", [
            "frozen 0.3 0.6",
        ])
        vocab, table = load_pretrained(p)
        register_oov(vocab, table, ["new"], np.random.default_rng(5))
        return vocab, table

    def test_pretrained_row_is_a_constant(self, tmp_path):
        vocab, table = self.make(tmp_path)
        g = Graph()
        node = embedding_node(g, vocab, table, ["frozen", "Frozen"])
        np.testing.assert_array_equal(node.value, [[0.3, 0.3], [0.6, 0.6]])
        assert node.parents == () and node.op == "take_row"

        loss = total(g, node)
        assert backward(g, loss) == {}

    def test_each_token_is_resolved_once(self, tmp_path, monkeypatch):
        vocab, table = self.make(tmp_path)
        calls = []

        def counted(vocab, token):
            calls.append(token)
            return resolve(vocab, token)

        monkeypatch.setattr(embeddings, "resolve", counted)
        embedding_node(Graph(), vocab, table, ["new", "frozen", "new", "other"])
        assert calls == ["new", "frozen", "new", "other"]

    def test_trainable_rows_read_are_the_row_gradients_rows(self, tmp_path):
        vocab, table = self.make(tmp_path)
        g = Graph()
        reads = [total(g, embedding_node(g, vocab, table, tokens))
                 for tokens in (["new", "frozen", "new"], ["frozen"])]
        assert gradients(g, total(g, g.concat(reads)))[table.trainable].rows.tolist() == [1]
        reads.append(total(g, embedding_node(g, vocab, table, ["other", "new"])))
        assert gradients(g, total(g, g.concat(reads)))[table.trainable].rows.tolist() == [0, 1]

    def test_oov_row_gets_gradient_only_on_its_row(self, tmp_path):
        vocab, table = self.make(tmp_path)
        g = Graph()
        node = embedding_node(g, vocab, table, ["new", "frozen", "new"])
        np.testing.assert_array_equal(node.value[:, 1], [0.3, 0.6])
        np.testing.assert_array_equal(node.value[:, 0], table.trainable.value[1])
        grads = backward(g, total(g, node))
        grad = grads[table.trainable]
        assert grad.shape == table.trainable.value.shape
        np.testing.assert_array_equal(grad[0], 0.0)   # fallback row untouched
        np.testing.assert_array_equal(grad[1], 2.0)   # read twice, d(sum)/d(row) = 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_table_gradient_rows_are_the_dense_gradient_bit_for_bit(self, tmp_path,
                                                                     monkeypatch, dtype):
        """A pair whose trees repeat a token, share one and mix pretrained
        and trainable leaves: the table's gradient comes in row form, on
        the rows the leaves read, and scattered into zeros it has the bits
        of a dense sum that never passes through ``sum_rows``, from leaves
        that read each trainable row with its own ``slice_rows``.  That is
        also what ``backward`` returns."""
        p = write_vectors(tmp_path / "v.txt", ["frozen 0.3 0.6", "the -0.2 0.1"])
        vocab, table = load_pretrained(p, dtype=dtype)
        register_oov(vocab, table, ["cat", "dog", "new", "sat"], np.random.default_rng(5))
        params = init_parameters(TrainConfig(k=3, r=2, d=2, precision=(
            "double" if dtype == np.float64 else "single")), np.random.default_rng(6))

        def table_gradients():
            g = Graph(dtype)
            run = run_forward(g, parse_tree("( ( new ( frozen new ) ) ( cat the ) )"),
                              parse_tree("( ( the new ) ( dog zebra ) )"), vocab, table,
                              params, use_dual=True)
            loss = loss_node(g, run.distribution, "contradiction")
            return gradients(g, loss)[table.trainable], backward(g, loss)[table.trainable]

        sparse, dense = table_gradients()
        monkeypatch.setattr(composer, "embedding_node", _sliced_leaves)
        reference, _ = table_gradients()

        assert type(sparse) is RowGrad and type(reference) is np.ndarray
        assert [vocab.tokens[vocab.frozen_count + i] for i in sparse.rows] == [
            "<unk>", "cat", "dog", "new"]
        assert sparse.values.dtype == dtype
        scattered = np.zeros(table.trainable.value.shape, dtype)
        scattered[sparse.rows] = sparse.values
        assert reference.dtype == dense.dtype == dtype
        assert scattered.tobytes() == reference.tobytes() == dense.tobytes()
        assert np.all(sparse.values != 0.0)

    def test_frozen_rows_survive_training_updates(self, tmp_path):
        """Frozen storage is a plain array: nothing that takes gradients
        can alias it, so one optimizer step cannot move pretrained rows."""
        from treentail.trainer import adam_step, init_optimizer, TrainConfig

        vocab, table = self.make(tmp_path)
        before = table.frozen.copy()
        config = TrainConfig(k=2, r=2, d=2)
        state = init_optimizer([table.trainable])
        grads = {table.trainable: np.ones_like(table.trainable.value)}
        adam_step([table.trainable], grads, state, config)
        np.testing.assert_array_equal(table.frozen, before)
        assert not np.array_equal(table.trainable.value,
                                  np.zeros_like(table.trainable.value))
