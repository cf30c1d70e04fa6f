"""End-to-end command walkthrough, exit-code taxonomy, and output files.

Everything runs in-process through main(argv) so coverage and debuggers
see straight through, and a shared tiny checkpoint keeps it quick.
"""

import json
import struct

import numpy as np
import pytest

from treentail.autodiff import Graph
from treentail.cli import _config_from_args, build_parser, main
from treentail.data import load_snli
from treentail.entailment import LABELS, run_forward
from treentail.inspection import read_pgm
from treentail import trainer
from treentail.trainer import MAGIC, TrainConfig, load_checkpoint, save_checkpoint
from treentail.trees import parse_tree

TRAIN_FLAGS = ["--k", "6", "--r", "5", "--d", "8", "--epochs", "2",
               "--batch-size", "8", "--dropout", "0.1", "--seed", "3"]

# Deeper than the recursive tree parser can follow.
DEEP_TREE = "( " * 1200 + "a" + " dog )" * 1200


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Toy corpus plus one trained checkpoint, shared by the read-only
    command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "toy.jsonl"
    assert main(["toydata", "--out", str(corpus), "--n", "30",
                 "--seed", "1"]) == 0
    assert main(["train", "--data", str(corpus), "--out", str(root / "run"),
                 *TRAIN_FLAGS]) == 0
    return root


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unparseable_flag_value(self, capsys):
        assert main(["train", "--data", "x", "--out", "y",
                     "--epochs", "soon"]) == 1

    def test_flag_that_survives_argparse_but_fails_validation(self, capsys):
        code = main(["train", "--data", "x", "--out", "y",
                     "--dropout", "1.0"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_train_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", "--data", "x", "--out", "y"])
        assert _config_from_args(args) == TrainConfig()

    def test_train_help_shows_the_config_defaults(self, capsys):
        assert main(["train", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"Adam learning rate (default: {TrainConfig.learning_rate})" in help_text

    def test_train_help_shows_no_default_of_none(self, capsys):
        assert main(["train", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in help_text
        for line in ("--data DATA training JSONL file --dev",
                     "--dev DEV dev JSONL file; --data if not given --out",
                     "--out OUT output directory --embeddings",
                     "pretrained vector text file --epochs",
                     f"passes over the training set (default: {TrainConfig.epochs})",
                     f"seed of every random draw (default: {TrainConfig.seed})",
                     f"examples per Adam step (default: {TrainConfig.batch_size})",
                     f"leaf dropout rate (default: {TrainConfig.dropout_rate})",
                     f"meaning-composer width (default: {TrainConfig.k})",
                     f"relation-composer width (default: {TrainConfig.r})",
                     "two-way attention (default: off)",
                     "floating-point width (default: f64)"):
            assert line in help_text

    def test_word_width_names_both_defaults_and_rejects_zero(self, tmp_path, capsys):
        assert main(["train", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("word vector width; if not given, the vectors' width with "
                f"--embeddings, else {TrainConfig.d} --dual") in help_text
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("a 0.1 0.2\n")
        for extra in ([], ["--embeddings", str(vectors)]):
            assert main(["train", "--data", "x", "--out", str(tmp_path / "run"),
                         "--d", "0", *extra]) == 1
            assert "d must be an integer of at least 1" in capsys.readouterr().err


class TestToydata:
    def test_writes_loadable_corpus(self, tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        assert main(["toydata", "--out", str(out), "--n", "9",
                     "--seed", "2"]) == 0
        assert "wrote 9 pairs" in capsys.readouterr().out
        pairs, skipped = load_snli(out)
        assert len(pairs) == 9 and skipped == 0

    def test_records_carry_only_the_snli_fields(self, tmp_path):
        out = tmp_path / "pairs.jsonl"
        main(["toydata", "--out", str(out), "--n", "3", "--seed", "0"])
        record = json.loads(out.read_text().splitlines()[0])
        assert set(record) == {"gold_label", "sentence1_binary_parse",
                               "sentence2_binary_parse"}


class TestTrain:
    def test_outputs_exist_and_report_epochs(self, workdir, capsys):
        run = workdir / "run"
        assert (run / "checkpoint.tent").exists()
        lines = (run / "metrics.tsv").read_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\ttrain_accuracy\tdev_accuracy"
        assert len(lines) == 3  # header + 2 epochs

    def test_checkpoint_records_the_flags(self, workdir):
        config, vocab, _, _ = load_checkpoint(workdir / "run" / "checkpoint.tent")
        assert (config.k, config.r, config.d) == (6, 5, 8)
        assert config.seed == 3
        assert len(vocab) > 0

    def test_same_seed_reruns_are_byte_identical(self, workdir):
        corpus = workdir / "toy.jsonl"
        for name in ("rerun_a", "rerun_b"):
            assert main(["train", "--data", str(corpus),
                         "--out", str(workdir / name), *TRAIN_FLAGS]) == 0
        a, b = workdir / "rerun_a", workdir / "rerun_b"
        assert (a / "checkpoint.tent").read_bytes() == \
            (b / "checkpoint.tent").read_bytes()
        assert (a / "metrics.tsv").read_text() == (b / "metrics.tsv").read_text()

    def test_missing_corpus_is_a_data_error(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_malformed_corpus_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"gold_label": "neutral"}\n')
        assert main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "run")]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("pretrained", [False, True],
                             ids=["no_embeddings", "embeddings_with_unk"])
    def test_corpus_with_unk_leaf_trains_a_loadable_checkpoint(
            self, tmp_path, capsys, pretrained):
        corpus = tmp_path / "unk.jsonl"
        corpus.write_text("".join(
            json.dumps({"gold_label": label,
                        "sentence1_binary_parse": "( ( a <unk> ) ( is sleeping ) )",
                        "sentence2_binary_parse": f"( ( a {animal} ) ( is <UNK> ) )"})
            + "\n" for label, animal in [("entailment", "dog"), ("neutral", "cat"),
                                         ("contradiction", "<unk>")]))
        flags = []
        if pretrained:
            vectors = tmp_path / "vectors.txt"
            vectors.write_text("".join(f"{t} " + " ".join(["0.1"] * 8) + "\n"
                                       for t in ["a", "<unk>", "dog"]))
            flags = ["--embeddings", str(vectors)]
        assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "run"),
                     *TRAIN_FLAGS, *flags]) == 0
        ckpt = tmp_path / "run" / "checkpoint.tent"
        _, vocab, _, _ = load_checkpoint(ckpt)
        assert vocab.index["<unk>"] == vocab.unk_index
        assert main(["predict", "--checkpoint", str(ckpt),
                     "( ( a <unk> ) ( is sleeping ) )", "( a cat )"]) == 0

    def test_width_comes_from_the_vectors_unless_given(self, tmp_path, capsys):
        corpus = tmp_path / "toy.jsonl"
        main(["toydata", "--out", str(corpus), "--n", "6", "--seed", "0"])
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("a 0.1 0.2 0.3\ndog 0.3 0.2 0.1\n")
        small = ["--k", "3", "--r", "3", "--epochs", "1"]
        assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "run"),
                     "--embeddings", str(vectors), *small]) == 0
        config, _, _, _ = load_checkpoint(tmp_path / "run" / "checkpoint.tent")
        assert config.d == 3

        out = tmp_path / "mismatch"
        assert main(["train", "--data", str(corpus), "--out", str(out),
                     "--embeddings", str(vectors), "--d", "50", *small]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "50" in err and "3-wide" in err
        assert not out.exists()

    def test_too_deep_corpus_tree_is_a_data_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text(json.dumps({"gold_label": "neutral",
                                    "sentence1_binary_parse": "( a dog )",
                                    "sentence2_binary_parse": DEEP_TREE}) + "\n")
        assert main(["train", "--data", str(deep),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("train", "--data"), ("train", "--dev"), ("train", "--embeddings"),
    ("eval", "--data")], ids=["train_data", "train_dev", "train_embeddings", "eval_data"])
def test_input_that_is_not_utf8_is_a_data_error(workdir, tmp_path, capsys,
                                                command, flag):
    bad = tmp_path / "latin1.txt"
    if flag == "--embeddings":
        bad.write_bytes(b"a 0.1 0.2\ncaf\xe9 0.3 0.4\n")
    else:
        bad.write_bytes(b'{"gold_label": "neutral", "sentence1_binary_parse": '
                        b'"( a caf\xe9 )", "sentence2_binary_parse": "a"}\n')
    corpus = str(workdir / "toy.jsonl")
    if command == "train":
        inputs = {"--data": corpus, flag: str(bad)}
        argv = ["train", "--out", str(tmp_path / "run"), *sum(inputs.items(), ()),
                "--k", "2", "--r", "2", "--d", "2", "--epochs", "1"]
    else:
        argv = ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                "--data", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err


def tape_forward(checkpoint, premise, hypothesis):
    """The training tape's view of one pair, as an independent reference
    for what the commands print."""
    config, vocab, table, params = load_checkpoint(checkpoint)
    return run_forward(Graph(config.dtype), parse_tree(premise), parse_tree(hypothesis),
                       vocab, table, params, use_dual=config.use_dual)


class TestEval:
    def test_reports_accuracy_and_confusion(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                     "--data", str(workdir / "toy.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "(30 pairs)" in out
        assert "contradiction" in out and "entailment" in out

    def test_missing_checkpoint_is_a_data_error(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.tent"),
                     "--data", str(tmp_path / "no.jsonl")]) == 2

    def test_non_finite_parameters_are_a_numeric_failure(self, workdir, tmp_path,
                                                         capsys):
        config, vocab, table, params = load_checkpoint(
            str(workdir / "run" / "checkpoint.tent"))
        params.classifier.bias.value[0, 0] = np.nan
        bad = tmp_path / "nan.tent"
        save_checkpoint(str(bad), config, vocab, table, params)
        assert main(["eval", "--checkpoint", str(bad),
                     "--data", str(workdir / "toy.jsonl")]) == 3
        assert "numeric failure" in capsys.readouterr().err


def _extra_token(header):
    header["vocabulary"]["tokens"].append("extra")


def _miscounted_rows(header):
    header["vocabulary"]["frozen_count"] += 1
    header["vocabulary"]["oov_count"] -= 1


def _unk_out_of_range(header):
    header["vocabulary"]["unk_index"] = len(header["vocabulary"]["tokens"])


def _wrong_width(header):
    header["config"]["k"] += 1


def _entry_without_name(header):
    del header["tensors"][0]["name"]


def _entry_without_cols(header):
    del header["tensors"][-1]["cols"]


def _entry_not_a_dict(header):
    header["tensors"][0] = header["tensors"][0]["name"]


def _dropout_out_of_range(header):
    header["config"]["dropout_rate"] = 1.5


def _junk_tensor(header):
    header["tensors"].append({"name": "junk.weight", "rows": 2, "cols": 2})


JUNK_BYTES = struct.pack("<II", 2, 2) + np.zeros((2, 2)).tobytes()


def _dropout_as_false(header):
    header["config"]["dropout_rate"] = False


def _float_width(header):
    header["config"]["k"] = float(header["config"]["k"])


def _dual_as_text(header):
    header["config"]["use_dual"] = "false"


def _huge_width(header):
    header["config"]["k"] = 10**6


def _reversed_labels(header):
    header["labels"].reverse()


def _precision_mismatch(header):
    header["precision"] = "single"


def _repeated_token(header):
    tokens = header["vocabulary"]["tokens"]
    tokens[-1] = tokens[-2]


def _non_string_token(header):
    header["vocabulary"]["tokens"][-1] = 7


def _fallback_name_repeated(header):
    # A corpus <unk> row after the fallback row, as register_oov once wrote.
    header["vocabulary"]["tokens"][-1] = "<unk>"


def _no_fallback_row(header):
    header["vocabulary"]["unk_index"] = None


def _dual_on(header):
    header["config"]["use_dual"] = True


def _legacy_reverse_scorer_off(header):
    # What every checkpoint written while the option existed carries.
    header["config"]["separate_reverse_scorer"] = False


def _legacy_reverse_scorer_on(header):
    header["config"]["separate_reverse_scorer"] = True


def _rewrite_checkpoint(workdir, out, edit, tail=b""):
    """Copy of the shared checkpoint with its JSON header passed through
    ``edit`` and ``tail`` appended."""
    data = (workdir / "run" / "checkpoint.tent").read_bytes()
    start = len(MAGIC) + 4
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    header = json.loads(data[start:start + header_len])
    if edit is not None:
        edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                    + data[start + header_len:] + tail)
    return out


class TestPredict:
    def test_prints_label_and_distribution(self, workdir, capsys):
        assert main(["predict",
                     "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                     "( ( a dog ) ( is sleeping ) )",
                     "( ( a animal ) ( is sleeping ) )"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] in ("contradiction", "neutral", "entailment")
        probs = [float(l.split(":")[1]) for l in lines[1:4]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("edit", [None, _dual_on, _legacy_reverse_scorer_off,
                                      _fallback_name_repeated],
                             ids=["as_trained", "dual_on", "legacy_header",
                                  "fallback_name_repeated"])
    def test_printed_prediction_matches_the_tape(self, workdir, tmp_path, capsys,
                                                 edit):
        ckpt = _rewrite_checkpoint(workdir, tmp_path / "model.tent", edit)
        premise, hypothesis = "( ( a dog ) ( is sleeping ) )", "( a ( happy dog ) )"
        assert main(["predict", "--checkpoint", str(ckpt), premise, hypothesis]) == 0
        lines = capsys.readouterr().out.splitlines()
        dist = tape_forward(ckpt, premise, hypothesis).distribution.value[:, 0]
        assert lines[0] == LABELS[int(np.argmax(dist))]
        assert [l.split(":")[0].strip() for l in lines[1:]] == list(LABELS)
        printed = [float(l.split(":")[1]) for l in lines[1:]]
        np.testing.assert_allclose(printed, dist, rtol=0, atol=5e-7)

    def test_bad_tree_string_is_a_data_error(self, workdir, capsys):
        assert main(["predict",
                     "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                     "( a ( b c )", "d"]) == 2

    @pytest.mark.parametrize("edit, tail", [
        (_extra_token, b""),
        (_miscounted_rows, b""),
        (_unk_out_of_range, b""),
        (_wrong_width, b""),
        (None, b"\x00"),
        (_entry_without_name, b""),
        (_entry_without_cols, b""),
        (_entry_not_a_dict, b""),
        (_dropout_out_of_range, b""),
        (_legacy_reverse_scorer_on, b""),
        (_junk_tensor, JUNK_BYTES),
        (_float_width, b""),
        (_huge_width, b""),
        (_reversed_labels, b""),
        (_precision_mismatch, b""),
        (_repeated_token, b""),
        (_non_string_token, b""),
        (_dual_as_text, b""),
        (_dropout_as_false, b""),
    ], ids=["extra_token", "miscounted_rows", "unk_out_of_range",
            "wrong_width", "trailing_bytes", "entry_without_name",
            "entry_without_cols", "entry_not_a_dict", "dropout_out_of_range",
            "separate_reverse_scorer", "junk_tensor", "float_width",
            "huge_width", "reversed_labels", "precision_mismatch",
            "repeated_token", "non_string_token", "dual_as_text",
            "dropout_as_false"])
    def test_inconsistent_checkpoint_is_a_data_error(self, workdir, tmp_path,
                                                     capsys, edit, tail):
        bad = _rewrite_checkpoint(workdir, tmp_path / "bad.tent", edit, tail)
        assert main(["predict", "--checkpoint", str(bad),
                     "( ( a dog ) ( is sleeping ) )",
                     "( ( a animal ) ( is sleeping ) )"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_header_with_adam_constants_predicts_as_without(self, workdir, tmp_path,
                                                           capsys):
        """Files written while Adam's constants were settings carry them,
        whatever their value; the loader drops them."""

        def with_constants(header):
            header["config"].update(beta1=0.9, beta2=0.999, adam_epsilon=0.0)

        plain = workdir / "run" / "checkpoint.tent"
        legacy = _rewrite_checkpoint(workdir, tmp_path / "legacy.tent", with_constants)
        pair = ["( ( a dog ) ( is sleeping ) )", "( a ( happy dog ) )"]
        outputs = []
        for ckpt in (plain, legacy):
            assert main(["predict", "--checkpoint", str(ckpt), *pair]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert load_checkpoint(legacy)[0] == load_checkpoint(plain)[0]

    def test_unknown_token_without_fallback_row_is_a_data_error(
            self, workdir, tmp_path, capsys):
        ckpt = _rewrite_checkpoint(workdir, tmp_path / "nounk.tent", _no_fallback_row)
        known = ["( ( a dog ) ( is sleeping ) )", "( ( a animal ) ( is sleeping ) )"]
        assert main(["predict", "--checkpoint", str(ckpt), *known]) == 0
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(ckpt), known[0],
                     "( a zebra )"]) == 2
        err = capsys.readouterr().err
        assert err == "error: token 'zebra' unknown and no fallback row registered\n"

    def test_too_deep_tree_is_a_data_error(self, workdir, capsys):
        assert main(["predict",
                     "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                     DEEP_TREE, "( a dog )"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestInspect:
    def test_writes_record_and_heatmap_per_pair(self, workdir, tmp_path, capsys):
        small = tmp_path / "two.jsonl"
        small.write_text(
            "\n".join(json.dumps({
                "gold_label": "neutral",
                "sentence1_binary_parse": "( ( a dog ) ( is sleeping ) )",
                "sentence2_binary_parse": "( a ( happy dog ) )",
            }) for _ in range(2)) + "\n")
        out = tmp_path / "insp"
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                     "--data", str(small), "--out", str(out)]) == 0
        assert "wrote 2 records" in capsys.readouterr().out

        text = (out / "pair_0000.txt").read_text()
        assert text.startswith("treentail-inspection 1\n")
        # hypothesis has 5 nodes, premise 7: heatmap is |Q| x |P|
        pixels = read_pgm(out / "pair_0000.pgm")
        assert pixels.shape == (5, 7)

        lines = text.splitlines()
        run = tape_forward(workdir / "run" / "checkpoint.tent",
                           "( ( a dog ) ( is sleeping ) )", "( a ( happy dog ) )")
        dist = next(l for l in lines if l.startswith("distribution: "))
        np.testing.assert_allclose([float(x) for x in dist.split()[1:]],
                                   run.distribution.value[:, 0], rtol=0, atol=5e-10)
        start = lines.index("attention-final: 5x7") + 1
        final = [[float(x) for x in row.split()] for row in lines[start:start + 5]]
        np.testing.assert_allclose(final, run.final_attention, rtol=0, atol=5e-10)

    def test_unknown_token_without_fallback_row_is_a_data_error(
            self, workdir, tmp_path, capsys):
        ckpt = _rewrite_checkpoint(workdir, tmp_path / "nounk.tent", _no_fallback_row)
        pairs = tmp_path / "zebra.jsonl"
        pairs.write_text(json.dumps({
            "gold_label": "neutral",
            "sentence1_binary_parse": "( ( a dog ) ( is sleeping ) )",
            "sentence2_binary_parse": "( a zebra )",
        }) + "\n")
        assert main(["inspect", "--checkpoint", str(ckpt), "--data", str(pairs),
                     "--out", str(tmp_path / "insp")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: token 'zebra' unknown") and "Traceback" not in err

    def test_empty_corpus_is_a_data_error(self, workdir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "checkpoint.tent"),
                     "--data", str(empty), "--out", str(tmp_path / "x")]) == 2


class TestGradcheck:
    def test_small_audit_passes(self, capsys):
        assert main(["gradcheck", "--k", "3", "--r", "3", "--d", "4",
                     "--pairs", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert "over 2 pairs" in out
        assert "OK: below 1e-04" in out

    def test_hopeless_step_size_fails_with_numeric_exit(self, capsys):
        assert main(["gradcheck", "--k", "3", "--r", "3", "--d", "4",
                     "--pairs", "1", "--eps", "10.0"]) == 3
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--eps", "nan"],
                                       ["--eps", "-0.001"], ["--pairs", "0"],
                                       ["--pairs", "-3"], ["--k", "0"],
                                       ["--r", "0"], ["--d", "0"],
                                       ["--seed", "-1"]])
    def test_vacuous_audit_is_a_usage_error(self, flags, capsys):
        assert main(["gradcheck", "--k", "2", "--r", "2", "--d", "2", *flags]) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err
        assert f"{flags[0].lstrip('-')} must" in captured.err
        assert "OK" not in captured.out

    def test_nan_error_fails_with_numeric_exit(self, monkeypatch, capsys):
        monkeypatch.setattr("treentail.cli.full_model_grad_check",
                            lambda **kwargs: float("nan"))
        assert main(["gradcheck", "--pairs", "1"]) == 3
        assert "FAIL" in capsys.readouterr().err

    def test_non_finite_stacked_oracle_fails_with_numeric_exit(self, monkeypatch, capsys):
        """A NaN in one copy of a stack reaches that copy's distribution,
        and the oracle's NonFiniteValue ends the audit with exit 3."""
        real = trainer._wavefront

        def poisoned(*args, stand_in, **kwargs):
            param, stack = stand_in
            stack = stack.copy()
            stack.reshape(len(stack), -1)[0, 0] = np.nan
            return real(*args, stand_in=(param, stack), **kwargs)

        monkeypatch.setattr(trainer, "_wavefront", poisoned)
        assert main(["gradcheck", "--k", "2", "--r", "2", "--d", "2", "--pairs", "1"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: non-finite class distribution" in err
