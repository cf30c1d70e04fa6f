"""End-to-end command walkthrough, exit-code taxonomy, and output files.

Everything runs in-process through main(argv) so coverage and debuggers
see straight through, and a shared tiny checkpoint keeps it quick.
"""

import json
import struct

import numpy as np
import pytest

from treentail.cli import main
from treentail.data import load_snli
from treentail.inspection import read_pgm
from treentail.trainer import MAGIC, load_checkpoint

TRAIN_FLAGS = ["--k", "6", "--r", "5", "--d", "8", "--epochs", "2",
               "--batch-size", "8", "--dropout", "0.1", "--seed", "3",
               "--deterministic"]


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


def _extra_token(header):
    header["vocabulary"]["tokens"].append("extra")


def _miscounted_rows(header):
    header["vocabulary"]["frozen_count"] += 1
    header["vocabulary"]["oov_count"] -= 1


def _unk_out_of_range(header):
    header["vocabulary"]["unk_index"] = len(header["vocabulary"]["tokens"])


def _wrong_width(header):
    header["config"]["k"] += 1


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
    ], ids=["extra_token", "miscounted_rows", "unk_out_of_range",
            "wrong_width", "trailing_bytes"])
    def test_inconsistent_checkpoint_is_a_data_error(self, workdir, tmp_path,
                                                     capsys, edit, tail):
        data = (workdir / "run" / "checkpoint.tent").read_bytes()
        start = len(MAGIC) + 4
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        header = json.loads(data[start:start + header_len])
        if edit is not None:
            edit(header)
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "bad.tent"
        bad.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                        + data[start + header_len:] + tail)
        assert main(["predict", "--checkpoint", str(bad),
                     "( ( a dog ) ( is sleeping ) )",
                     "( ( a animal ) ( is sleeping ) )"]) == 2
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
