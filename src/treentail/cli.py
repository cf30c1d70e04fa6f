"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed inputs), 3 numeric failure (non-finite values or a failed
gradient audit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .data import ExamplePair, MalformedRecord, generate_toy, load_snli
from .embeddings import CalledTwice, EmbeddingFileError, load_pretrained, register_oov
from .autodiff import NonFiniteValue
from .entailment import LABELS, predict
from .inspection import build_record, format_record, write_pgm
from .trainer import (
    CheckpointError,
    EmptyDataset,
    TrainConfig,
    evaluate,
    full_model_grad_check,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .trees import TreeParseError, parse_tree, serialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRAD_TOLERANCE = 1e-4

_DATA_ERRORS = (
    TreeParseError,
    EmbeddingFileError,
    MalformedRecord,
    EmptyDataset,
    CheckpointError,
    CalledTwice,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_model_flags(p):
    p.add_argument("--k", type=int, default=150, help="meaning-composer width")
    p.add_argument("--r", type=int, default=150, help="relation-composer width")
    p.add_argument("--d", type=int, default=300, help="word vector width")
    p.add_argument("--dual", choices=("on", "off"), default="off",
                   help="renormalized two-way attention")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")


def build_parser():
    parser = _Parser(prog="treentail",
                     description="Tree-structured attention entailment models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True, help="training JSONL file")
    p.add_argument("--dev", help="dev JSONL file (defaults to --data)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--embeddings", help="pretrained vector text file")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--deterministic", action="store_true",
                   help="accepted for compatibility; no effect, "
                        "evaluation is always serial")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy and confusion on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one pair of tree strings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("premise", help="premise as an s-expression")
    p.add_argument("hypothesis", help="hypothesis as an s-expression")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="write attention records and heatmaps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference audit of gradients")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--r", type=int, default=8)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--eps", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("toydata", help="write a generated toy corpus")
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_toydata)

    return parser


def _config_from_args(args):
    return TrainConfig(
        k=args.k,
        r=args.r,
        d=args.d,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        dropout_rate=args.dropout,
        epochs=args.epochs,
        seed=args.seed,
        use_dual=args.dual == "on",
        precision="double" if args.precision == "f64" else "single",
    )


def cmd_train(args):
    config = _config_from_args(args)

    train_pairs, train_skipped = load_snli(args.data)
    if args.dev:
        dev_pairs, dev_skipped = load_snli(args.dev)
    else:
        dev_pairs, dev_skipped = train_pairs, 0

    vocab = table = None
    if args.embeddings:
        tokens = set()
        for pair in train_pairs + dev_pairs:
            tokens.update(pair.premise.leaves())
            tokens.update(pair.hypothesis.leaves())
        tokens.update(t.lower() for t in list(tokens))
        vocab, table = load_pretrained(args.embeddings, restrict_to=tokens,
                                       dtype=config.dtype)
        config = replace(config, d=table.dim)

    params, vocab, table, metrics = train(train_pairs, dev_pairs, config, vocab, table)

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.tent"),
                    config, vocab, table, params)
    with open(os.path.join(args.out, "metrics.tsv"), "w", encoding="utf-8") as handle:
        handle.write("epoch\ttrain_loss\ttrain_accuracy\tdev_accuracy\n")
        for m in metrics:
            handle.write(f"{m.epoch}\t{m.train_loss!r}\t"
                         f"{m.train_accuracy!r}\t{m.dev_accuracy!r}\n")

    skipped = train_skipped + dev_skipped
    if skipped:
        print(f"skipped {skipped} records without a gold label")
    for m in metrics:
        print(f"epoch {m.epoch}: loss {m.train_loss:.4f} "
              f"train {m.train_accuracy:.4f} dev {m.dev_accuracy:.4f}")
    best = max(metrics, key=lambda m: m.dev_accuracy) if metrics else None
    if best is not None:
        print(f"best dev accuracy {best.dev_accuracy:.4f} at epoch {best.epoch}")
    return EXIT_OK


def cmd_eval(args):
    config, vocab, table, params = load_checkpoint(args.checkpoint)
    pairs, skipped = load_snli(args.data)
    accuracy, confusion = evaluate(pairs, params, config, vocab, table)
    if skipped:
        print(f"skipped {skipped} records without a gold label")
    print(f"accuracy: {accuracy:.4f} ({len(pairs)} pairs)")
    print("confusion (rows gold, columns predicted):")
    width = max(len(l) for l in LABELS)
    for i, label in enumerate(LABELS):
        counts = " ".join(f"{confusion[i, j]:6d}" for j in range(len(LABELS)))
        print(f"  {label:<{width}} {counts}")
    return EXIT_OK


def cmd_predict(args):
    config, vocab, table, params = load_checkpoint(args.checkpoint)
    premise = parse_tree(args.premise)
    hypothesis = parse_tree(args.hypothesis)
    result = predict(premise, hypothesis, vocab, table, params,
                     use_dual=config.use_dual, dtype=config.dtype)
    print(result.label)
    for label, prob in zip(LABELS, result.distribution):
        print(f"  {label}: {prob:.6f}")
    return EXIT_OK


def cmd_inspect(args):
    config, vocab, table, params = load_checkpoint(args.checkpoint)
    pairs, _ = load_snli(args.data)
    if not pairs:
        raise EmptyDataset("no pairs to inspect")
    os.makedirs(args.out, exist_ok=True)
    for i, pair in enumerate(pairs):
        record = build_record(pair, vocab, table, params,
                              use_dual=config.use_dual, dtype=config.dtype)
        stem = os.path.join(args.out, f"pair_{i:04d}")
        with open(stem + ".txt", "w", encoding="utf-8") as handle:
            handle.write(format_record(record))
        write_pgm(stem + ".pgm", record.final_attention)
    print(f"wrote {len(pairs)} records to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    worst = full_model_grad_check(k=args.k, r=args.r, d=args.d,
                                  seed=args.seed, pairs=args.pairs, eps=args.eps)
    print(f"max relative gradient error: {worst:.3e} over {args.pairs} pairs")
    if worst >= GRAD_TOLERANCE:
        print(f"FAIL: exceeds {GRAD_TOLERANCE:.0e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"OK: below {GRAD_TOLERANCE:.0e}")
    return EXIT_OK


def cmd_toydata(args):
    pairs = generate_toy(args.seed, args.n)
    with open(args.out, "w", encoding="utf-8") as handle:
        for pair in pairs:
            record = {
                "gold_label": pair.gold,
                "sentence1_binary_parse": serialize(pair.premise),
                "sentence2_binary_parse": serialize(pair.hypothesis),
            }
            handle.write(json.dumps(record) + "\n")
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except NonFiniteValue as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # Flag values that survive argparse but fail validation.
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
