"""Workload definitions and the inputs each one hands to treentail.

Every input is made from the workload seed, except the deep-nesting
records of ``vocab20k``, which are fixed so that the share of failed
parses is the same for every seed and every run length.

Tree sizes are fixed per workload, and only their contents, shapes and
order follow the seed.  Tape, GEMM and embedding work all scale with
node counts, so a fixed size mix keeps the work per round the same
across seeds; the seed still changes every token, label order, tree
shape, dropout mask and initial weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from treentail.data import generate_toy, has_distractor, random_tree
from treentail.entailment import LABELS
from treentail.trees import serialize

# Leaf counts of one block of three synthetic pairs (six trees), from a
# few leaves to a few dozen.  Each block uses every length once, in an
# order drawn from the seed.
SYNTHETIC_LENGTHS = (3, 4, 6, 10, 16, 33)
PAIRS_PER_BLOCK = len(SYNTHETIC_LENGTHS) // 2

# Nesting depth of the fixed deep records.  ``parse_tree`` recurses once
# per level, so anything past the interpreter's default recursion limit
# (1000) raises RecursionError.
DEEP_NESTING = 1200


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    r: int
    d: int
    dual: bool
    # Pair counts are multiples of a size block (6 toy pairs, 3 synthetic
    # pairs), so every count covers a fixed size mix.
    train_pairs: int
    dev_pairs: int        # also the pairs `evaluate` scores each round
    predicts: int         # `treentail predict` calls per round, on dev pairs
    inspects: int         # pairs per `treentail inspect` call, from the dev pairs
    round_trips: int      # checkpoint save + load per round
    synthetic_rows: int   # extra trainable vocabulary rows
    deep_records: int     # records nesting DEEP_NESTING levels


WORKLOADS = {
    "toy": Workload(
        "toy",
        k=32, r=32, d=32, dual=True,
        train_pairs=120, dev_pairs=120, predicts=12, inspects=24, round_trips=12,
        synthetic_rows=0, deep_records=0,
    ),
    "paper": Workload(
        "paper",
        k=150, r=150, d=300, dual=False,
        train_pairs=18, dev_pairs=48, predicts=6, inspects=12, round_trips=6,
        synthetic_rows=0, deep_records=0,
    ),
    "vocab20k": Workload(
        "vocab20k",
        k=32, r=32, d=300, dual=False,
        train_pairs=3, dev_pairs=48, predicts=3, inspects=3, round_trips=2,
        synthetic_rows=20000, deep_records=3,
    ),
}

SMOKE_WORKLOADS = {
    "toy": replace(WORKLOADS["toy"], train_pairs=12, dev_pairs=6, predicts=2,
                   inspects=2, round_trips=1),
    "paper": replace(WORKLOADS["paper"], train_pairs=6, dev_pairs=6, predicts=1,
                     inspects=2, round_trips=1),
    "vocab20k": replace(WORKLOADS["vocab20k"], dev_pairs=6, predicts=1, inspects=2,
                        round_trips=1, synthetic_rows=2000),
}


@dataclass(frozen=True)
class Record:
    """One line of the ingestion stream, as text the program must parse."""

    pair_id: str
    gold: str
    premise: str
    hypothesis: str

    def to_json(self):
        return json.dumps({
            "pairID": self.pair_id,
            "gold_label": self.gold,
            "sentence1_binary_parse": self.premise,
            "sentence2_binary_parse": self.hypothesis,
        })


def canonical(text):
    """Canonical s-expression: parens spaced, single spaces between tokens."""
    return " ".join(text.replace("(", " ( ").replace(")", " ) ").split())


def _render(tree, style):
    """Tree text in one of three spellings of the same s-expression."""
    text = serialize(tree)
    if style == 1:
        return text.replace("( ", "(").replace(" )", ")")
    if style == 2:
        return "  " + text.replace(" ", "  ") + " "
    return text


def synthetic_tokens(count):
    return [f"v{i:05d}" for i in range(count)]


def _stratified_toy(seed, n):
    """``n`` toy pairs with every (label, distractor) cell equally filled.

    Labels fix the hypothesis length and the distractor fixes the
    premise length, so equal cells fix the total node count.  Pairs come
    out cycling through the six cells, so every run of six consecutive
    pairs has the same size mix too.
    """
    per_cell = n // 6
    pool_size = 4 * n
    while True:
        pool = generate_toy(seed, pool_size)
        cells = {}
        for pair in pool:
            cells.setdefault((pair.gold, has_distractor(pair)), []).append(pair)
        if len(cells) == 6 and all(len(pairs) >= per_cell for pairs in cells.values()):
            return [(cells[c][j].premise, cells[c][j].hypothesis, cells[c][j].gold)
                    for j in range(per_cell) for c in sorted(cells)]
        pool_size *= 2


def _synthetic(rng, n, tokens):
    """``n`` pairs of random-shape trees over ``tokens``."""
    out = []
    for start in range(0, n, PAIRS_PER_BLOCK):
        lengths = rng.permutation(SYNTHETIC_LENGTHS)
        for j in range(min(PAIRS_PER_BLOCK, n - start)):
            trees = [
                random_tree(rng, [tokens[t] for t in rng.integers(0, len(tokens), length)])
                for length in lengths[2 * j:2 * j + 2]
            ]
            out.append((trees[0], trees[1], LABELS[(start + j) % len(LABELS)]))
    return out


def deep_records(count, tokens):
    """Fixed records whose premise or hypothesis nests DEEP_NESTING deep."""
    leaves = [tokens[i % len(tokens)] for i in range(DEEP_NESTING + 1)]
    left = "( " * DEEP_NESTING + leaves[0] + "".join(f" {t} )" for t in leaves[1:])
    right = "".join(f"( {t} " for t in leaves[:-1]) + leaves[-1] + " )" * DEEP_NESTING
    short = f"( {leaves[0]} {leaves[1]} )"
    shapes = [(left, short), (short, right), (right, left)]
    return [
        Record(f"deep-{i}", LABELS[i % len(LABELS)], *shapes[i % len(shapes)])
        for i in range(count)
    ]


def make_records(workload, seed):
    """The workload's ingestion stream, in file order.

    Returns ``(records, vocabulary_tokens)``; the second lists the
    tokens registered as trainable rows besides the training corpus.
    """
    train_seed, dev_seed, shape_seed, style_seed = np.random.SeedSequence(seed).generate_state(4)
    if workload.synthetic_rows:
        tokens = synthetic_tokens(workload.synthetic_rows)
        rng = np.random.default_rng(shape_seed)
        train = _synthetic(rng, workload.train_pairs, tokens)
        dev = _synthetic(rng, workload.dev_pairs, tokens)
    else:
        tokens = []
        train = _stratified_toy(int(train_seed), workload.train_pairs)
        dev = _stratified_toy(int(dev_seed), workload.dev_pairs)

    style_rng = np.random.default_rng(style_seed)
    records = []
    for split, pairs in (("train", train), ("dev", dev)):
        for i, (premise, hypothesis, gold) in enumerate(pairs):
            p_style, h_style = style_rng.integers(0, 3, 2)
            records.append(Record(f"{split}-{i}", gold, _render(premise, p_style),
                                  _render(hypothesis, h_style)))

    if workload.deep_records:
        # Fixed positions, spread from the first line to the last.
        deep = deep_records(workload.deep_records, tokens)
        n = len(records)
        for j, record in enumerate(deep):
            records.insert(j * n // max(1, len(deep) - 1) + j, record)
    return records, tokens


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")


def read_jsonl(path):
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            raw = json.loads(line)
            records.append(Record(raw["pairID"], raw["gold_label"],
                                  raw["sentence1_binary_parse"],
                                  raw["sentence2_binary_parse"]))
    return records
