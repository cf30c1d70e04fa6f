"""Corpus ingestion and a rule-generated toy corpus.

The ingestion side reads line-delimited JSON records carrying a gold
label and pre-binarized parse strings for both sentences; records whose
annotators did not agree (gold label "-") are skipped and counted.

The toy side emits labeled pairs from closed-vocabulary templates whose
labels are correct by construction: hypotheses that drop detail or
generalize the subject are entailed, antonymous predicate swaps
contradict, and added unverifiable detail is neutral.  Half of the
premises carry a trailing distractor phrase ("... by a bench") that has
no bearing on the label but gives alignments something to get wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .entailment import LABELS
from .trees import BinaryTree, TreeParseError, parse_tree

REQUIRED_FIELDS = ("gold_label", "sentence1_binary_parse", "sentence2_binary_parse")
SKIP_LABEL = "-"


class MalformedRecord(ValueError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ExamplePair:
    premise: BinaryTree
    hypothesis: BinaryTree
    gold: str | None = None


def load_snli(path):
    """Parse a JSONL corpus file into ``(pairs, skipped_count)``.

    Tokens come through verbatim, escape sequences like ``-LRB-``
    included.  Tree syntax errors propagate as their own exception types
    with the offending line number prepended.
    """
    pairs, skipped = [], 0
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(f"invalid JSON: {exc}", line_no) from None
                if not isinstance(record, dict):
                    raise MalformedRecord("record is not an object", line_no)
                missing = [f for f in REQUIRED_FIELDS if f not in record]
                if missing:
                    raise MalformedRecord(f"missing fields {missing}", line_no)
                gold = record["gold_label"]
                if gold == SKIP_LABEL:
                    skipped += 1
                    continue
                if gold not in LABELS:
                    raise MalformedRecord(f"unknown gold label {gold!r}", line_no)
                for name in REQUIRED_FIELDS[1:]:
                    if not isinstance(record[name], str):
                        raise MalformedRecord(f"{name} is not a string", line_no)
                try:
                    premise = parse_tree(record["sentence1_binary_parse"])
                    hypothesis = parse_tree(record["sentence2_binary_parse"])
                except TreeParseError as exc:
                    raise type(exc)(f"line {line_no}: {exc}") from exc
                pairs.append(ExamplePair(premise, hypothesis, gold))
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path} is not UTF-8: {exc.reason} "
                              f"0x{exc.object[exc.start]:02x}") from None
    return pairs, skipped


def leaf_tokens(pairs):
    """The set of every premise and hypothesis leaf token of ``pairs``."""
    tokens = set()
    for pair in pairs:
        tokens.update(pair.premise.leaves())
        tokens.update(pair.hypothesis.leaves())
    return tokens


def left_branching(tokens):
    """Fold tokens into a strictly left-branching binary tree."""
    text = tokens[0]
    for tok in tokens[1:]:
        text = f"( {text} {tok} )"
    return parse_tree(text)


def random_tree(rng, leaf_tokens):
    """Random binary tree shape over the given leaves, via random splits."""
    if len(leaf_tokens) == 1:
        return parse_tree(leaf_tokens[0])

    def build(tokens):
        if len(tokens) == 1:
            return tokens[0]
        split = int(rng.integers(1, len(tokens)))
        return f"( {build(tokens[:split])} {build(tokens[split:])} )"

    return parse_tree(build(list(leaf_tokens)))


# Closed toy world.  Nouns map to their hypernym; predicates pair with a
# mutually exclusive partner; scene nouns only ever appear in the
# distractor phrase.
HYPERNYMS = {
    "dog": "animal", "cat": "animal",
    "boy": "person", "girl": "person", "woman": "person",
}
ANTONYMS = {
    "sleeping": "running", "running": "sleeping",
    "smiling": "crying", "crying": "smiling",
}
ADJECTIVES = ("cute", "small", "happy", "young")
SCENES = ("tree", "door", "bench", "window")

_NOUNS = sorted(HYPERNYMS)
_VERBS = sorted(ANTONYMS)


def _choice(rng, options):
    return options[int(rng.integers(len(options)))]


def generate_toy(seed, n):
    """Deterministically generate ``n`` labeled pairs, ``n >= 3``.

    Labels cycle through the fixed label order, so class counts never
    differ by more than one and ``n = 3`` yields one pair per class.
    """
    if n < 3:
        raise ValueError("need at least one example per class")
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        gold = LABELS[i % len(LABELS)]
        noun = _choice(rng, _NOUNS)
        adjective = _choice(rng, ADJECTIVES)
        verb = _choice(rng, _VERBS)
        premise = ["a", adjective, noun, "is", verb]
        if rng.random() < 0.5:
            premise += ["by", "a", _choice(rng, SCENES)]

        if gold == "entailment":
            subject = HYPERNYMS[noun] if rng.random() < 0.9 else noun
            hypothesis = ["a", subject, "is", verb]
        elif gold == "contradiction":
            hypothesis = ["a", noun, "is", ANTONYMS[verb]]
        else:
            others = [a for a in ADJECTIVES if a != adjective]
            hypothesis = ["a", _choice(rng, others), noun, "is", verb]

        pairs.append(ExamplePair(left_branching(premise), left_branching(hypothesis), gold))
    return pairs


def has_distractor(pair):
    """Whether the premise carries the trailing distractor phrase."""
    leaves = pair.premise.leaves()
    return len(leaves) > 5 and leaves[-3] == "by"
