"""Corpus ingestion and the rule-generated toy set.

The toy generator's labels are re-derived here by an independent
validator that looks only at the surface tokens and the closed-world
relation tables, so a template bug cannot hide behind its own labels.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from treentail.data import (
    ADJECTIVES,
    ANTONYMS,
    HYPERNYMS,
    SCENES,
    ExamplePair,
    MalformedRecord,
    generate_toy,
    has_distractor,
    left_branching,
    load_snli,
    random_tree,
)
from treentail.trees import UnbalancedParens, parse_tree, serialize

FIXTURE = Path(__file__).parent / "data" / "snli_fixture.jsonl"


class TestLoadSnli:
    def test_fixture_yields_eight_pairs_and_two_skips(self):
        pairs, skipped = load_snli(FIXTURE)
        assert len(pairs) == 8
        assert skipped == 2

    def test_pairs_round_trip_through_serialize(self):
        pairs, _ = load_snli(FIXTURE)
        raw = [json.loads(line) for line in FIXTURE.read_text().splitlines()
               if line.strip()]
        labeled = [r for r in raw if r["gold_label"] != "-"]
        for pair, record in zip(pairs, labeled):
            assert serialize(pair.premise) == record["sentence1_binary_parse"]
            assert serialize(pair.hypothesis) == record["sentence2_binary_parse"]
            assert pair.gold == record["gold_label"]

    def test_escaped_brackets_come_through_as_tokens(self):
        pairs, _ = load_snli(FIXTURE)
        tokens = {t for p in pairs for t in p.premise.leaves()}
        assert "-LRB-" in tokens and "-RRB-" in tokens

    def test_blank_lines_are_ignored(self, tmp_path):
        record = json.dumps({
            "gold_label": "neutral",
            "sentence1_binary_parse": "( a b )",
            "sentence2_binary_parse": "c",
        })
        path = tmp_path / "gappy.jsonl"
        path.write_text(f"\n{record}\n\n{record}\n")
        pairs, skipped = load_snli(path)
        assert len(pairs) == 2 and skipped == 0

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"gold_label": "neutral"}\n{oops\n')
        # first record is missing parse fields, so check json error alone
        path.write_text("{oops\n")
        with pytest.raises(MalformedRecord, match="line 1") as exc:
            load_snli(path)
        assert exc.value.line_no == 1

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(MalformedRecord, match="not an object"):
            load_snli(path)

    def test_missing_fields_are_listed(self, tmp_path):
        path = tmp_path / "thin.jsonl"
        path.write_text('{"gold_label": "neutral"}\n')
        with pytest.raises(MalformedRecord, match="sentence1_binary_parse"):
            load_snli(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({
            "gold_label": "maybe",
            "sentence1_binary_parse": "a",
            "sentence2_binary_parse": "b",
        }) + "\n")
        with pytest.raises(MalformedRecord, match="maybe"):
            load_snli(path)

    def test_tree_errors_keep_their_type_and_gain_line_context(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(
            json.dumps({
                "gold_label": "neutral",
                "sentence1_binary_parse": "( a b )",
                "sentence2_binary_parse": "c",
            }) + "\n" + json.dumps({
                "gold_label": "neutral",
                "sentence1_binary_parse": "( a ( b c )",
                "sentence2_binary_parse": "d",
            }) + "\n")
        with pytest.raises(UnbalancedParens, match="line 2"):
            load_snli(path)

    @pytest.mark.parametrize("field", ["sentence1_binary_parse",
                                       "sentence2_binary_parse"])
    @pytest.mark.parametrize("value", [7, None, ["a"]], ids=["int", "null", "list"])
    def test_non_string_parse_names_line_and_field(self, tmp_path, field, value):
        record = {"gold_label": "neutral", "sentence1_binary_parse": "( a b )",
                  "sentence2_binary_parse": "c"}
        good = json.dumps(record)
        record[field] = value
        path = tmp_path / "typed.jsonl"
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(MalformedRecord, match=f"line 2: {field}") as exc:
            load_snli(path)
        assert exc.value.line_no == 2

    def test_error_carries_valueerror_lineage(self):
        assert issubclass(MalformedRecord, ValueError)


class TestTreeBuilders:
    def test_left_branching_shape(self):
        tree = left_branching(["a", "b", "c", "d"])
        assert serialize(tree) == "( ( ( a b ) c ) d )"

    def test_left_branching_single_token(self):
        assert serialize(left_branching(["only"])) == "only"

    def test_random_tree_preserves_leaf_order(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 9):
            tokens = [f"t{i}" for i in range(n)]
            tree = random_tree(rng, tokens)
            assert tree.leaves() == tokens
            assert tree.node_count == 2 * n - 1

    def test_random_tree_shapes_vary(self):
        rng = np.random.default_rng(1)
        shapes = {serialize(random_tree(rng, list("abcde"))) for _ in range(30)}
        assert len(shapes) > 5


def check_toy_label(pair):
    """Independent re-derivation of the label from surface tokens."""
    prem = pair.premise.leaves()
    hyp = pair.hypothesis.leaves()
    assert prem[0] == "a" and prem[3] == "is"
    adjective, noun, verb = prem[1], prem[2], prem[4]
    assert adjective in ADJECTIVES and noun in HYPERNYMS and verb in ANTONYMS
    if len(prem) > 5:
        assert prem[5:7] == ["by", "a"] and prem[7] in SCENES

    if hyp == ["a", noun, "is", ANTONYMS[verb]]:
        return "contradiction"
    if hyp in (["a", noun, "is", verb], ["a", HYPERNYMS[noun], "is", verb]):
        return "entailment"
    if (len(hyp) == 5 and hyp[0] == "a" and hyp[1] in ADJECTIVES
            and hyp[1] != adjective and hyp[2:] == [noun, "is", verb]):
        return "neutral"
    raise AssertionError(f"unclassifiable pair: {prem} / {hyp}")


class TestGenerateToy:
    def test_three_examples_cover_the_classes(self):
        golds = [p.gold for p in generate_toy(0, 3)]
        assert golds == ["contradiction", "neutral", "entailment"]

    def test_deterministic_per_seed(self):
        a, b = generate_toy(4, 20), generate_toy(4, 20)
        for pa, pb in zip(a, b):
            assert serialize(pa.premise) == serialize(pb.premise)
            assert serialize(pa.hypothesis) == serialize(pb.hypothesis)
            assert pa.gold == pb.gold
        c = generate_toy(5, 20)
        assert any(serialize(pa.premise) != serialize(pc.premise)
                   for pa, pc in zip(a, c))

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 100])
    def test_class_counts_differ_by_at_most_one(self, n):
        golds = [p.gold for p in generate_toy(1, n)]
        counts = [golds.count(label)
                  for label in ("contradiction", "neutral", "entailment")]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == n

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            generate_toy(0, 2)

    def test_sentences_are_left_branching(self):
        for pair in generate_toy(2, 12):
            rebuilt = left_branching(pair.premise.leaves())
            assert serialize(rebuilt) == serialize(pair.premise)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_labels_hold_up_to_independent_validation(self, seed):
        for pair in generate_toy(seed, 60):
            assert check_toy_label(pair) == pair.gold

    def test_distractors_appear_in_premises_only(self):
        pairs = generate_toy(3, 300)
        flagged = [p for p in pairs if has_distractor(p)]
        assert 0.35 < len(flagged) / len(pairs) < 0.65
        for pair in flagged:
            leaves = pair.premise.leaves()
            assert leaves[-3:-1] == ["by", "a"] and leaves[-1] in SCENES
        for pair in pairs:
            assert "by" not in pair.hypothesis.leaves()
            if not has_distractor(pair):
                assert len(pair.premise.leaves()) == 5


class TestExamplePair:
    def test_gold_is_optional(self):
        pair = ExamplePair(parse_tree("( a b )"), parse_tree("c"))
        assert pair.gold is None
