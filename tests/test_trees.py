"""Parsing, serialization, and traversal of binary s-expression trees."""

import doctest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treentail.trees
from treentail.data import left_branching, random_tree
from treentail.trees import (
    BinaryTree,
    EmptyInput,
    NestingTooDeep,
    NonBinaryNode,
    TreeParseError,
    UnbalancedParens,
    node_phrases,
    parse_tree,
    serialize,
)


class TestParse:
    def test_single_token_is_a_one_node_tree(self):
        t = parse_tree("cat")
        assert t.node_count == 1
        assert t.is_leaf(0)
        assert t.tokens == ("cat",)

    def test_two_leaf_tree(self):
        t = parse_tree("( the cat )")
        assert t.node_count == 3
        assert t.root == 2
        assert not t.is_leaf(t.root)
        assert t.leaves() == ["the", "cat"]

    def test_ids_are_post_order(self):
        """Children must always carry smaller ids than their parent."""
        t = parse_tree("( ( a ( b c ) ) ( d e ) )")
        for i in range(t.node_count):
            if not t.is_leaf(i):
                assert t.lefts[i] < i
                assert t.rights[i] < i

    def test_parens_flush_against_tokens(self):
        # SNLI-style binary parses have no guaranteed spacing.
        t = parse_tree("((the cat) sleeps)")
        assert t.leaves() == ["the", "cat", "sleeps"]

    def test_escaped_bracket_tokens_survive(self):
        t = parse_tree("( -LRB- -RRB- )")
        assert t.leaves() == ["-LRB-", "-RRB-"]

    def test_deep_left_branching(self):
        text = "( ( ( ( a b ) c ) d ) e )"
        t = parse_tree(text)
        assert t.node_count == 9
        assert t.leaves() == list("abcde")

    @pytest.mark.parametrize("bad", ["", "   ", "\n\t"])
    def test_empty_input(self, bad):
        with pytest.raises(EmptyInput):
            parse_tree(bad)

    @pytest.mark.parametrize("bad", [
        "( a b",          # missing close
        "a b )",          # stray close after leaf... trailing content
        "( a b ) )",      # extra close
        "( a b ) extra",  # trailing token
        "(",              # open and nothing else
        ")",              # close and nothing else
        "( a b ) ( c d )",  # two roots
    ])
    def test_unbalanced_or_trailing(self, bad):
        with pytest.raises(UnbalancedParens):
            parse_tree(bad)

    @pytest.mark.parametrize("bad", ["( a )", "( a b c )", "( )"])
    def test_non_binary_nodes(self, bad):
        with pytest.raises(NonBinaryNode):
            parse_tree(bad)

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self):
        """The parser recurses once per level; 1,200 levels must end in
        a tree error, still catchable as the RecursionError it was."""
        depth = 1200
        text = "( " * depth + "a" + " b )" * depth
        with pytest.raises(NestingTooDeep, match="nests deeper") as info:
            parse_tree(text)
        assert isinstance(info.value, TreeParseError)
        assert isinstance(info.value, RecursionError)

    def test_errors_are_value_errors(self):
        # Callers catch the family root both as TreeParseError and ValueError.
        for bad, kind in [("", EmptyInput), ("( a", UnbalancedParens),
                          ("( a )", NonBinaryNode)]:
            with pytest.raises(TreeParseError):
                parse_tree(bad)
            with pytest.raises(ValueError):
                parse_tree(bad)
            assert issubclass(kind, TreeParseError)


class TestSerialize:
    def test_canonical_form(self):
        t = parse_tree("((the cat)sleeps)")
        assert serialize(t) == "( ( the cat ) sleeps )"

    def test_round_trip_is_identity_on_canonical_text(self):
        text = "( ( a ( b c ) ) ( ( d e ) f ) )"
        assert serialize(parse_tree(text)) == text

    def test_parse_serialize_parse_fixed_point(self):
        for text in ["tok", "( a b )", "( ( a b ) ( c ( d e ) ) )"]:
            t = parse_tree(text)
            assert parse_tree(serialize(t)) == t

    def test_tree_deeper_than_the_parser_serializes(self):
        """Serializing sweeps ids, so depth past the parser's recursion
        limit is no obstacle: a 1,200-deep left-branching tree built in
        code renders as the text its nesting spells."""
        depth = 1200
        tokens, lefts, rights = ["a"], [-1], [-1]
        for _ in range(depth):
            n = len(tokens)
            tokens += ["b", None]
            lefts += [-1, n - 1]
            rights += [-1, n]
        t = BinaryTree(tuple(tokens), tuple(lefts), tuple(rights))
        assert serialize(t) == "( " * depth + "a" + " b )" * depth
        assert node_phrases(t)[t.root] == "a" + " b" * depth


class TestStructure:
    @pytest.mark.parametrize("tokens, lefts, rights", [
        ((None, "a", "b"), (1, -1, -1), (2, -1, -1)),
        # children before parents, but not the post-order of ( ( a c ) ( b d ) )
        (("a", "b", "c", "d", None, None, None),
         (-1, -1, -1, -1, 0, 1, 4), (-1, -1, -1, -1, 2, 3, 5)),
        (("a", "b", None), (-1, -1, 0), (-1, -1, 0)),
        (("a", "b", None, "c"), (-1, -1, 0, -1), (-1, -1, 1, -1)),
        (("a", None, None), (-1, -1, 0), (-1, -1, 1)),
        (("a", "b", "c"), (-1, -1, 0), (-1, -1, 1)),
        (("a", "b", None), (-1, -1, 0), (-1, -1)),
        ((), (), ()),
    ], ids=["forward_children", "shuffled_numbering", "shared_child",
            "unreachable_node", "leaf_without_token", "internal_with_token",
            "unequal_lengths", "no_nodes"])
    def test_construction_rejects_forward_children(self, tokens, lefts, rights):
        with pytest.raises(NonBinaryNode):
            BinaryTree(tokens=tokens, lefts=lefts, rights=rights)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           shape=st.sampled_from(["random", "left_branching"]))
    def test_generated_trees_are_valid_and_round_trip(self, seed, n, shape):
        drawn = [f"w{i}" for i in range(n)]
        if shape == "random":
            t = random_tree(np.random.default_rng(seed), drawn)
        else:
            t = left_branching(drawn)
        assert parse_tree(serialize(t)) == t
        assert BinaryTree(t.tokens, t.lefts, t.rights) == t
        assert t.leaves() == drawn
        assert node_phrases(t)[t.root] == " ".join(t.leaves())

    def test_node_phrases(self):
        t = parse_tree("( ( the cat ) ( eats fish ) )")
        phrases = node_phrases(t)
        assert phrases[t.root] == "the cat eats fish"
        assert phrases[2] == "the cat"
        assert sorted(p for i, p in enumerate(phrases) if t.is_leaf(i)) == [
            "cat", "eats", "fish", "the",
        ]

    def test_leaves_in_surface_order(self):
        t = parse_tree("( ( ( a b ) c ) ( d ( e f ) ) )")
        assert t.leaves() == list("abcdef")


def heights_by_definition(tree):
    """Each node's height: 0 for a leaf, else one more than the higher of
    its two children's."""
    memo = {}

    def height(i):
        if i not in memo:
            memo[i] = 0 if tree.lefts[i] < 0 else 1 + max(height(tree.lefts[i]),
                                                           height(tree.rights[i]))
        return memo[i]

    return [height(i) for i in range(tree.node_count)]


def assert_schedule_follows_the_definition(trees):
    """Level h of the forest holds exactly the forest ids of height h,
    tree by tree and in id order, with their children's ids; a level of
    one node is one-node slices, every other level integer arrays."""
    offsets, levels = treentail.trees.forest_schedule(trees)
    assert offsets == [sum(t.node_count for t in trees[:i]) for i in range(len(trees) + 1)]
    heights = [heights_by_definition(tree) for tree in trees]
    assert len(levels) == 1 + max(max(h) for h in heights)
    for height, (ids, lefts, rights) in enumerate(levels):
        want = ([], [], [])
        for tree, start, of in zip(trees, offsets, heights):
            for i in range(tree.node_count):
                if of[i] == height:
                    want[0].append(start + i)
                    want[1].append(start + tree.lefts[i])
                    want[2].append(start + tree.rights[i])
        got = (ids, lefts, rights)
        if height == 0:
            assert (lefts, rights) == (None, None)
            got, want = got[:1], want[:1]
        for column, expected in zip(got, want):
            if len(expected) == 1:
                assert column == slice(expected[0], expected[0] + 1)
            else:
                assert isinstance(column, np.ndarray)
                assert np.issubdtype(column.dtype, np.integer) and column.ndim == 1
                assert column.tolist() == expected


class TestForestSchedule:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8))
    def test_levels_are_each_trees_levels_with_offset_ids(self, seed, sizes):
        """Height h of the forest holds every tree's nodes of height h,
        tree by tree, with each id and child id shifted by the nodes
        before its tree."""
        rng = np.random.default_rng(seed)
        trees = [random_tree(rng, [f"w{i}" for i in range(n)]) for n in sizes]
        assert_schedule_follows_the_definition(trees)

    def test_a_300_level_tree_alone_and_in_a_forest(self):
        """A left-branching tree of 300 leaves has one node on each of its
        299 internal levels: alone, every such level is slices; after a
        wider tree, its levels share the first few with that tree's."""
        deep = left_branching([f"w{i}" for i in range(300)])
        offsets, levels = treentail.trees.forest_schedule([deep])
        assert len(levels) == 300
        assert all(isinstance(column, slice) for level in levels[1:] for column in level)
        assert_schedule_follows_the_definition([deep])
        wide = parse_tree("( ( ( a b ) ( c d ) ) ( ( e f ) ( g h ) ) )")
        assert_schedule_follows_the_definition([wide, deep, parse_tree("x")])

    def test_trees_hold_only_their_nodes(self):
        """A tree is its tokens and child ids: building a schedule keeps
        nothing on it."""
        tree = parse_tree("( ( a b ) ( c ( d e ) ) )")
        treentail.trees.forest_schedule([tree])
        assert not hasattr(tree, "__dict__")
        assert tree == BinaryTree(tree.tokens, tree.lefts, tree.rights)


def test_docstring_examples_run():
    """The examples in the module's docstrings are tests too."""
    result = doctest.testmod(treentail.trees)
    assert result.attempted >= 1
    assert result.failed == 0
