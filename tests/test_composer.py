"""The five-gate tree composition cell and whole-tree walks.

The cell's vectorized arithmetic is checked against a scalar
transcription that computes every gate entry with explicit loops and the
exp form of the logistic function -- an independent derivation, not a
refactoring of the production code.  A tree walk is one tape op; its
backward rule is checked by finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treentail import composer
from treentail.autodiff import (
    AffineMap,
    Graph,
    NonFiniteValue,
    Parameter,
    ShapeMismatch,
    grad_check,
)
from treentail.composer import LstmParameters, cell_values, encode_tree, walk_tree, walk_values
from treentail.data import random_tree
from treentail.embeddings import empty_vocabulary, register_oov
from treentail.trees import forest_schedule, parse_tree

from tape_helpers import total


def make_block(k, d, rng, scale=1.0):
    w = rng.standard_normal((5 * k, d + 2 * k)) * scale
    b = rng.standard_normal((5 * k, 1)) * scale
    return LstmParameters(AffineMap.from_arrays("cell", w, b))


def scalar_cell(w, b, x, h1, h2, c1, c2, k):
    """Loop-and-exp transcription of one composition step."""

    def logistic(v):
        return 1.0 / (1.0 + math.exp(-v))

    inp = list(x) + list(h1) + list(h2)
    z = [sum(w[m][j] * inp[j] for j in range(len(inp))) + b[m]
         for m in range(5 * k)]
    h_out, c_out = [], []
    for m in range(k):
        gate_i = logistic(z[m])
        gate_f1 = logistic(z[k + m])
        gate_f2 = logistic(z[2 * k + m])
        gate_o = logistic(z[3 * k + m])
        u = math.tanh(z[4 * k + m])
        c = gate_i * u + gate_f1 * c1[m] + gate_f2 * c2[m]
        c_out.append(c)
        h_out.append(gate_o * math.tanh(c))
    return h_out, c_out


def cell(block, x, h1, h2, c1, c2):
    """:func:`cell_values` on ``block``'s arrays; returns ``(h, c)``."""
    w, b = block.block.weight.value, block.block.bias.value
    return cell_values(w, b, x, h1, h2, c1, c2, block.k_out)[:2]


class TestCellValues:
    def test_zero_everything_gives_zero_state(self):
        k, d = 4, 3
        block = LstmParameters(AffineMap.from_arrays(
            "z", np.zeros((5 * k, d + 2 * k)), np.zeros((5 * k, 1))))
        zero = np.zeros((k, 1))
        h, c = cell(block, np.zeros((d, 1)), zero, zero, zero, zero)
        # gates are all 0.5 but the candidate tanh(0) = 0, so c = h = 0
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_zero_params_carry_half_of_child_memory(self):
        """With zero weights each forget gate is exactly 1/2, so the new
        memory is the mean of the children's memories."""
        k, d = 2, 3
        block = LstmParameters(AffineMap.from_arrays(
            "z", np.zeros((5 * k, d + 2 * k)), np.zeros((5 * k, 1))))
        zero, one = np.zeros((k, 1)), np.ones((k, 1))
        h, c = cell(block, np.zeros((d, 1)), zero, zero, one, one)
        np.testing.assert_allclose(c, 1.0, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(1.0), atol=1e-15)

    def test_matches_scalar_transcription(self):
        k, d = 3, 4
        rng = np.random.default_rng(12)
        for case in range(100):
            block = make_block(k, d, rng)
            x = rng.standard_normal((d, 1))
            h1, h2 = rng.standard_normal((2, k, 1))
            c1, c2 = rng.standard_normal((2, k, 1)) * 2
            h, c = cell(block, x, h1, h2, c1, c2)
            h_ref, c_ref = scalar_cell(
                block.block.weight.value, block.block.bias.value[:, 0],
                x[:, 0], h1[:, 0], h2[:, 0], c1[:, 0], c2[:, 0], k)
            np.testing.assert_allclose(h[:, 0], h_ref, atol=1e-12, err_msg=f"case {case} (h)")
            np.testing.assert_allclose(c[:, 0], c_ref, atol=1e-12, err_msg=f"case {case} (c)")

    def test_exposed_vector_is_strictly_inside_unit_box(self):
        """h = o * tanh(c) with o <= 1, so |h| <= 1 always, and |h| < 1
        wherever |tanh(c)| < 1.  A large c rounds tanh(c) to 1.0 in
        float64 (draw 15 of the second draw order), and there h may be 1."""
        for children_first in (False, True):
            rng = np.random.default_rng(9)
            for _ in range(50):
                block = make_block(5, 6, rng, scale=3.0)
                x = rng.standard_normal((6, 1)) * 4
                if children_first:
                    h1, h2 = rng.uniform(-1, 1, (5, 1)), rng.uniform(-1, 1, (5, 1))
                    c1, c2 = rng.standard_normal((5, 1)) * 5, rng.standard_normal((5, 1)) * 5
                else:
                    h1, c1 = rng.uniform(-1, 1, (5, 1)), rng.standard_normal((5, 1)) * 5
                    h2, c2 = rng.uniform(-1, 1, (5, 1)), rng.standard_normal((5, 1)) * 5
                h, c = cell(block, x, h1, h2, c1, c2)
                assert np.abs(h).max() <= 1.0
                inside = np.abs(np.tanh(c)) < 1.0
                assert np.all(np.abs(h[inside]) < 1.0)

    def test_shape_guards(self):
        with pytest.raises(ShapeMismatch):
            LstmParameters(AffineMap.from_arrays("w", np.zeros((7, 9)), np.zeros((7, 1))))
        with pytest.raises(ShapeMismatch):
            # five rows per output leaves no input columns
            LstmParameters(AffineMap.from_arrays("w", np.zeros((10, 4)), np.zeros((10, 1))))

    def test_level_guards(self):
        """A walk's input has the cell's input rows and one column per
        leaf (the leaf level's) or one per node (every level's); any other
        shape is refused."""
        block = make_block(2, 3, np.random.default_rng(0))
        tree = parse_tree("( ( a b ) c )")  # 3 leaves, 5 nodes
        g = Graph()
        for cols in (3, 5):
            x = g.constant(np.zeros((3, cols)))
            assert walk_tree(g, tree, block, x).h.shape == (2, 5)
        for shape in ((3, 4), (3, 1), (5, 3), (2, 5)):
            with pytest.raises(ShapeMismatch):
                walk_tree(g, tree, block, g.constant(np.zeros(shape)))

    def test_non_finite_memory_aborts_the_walk(self, monkeypatch):
        """c never leaves the walk op, so the op checks it as well as its
        value h: a memory gone infinite under a finite h still raises."""
        real = composer.cell_values

        def overflowing(*args):
            h, c, *rest = real(*args)
            return (h, np.full_like(c, np.inf), *rest)

        monkeypatch.setattr(composer, "cell_values", overflowing)
        block = make_block(2, 3, np.random.default_rng(0))
        g = Graph()
        with pytest.raises(NonFiniteValue, match="'lstm_cell'"):
            walk_tree(g, parse_tree("( a b )"), block, g.constant(np.zeros((3, 2))))


class TestCellGradients:
    def test_all_seven_input_paths_pass_grad_check(self):
        """A walk over ( a b ) whose every node reads an input column:
        weights, bias and input, and through the root both child vectors
        and both child memories."""
        k, d = 3, 4
        tree = parse_tree("( a b )")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            block = make_block(k, d, rng, scale=0.7)
            x = Parameter("x", rng.uniform(-0.9, 0.9, (d, 3)))

            def build():
                g = Graph()
                h = walk_tree(g, tree, block, g.parameter(x)).h
                return g, total(g, g.tanh(h))

            worst = grad_check(build, [block.block.weight, block.block.bias, x], eps=1e-5)
            assert worst < 1e-4, f"seed {seed}: {worst:.3e}"

    @pytest.mark.parametrize("has_x, has_children", [(True, False), (False, True),
                                                     (True, True)])
    def test_level_of_three_columns_passes_grad_check(self, has_x, has_children):
        """A walk whose loss reads only the h columns of one level of
        m = 3 nodes, so the gradient enters the walk through that level's
        cell alone, with each column block of the gate weight that a
        level can use: the leaf level of ( ( a b ) c ) (input, no
        children), or level 1 of ( ( ( a b ) ( c d ) ) ( e f ) ) with a
        leaf-only input (children, no input) or an every-node input
        (both)."""
        k, d = 3, 4
        rng = np.random.default_rng(31)
        block = make_block(k, d, rng, scale=0.7)
        if has_children:
            tree, height = parse_tree("( ( ( a b ) ( c d ) ) ( e f ) )"), 1
        else:
            tree, height = parse_tree("( ( a b ) c )"), 0
        levels = forest_schedule([tree])[1]
        ids = levels[height][0].tolist()
        assert len(ids) == 3
        width = tree.node_count if has_x and has_children else len(levels[0][0])
        x = Parameter("x", rng.uniform(-0.9, 0.9, (d, width)))
        probe = np.zeros((k, tree.node_count))
        probe[:, ids] = rng.standard_normal((k, 3))

        def build():
            g = Graph()
            h = walk_tree(g, tree, block, g.parameter(x)).h
            assert h.value[:, ids].shape == (k, 3)
            return g, total(g, g.hadamard(g.tanh(h), g.constant(probe)))

        assert grad_check(build, [block.block.weight, block.block.bias, x], eps=1e-5) < 1e-4


# Level 3 holds ( ( ( a b ) c ) d ) and ( ( e f ) ( ( g h ) i ) ), whose
# children sit on levels 2 and 0, and 1 and 2.  The levels hold 9, 3, 2,
# 2 and 1 nodes.
SPREAD = "( ( ( ( a b ) c ) d ) ( ( e f ) ( ( g h ) i ) ) )"


class TestLevelGather:
    def test_a_level_reads_children_from_three_lower_levels(self):
        """The walk is one ``lstm_cell`` op, whose parents are the gate
        weight, the bias and the input, once each however many levels
        the tree has, and level 3's states equal a cell run on the
        children gathered by hand."""
        d, k = 4, 3
        vocab, table = toy_vocab(d, list("abcdefghi"))
        block = make_block(k, d, np.random.default_rng(5), scale=0.5)
        tree = parse_tree(SPREAD)
        schedule = forest_schedule([tree])
        ids, lefts, rights = schedule[1][3]
        assert (ids.tolist(), lefts.tolist(), rights.tolist()) == ([6, 15], [4, 9], [5, 14])
        g = Graph()
        h = encode_tree(g, tree, vocab, table, block).h
        assert [node for node in g.nodes if node.op == "lstm_cell"] == [h]
        w, b = (g.parameter(p) for p in (block.block.weight, block.block.bias))
        x = h.parents[-1]
        assert len(schedule[1]) == 5
        assert h.parents == (w, b, x) and x.shape == (d, 9)

        hs, cs = walk_values(schedule, x.value, w.value, b.value, k)
        np.testing.assert_array_equal(hs, h.value)
        left, right = [4, 9], [5, 14]
        by_hand = cell(block, None, h.value[:, left], h.value[:, right],
                       cs[:, left], cs[:, right])
        np.testing.assert_array_equal(h.value[:, [6, 15]], by_hand[0])
        np.testing.assert_array_equal(cs[:, [6, 15]], by_hand[1])

    def test_gather_passes_grad_check_into_h_and_c_rows(self):
        """The walk over that tree with an every-node input, so levels of
        three and two nodes take both an input and children gathered from
        lower levels: the gradient reaches each child's h rows (through
        the gate product) and c rows (through the forget gates), checked
        in the gate weight, the bias and the input."""
        d, k = 4, 3
        rng = np.random.default_rng(31)
        block = make_block(k, d, rng, scale=0.7)
        tree = parse_tree(SPREAD)
        x = Parameter("x", rng.uniform(-0.9, 0.9, (d, tree.node_count)))
        probe = rng.standard_normal((k, tree.node_count))

        def build():
            g = Graph()
            h = walk_tree(g, tree, block, g.parameter(x)).h
            return g, total(g, g.hadamard(g.tanh(h), g.constant(probe)))

        assert grad_check(build, [block.block.weight, block.block.bias, x], eps=1e-5) < 1e-4

    def test_walk_passes_grad_check(self):
        """The whole encoding of that tree, whose input is its leaves'
        word vectors, every node's h in the loss."""
        d, k = 4, 3
        vocab, table = toy_vocab(d, list("abcdefghi"), scale=0.6)
        block = make_block(k, d, np.random.default_rng(8), scale=0.5)
        tree = parse_tree(SPREAD)
        probe = np.random.default_rng(9).standard_normal((k, tree.node_count))

        def build():
            g = Graph()
            states = encode_tree(g, tree, vocab, table, block)
            return g, total(g, g.hadamard(g.tanh(states.h), g.constant(probe)))

        worst = grad_check(
            build, [block.block.weight, block.block.bias, table.trainable], eps=1e-5)
        assert worst < 1e-4


def memory(states, tree, block):
    """The c matrix of a tape walk, from its op's input."""
    w, b = block.block.weight.value, block.block.bias.value
    return walk_values(forest_schedule([tree]), states.h.parents[-1].value, w, b,
                       block.k_out)[1]


def toy_vocab(d, tokens, seed=0, scale=0.5):
    vocab, table = empty_vocabulary(d)
    rng = np.random.default_rng(seed)
    register_oov(vocab, table, tokens, rng)
    table.trainable.value[...] = rng.uniform(-scale, scale,
                                             table.trainable.value.shape)
    return vocab, table


class TestEncodeTree:
    def test_subtree_encoding_ignores_siblings(self):
        """The state of ( a b ) must be bitwise identical whatever tree
        it is embedded in: composition is strictly bottom-up."""
        d = k = 3
        vocab, table = toy_vocab(d, ["a", "b", "c", "d"])
        block = make_block(k, d, np.random.default_rng(2), scale=0.4)

        t1, t2 = parse_tree("( ( a b ) c )"), parse_tree("( ( a b ) ( c ( d d ) ) )")
        s1 = encode_tree(Graph(), t1, vocab, table, block)
        s2 = encode_tree(Graph(), t2, vocab, table, block)
        # node ids: leaves a=0, b=1 and their parent 2 in both trees; c
        # stays inside the walk op, whose forward is walk_values
        np.testing.assert_array_equal(s1.h.value[:, 2], s2.h.value[:, 2])
        c1, c2 = (memory(states, tree, block) for states, tree in ((s1, t1), (s2, t2)))
        np.testing.assert_array_equal(c1[:, 2], c2[:, 2])

    def test_single_leaf_tree(self):
        d = k = 2
        vocab, table = toy_vocab(d, ["only"])
        block = make_block(k, d, np.random.default_rng(3))
        g = Graph()
        states = encode_tree(g, parse_tree("only"), vocab, table, block)
        assert [node.op for node in g.nodes].count("lstm_cell") == 1
        assert len(states.h.parents) == 3  # W, b, then x
        assert states.h.shape == (k, 1)

    def test_rejects_width_mismatch(self):
        vocab, table = toy_vocab(3, ["a"])
        block = make_block(2, 5, np.random.default_rng(0))  # wants d = 5
        with pytest.raises(ShapeMismatch):
            encode_tree(Graph(), parse_tree("a"), vocab, table, block)

    def test_gradient_through_whole_tree(self):
        d, k = 4, 3
        vocab, table = toy_vocab(d, ["a", "b", "c"], scale=0.6)
        block = make_block(k, d, np.random.default_rng(7), scale=0.5)
        tree = parse_tree("( ( a b ) ( c a ) )")

        def build():
            g = Graph()
            states = encode_tree(g, tree, vocab, table, block)
            return g, total(g, g.take_col(states.h, tree.root))

        worst = grad_check(
            build, [block.block.weight, block.block.bias, table.trainable],
            eps=1e-5)
        assert worst < 1e-4

    def test_dropout_draws_differ_but_eval_mode_is_stable(self):
        d = k = 3
        vocab, table = toy_vocab(d, ["a", "b"])
        block = make_block(k, d, np.random.default_rng(4), scale=0.4)
        tree = parse_tree("( a b )")

        def encode(rate, rng):
            g = Graph()
            states = encode_tree(g, tree, vocab, table, block, rate, rng)
            return states.h.value[:, tree.root]

        base = encode(0.0, None)
        np.testing.assert_array_equal(base, encode(0.0, None))

        rng = np.random.default_rng(0)
        dropped = [encode(0.5, rng) for _ in range(8)]
        assert any(not np.array_equal(base, d_) for d_ in dropped)

        # same seed, same masks, same encoding
        a = encode(0.5, np.random.default_rng(123))
        b = encode(0.5, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)


class TestLevels:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
    def test_one_cell_per_level_over_a_height_schedule(self, seed, n):
        """The schedule covers every id once, each node one level above
        the higher of its two children; the tape walk records one
        lstm_cell op for the tree, which runs one cell per level and lists
        the gate weight, the bias and the input once each as its parents."""
        leaves = [("a", "b", "c")[i % 3] for i in range(n)]
        tree = random_tree(np.random.default_rng(seed), leaves)
        levels = forest_schedule([tree])[1]
        level_of = {}
        for height, (ids, _, _) in enumerate(levels):
            ids = np.arange(tree.node_count)[ids].tolist()
            assert ids == sorted(ids)
            for i in ids:
                assert i not in level_of
                level_of[i] = height
        assert sorted(level_of) == list(range(tree.node_count))
        for i in range(tree.node_count):
            if tree.is_leaf(i):
                assert level_of[i] == 0
            else:
                assert level_of[i] == 1 + max(level_of[tree.lefts[i]], level_of[tree.rights[i]])

        vocab, table = toy_vocab(3, ["a", "b", "c"])
        g = Graph()
        block = make_block(2, 3, np.random.default_rng(1))
        states = encode_tree(g, tree, vocab, table, block)
        assert [node.op for node in g.nodes].count("lstm_cell") == 1
        w, b = (g.parameter(p) for p in (block.block.weight, block.block.bias))
        assert states.h.parents == (w, b, states.h.parents[-1])
        assert states.h.shape == (2, tree.node_count)
