"""The five-gate tree composition cell and whole-tree encoding.

The cell's vectorized forward is checked against a scalar transcription
that computes every gate entry with explicit loops and the exp form of
the logistic function -- an independent derivation, not a refactoring
of the production code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treentail.autodiff import (
    AffineMap,
    Graph,
    Parameter,
    ShapeMismatch,
    backward,
    grad_check,
)
from treentail.composer import LstmParameters, encode_tree, lstm_cell
from treentail.data import random_tree
from treentail.embeddings import empty_vocabulary, register_oov
from treentail.trees import parse_tree

from tape_helpers import all_columns, total


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


def child(graph, h, c):
    """A child gather of constant states ``h`` and ``c``, one column each."""
    return all_columns(graph.constant(np.vstack((h, c))))


class TestCellValues:
    def test_zero_everything_gives_zero_state(self):
        k, d = 4, 3
        block = LstmParameters(AffineMap.from_arrays(
            "z", np.zeros((5 * k, d + 2 * k)), np.zeros((5 * k, 1))))
        g = Graph()
        zero = child(g, np.zeros((k, 1)), np.zeros((k, 1)))
        out = lstm_cell(g, block, g.constant(np.zeros((d, 1))), zero, zero)
        # gates are all 0.5 but the candidate tanh(0) = 0, so c = h = 0
        np.testing.assert_array_equal(out.value[k:], 0.0)
        np.testing.assert_array_equal(out.value[:k], 0.0)

    def test_zero_params_carry_half_of_child_memory(self):
        """With zero weights each forget gate is exactly 1/2, so the new
        memory is the mean of the children's memories."""
        k, d = 2, 3
        block = LstmParameters(AffineMap.from_arrays(
            "z", np.zeros((5 * k, d + 2 * k)), np.zeros((5 * k, 1))))
        g = Graph()
        left = child(g, np.zeros((k, 1)), np.ones((k, 1)))
        right = child(g, np.zeros((k, 1)), np.ones((k, 1)))
        out = lstm_cell(g, block, g.constant(np.zeros((d, 1))), left, right)
        np.testing.assert_allclose(out.value[k:], 1.0, atol=1e-15)
        np.testing.assert_allclose(out.value[:k], 0.5 * np.tanh(1.0), atol=1e-15)

    def test_matches_scalar_transcription(self):
        k, d = 3, 4
        rng = np.random.default_rng(12)
        for case in range(100):
            block = make_block(k, d, rng)
            x = rng.standard_normal((d, 1))
            h1, h2 = rng.standard_normal((2, k, 1))
            c1, c2 = rng.standard_normal((2, k, 1)) * 2
            g = Graph()
            out = lstm_cell(g, block, g.constant(x), child(g, h1, c1), child(g, h2, c2))
            h_ref, c_ref = scalar_cell(
                block.block.weight.value, block.block.bias.value[:, 0],
                x[:, 0], h1[:, 0], h2[:, 0], c1[:, 0], c2[:, 0], k)
            np.testing.assert_allclose(out.value[:k, 0], h_ref, atol=1e-12,
                                       err_msg=f"case {case} (h)")
            np.testing.assert_allclose(out.value[k:, 0], c_ref, atol=1e-12,
                                       err_msg=f"case {case} (c)")

    def test_exposed_vector_is_strictly_inside_unit_box(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            block = make_block(5, 6, rng, scale=3.0)
            g = Graph()
            out = lstm_cell(
                g, block, g.constant(rng.standard_normal((6, 1)) * 4),
                child(g, rng.uniform(-1, 1, (5, 1)), rng.standard_normal((5, 1)) * 5),
                child(g, rng.uniform(-1, 1, (5, 1)), rng.standard_normal((5, 1)) * 5),
            )
            assert np.abs(out.value[:5]).max() < 1.0

    def test_shape_guards(self):
        rng = np.random.default_rng(0)
        block = make_block(2, 3, rng)
        g = Graph()
        ok = child(g, np.zeros((2, 1)), np.zeros((2, 1)))
        bad = child(g, np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ShapeMismatch):
            lstm_cell(g, block, g.constant(np.zeros((5, 1))), ok, ok)
        with pytest.raises(ShapeMismatch):
            lstm_cell(g, block, g.constant(np.zeros((3, 1))), ok, bad)
        with pytest.raises(ShapeMismatch):
            LstmParameters(AffineMap.from_arrays("w", np.zeros((7, 9)), np.zeros((7, 1))))
        with pytest.raises(ShapeMismatch):
            # five rows per output leaves no input columns
            LstmParameters(AffineMap.from_arrays("w", np.zeros((10, 4)), np.zeros((10, 1))))


    def test_level_guards(self):
        """A level cell takes m columns of input, of child states, or of
        both, and every part must have the same m."""
        block = make_block(2, 3, np.random.default_rng(0))
        g = Graph()
        pair = child(g, np.zeros((2, 2)), np.zeros((2, 2)))
        x2, x3 = g.constant(np.zeros((3, 2))), g.constant(np.zeros((3, 3)))
        assert lstm_cell(g, block, x2).shape == (4, 2)
        assert lstm_cell(g, block, None, pair, pair).shape == (4, 2)
        for x, left, right in ((None, (), ()), (x2, pair, ()), (None, (), pair),
                               (x3, pair, pair)):
            with pytest.raises(ShapeMismatch):
                lstm_cell(g, block, x, left, right)


class TestCellGradients:
    def test_all_seven_input_paths_pass_grad_check(self):
        """Weights, bias, x, both child vectors, both child memories."""
        k, d = 3, 4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            block = make_block(k, d, rng, scale=0.7)
            leaves = {
                "x": Parameter("x", rng.standard_normal((d, 1))),
                "h1": Parameter("h1", rng.uniform(-0.9, 0.9, (k, 1))),
                "h2": Parameter("h2", rng.uniform(-0.9, 0.9, (k, 1))),
                "c1": Parameter("c1", rng.standard_normal((k, 1))),
                "c2": Parameter("c2", rng.standard_normal((k, 1))),
            }

            def build():
                g = Graph()

                left = g.concat([g.parameter(leaves["h1"]), g.parameter(leaves["c1"])])
                right = g.concat([g.parameter(leaves["h2"]), g.parameter(leaves["c2"])])
                out = lstm_cell(g, block, g.parameter(leaves["x"]),
                                all_columns(left), all_columns(right))
                return g, total(g, g.tanh(out))

            checked = [block.block.weight, block.block.bias, *leaves.values()]
            worst = grad_check(build, checked, eps=1e-5)
            assert worst < 1e-4, f"seed {seed}: {worst:.3e}"


    @pytest.mark.parametrize("has_x, has_children", [(True, False), (False, True),
                                                     (True, True)])
    def test_level_of_three_columns_passes_grad_check(self, has_x, has_children):
        """A level cell over m = 3 columns, with each column block of the
        gate weight that a level can use."""
        k, d, m = 3, 4, 3
        rng = np.random.default_rng(31)
        block = make_block(k, d, rng, scale=0.7)
        leaves = {name: Parameter(name, rng.uniform(-0.9, 0.9, (rows, m)))
                  for name, rows in (("x", d), ("h1", k), ("h2", k), ("c1", k), ("c2", k))}

        def build():
            g = Graph()
            x = g.parameter(leaves["x"]) if has_x else None
            left = right = ()
            if has_children:
                left = all_columns(g.concat([g.parameter(leaves["h1"]),
                                             g.parameter(leaves["c1"])]))
                right = all_columns(g.concat([g.parameter(leaves["h2"]),
                                              g.parameter(leaves["c2"])]))
            out = lstm_cell(g, block, x, left, right)
            assert out.shape == (2 * k, m)
            return g, total(g, g.tanh(out))

        used = ["x"] * has_x + ["h1", "h2", "c1", "c2"] * has_children
        checked = [block.block.weight, block.block.bias, *(leaves[n] for n in used)]
        assert grad_check(build, checked, eps=1e-5) < 1e-4


# Level 3 holds ( ( ( a b ) c ) d ) and ( ( e f ) ( ( g h ) i ) ), whose
# children sit on levels 2 and 0, and 1 and 2.
SPREAD = "( ( ( ( a b ) c ) d ) ( ( e f ) ( ( g h ) i ) ) )"


class TestLevelGather:
    def test_a_level_reads_children_from_three_lower_levels(self):
        """Level 3's cell takes the nodes of levels 0, 1 and 2 as parents,
        and its states equal a cell run on the children gathered by hand."""
        d, k = 4, 3
        vocab, table = toy_vocab(d, list("abcdefghi"))
        block = make_block(k, d, np.random.default_rng(5), scale=0.5)
        tree = parse_tree(SPREAD)
        assert tree.levels[3] == (6, 15)  # children (4, 5) and (9, 14)
        g = Graph()
        states = encode_tree(g, tree, vocab, table, block)
        levels = states.levels
        # left children on levels 1 and 2, right children on levels 0 and 2
        assert [p for p in levels[3].parents if p.op == "lstm_cell"] == [
            levels[1], levels[2], levels[0], levels[2]]

        def column(i):
            height = next(h for h, ids in enumerate(tree.levels) if i in ids)
            return levels[height].value[:, tree.levels[height].index(i)]

        by_hand = lstm_cell(g, block, None,
                            all_columns(g.constant(np.stack([column(4), column(9)], 1))),
                            all_columns(g.constant(np.stack([column(5), column(14)], 1))))
        np.testing.assert_array_equal(levels[3].value, by_hand.value)

    def test_gather_passes_grad_check_into_h_and_c_rows(self):
        """A cell of three columns whose children sit on three parameter
        sources, read by an id, a slice and an id array: the gradient
        reaches each source's h rows (through the gate product) and c
        rows (through the forget gates)."""
        k = 3
        rng = np.random.default_rng(17)
        block = make_block(k, 2, rng, scale=0.7)
        sources = [Parameter(f"source{s}", rng.uniform(-0.9, 0.9, (2 * k, 5)))
                   for s in range(3)]
        probe = rng.standard_normal((2 * k, 3))

        def build():
            g = Graph()
            s0, s1, s2 = (g.parameter(p) for p in sources)
            left = [(s0, np.array([2, 0]), np.array([4, 1])), (s1, 1, 3)]
            right = [(s2, slice(0, 2), slice(3, 5)), (s0, 2, 0)]
            out = lstm_cell(g, block, None, left, right)
            return g, total(g, g.hadamard(g.tanh(out), g.constant(probe)))

        grads = backward(*build())
        for p in sources:
            assert np.abs(grads[p][:k]).max() > 0 and np.abs(grads[p][k:]).max() > 0
        assert grad_check(build, [block.block.weight, block.block.bias, *sources],
                          eps=1e-5) < 1e-4

    def test_walk_passes_grad_check(self):
        """The whole walk over that tree, every node's h in the loss."""
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

        g1 = Graph()
        s1 = encode_tree(g1, parse_tree("( ( a b ) c )"), vocab, table, block)
        g2 = Graph()
        s2 = encode_tree(g2, parse_tree("( ( a b ) ( c ( d d ) ) )"), vocab, table, block)
        # node ids: leaves a=0, b=1 and their parent 2 in both trees, the
        # first node of level 1 in both; the level's rows are [h; c]
        np.testing.assert_array_equal(s1.h.value[:, 2], s2.h.value[:, 2])
        np.testing.assert_array_equal(s1.levels[1].value[:, 0], s2.levels[1].value[:, 0])

    def test_single_leaf_tree(self):
        d = k = 2
        vocab, table = toy_vocab(d, ["only"])
        block = make_block(k, d, np.random.default_rng(3))
        g = Graph()
        states = encode_tree(g, parse_tree("only"), vocab, table, block)
        assert len(states.levels) == 1
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
        """The schedule covers every id once, each node above both of its
        children; the tape walk records one lstm_cell per level."""
        leaves = [("a", "b", "c")[i % 3] for i in range(n)]
        tree = random_tree(np.random.default_rng(seed), leaves)
        level_of = {}
        for height, ids in enumerate(tree.levels):
            assert list(ids) == sorted(ids)
            for i in ids:
                assert i not in level_of
                level_of[i] = height
        assert sorted(level_of) == list(range(tree.node_count))
        for i in range(tree.node_count):
            if tree.is_leaf(i):
                assert level_of[i] == 0
            else:
                assert level_of[i] > max(level_of[tree.lefts[i]], level_of[tree.rights[i]])

        vocab, table = toy_vocab(3, ["a", "b", "c"])
        g = Graph()
        block = make_block(2, 3, np.random.default_rng(1))
        states = encode_tree(g, tree, vocab, table, block)
        assert sum(node.op == "lstm_cell" for node in g.nodes) == len(tree.levels)
        assert states.h.shape == (2, tree.node_count)
        assert [level.shape for level in states.levels] == [
            (4, len(ids)) for ids in tree.levels]
