"""The five-gate tree composition cell and whole-tree encoding.

The cell's vectorized forward is checked against a scalar transcription
that computes every gate entry with explicit loops and the exp form of
the logistic function -- an independent derivation, not a refactoring
of the production code.
"""

import math

import numpy as np
import pytest

from treentail.autodiff import AffineMap, Graph, Parameter, ShapeMismatch, grad_check
from treentail.composer import LstmParameters, encode_tree, lstm_cell
from treentail.embeddings import empty_vocabulary, register_oov
from treentail.trees import BinaryTree, parse_tree, post_order


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


class FakeState:
    def __init__(self, graph, h, c):
        self.h = graph.constant(h)
        self.c = graph.constant(c)


class TestCellValues:
    def test_zero_everything_gives_zero_state(self):
        k, d = 4, 3
        block = LstmParameters(AffineMap.from_arrays(
            "z", np.zeros((5 * k, d + 2 * k)), np.zeros((5 * k, 1))))
        g = Graph()
        zero = FakeState(g, np.zeros((k, 1)), np.zeros((k, 1)))
        out = lstm_cell(g, block, g.constant(np.zeros((d, 1))), zero, zero)
        # gates are all 0.5 but the candidate tanh(0) = 0, so c = h = 0
        np.testing.assert_array_equal(out.c.value, 0.0)
        np.testing.assert_array_equal(out.h.value, 0.0)

    def test_zero_params_carry_half_of_child_memory(self):
        """With zero weights each forget gate is exactly 1/2, so the new
        memory is the mean of the children's memories."""
        k, d = 2, 3
        block = LstmParameters(AffineMap.from_arrays(
            "z", np.zeros((5 * k, d + 2 * k)), np.zeros((5 * k, 1))))
        g = Graph()
        left = FakeState(g, np.zeros((k, 1)), np.ones((k, 1)))
        right = FakeState(g, np.zeros((k, 1)), np.ones((k, 1)))
        out = lstm_cell(g, block, g.constant(np.zeros((d, 1))), left, right)
        np.testing.assert_allclose(out.c.value, 1.0, atol=1e-15)
        np.testing.assert_allclose(out.h.value, 0.5 * np.tanh(1.0), atol=1e-15)

    def test_matches_scalar_transcription(self):
        k, d = 3, 4
        rng = np.random.default_rng(12)
        for case in range(100):
            block = make_block(k, d, rng)
            x = rng.standard_normal((d, 1))
            h1, h2 = rng.standard_normal((2, k, 1))
            c1, c2 = rng.standard_normal((2, k, 1)) * 2
            g = Graph()
            out = lstm_cell(g, block, g.constant(x),
                            FakeState(g, h1, c1), FakeState(g, h2, c2))
            h_ref, c_ref = scalar_cell(
                block.block.weight.value, block.block.bias.value[:, 0],
                x[:, 0], h1[:, 0], h2[:, 0], c1[:, 0], c2[:, 0], k)
            np.testing.assert_allclose(out.h.value[:, 0], h_ref, atol=1e-12,
                                       err_msg=f"case {case} (h)")
            np.testing.assert_allclose(out.c.value[:, 0], c_ref, atol=1e-12,
                                       err_msg=f"case {case} (c)")

    def test_exposed_vector_is_strictly_inside_unit_box(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            block = make_block(5, 6, rng, scale=3.0)
            g = Graph()
            out = lstm_cell(
                g, block, g.constant(rng.standard_normal((6, 1)) * 4),
                FakeState(g, rng.uniform(-1, 1, (5, 1)), rng.standard_normal((5, 1)) * 5),
                FakeState(g, rng.uniform(-1, 1, (5, 1)), rng.standard_normal((5, 1)) * 5),
            )
            assert np.abs(out.h.value).max() < 1.0

    def test_shape_guards(self):
        rng = np.random.default_rng(0)
        block = make_block(2, 3, rng)
        g = Graph()
        ok = FakeState(g, np.zeros((2, 1)), np.zeros((2, 1)))
        bad = FakeState(g, np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ShapeMismatch):
            lstm_cell(g, block, g.constant(np.zeros((5, 1))), ok, ok)
        with pytest.raises(ShapeMismatch):
            lstm_cell(g, block, g.constant(np.zeros((3, 1))), ok, bad)
        with pytest.raises(ShapeMismatch):
            LstmParameters(AffineMap.from_arrays("w", np.zeros((7, 9)), np.zeros((7, 1))))
        with pytest.raises(ShapeMismatch):
            # five rows per output leaves no input columns
            LstmParameters(AffineMap.from_arrays("w", np.zeros((10, 4)), np.zeros((10, 1))))


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

                class S:
                    pass

                left, right = S(), S()
                left.h = g.parameter(leaves["h1"])
                left.c = g.parameter(leaves["c1"])
                right.h = g.parameter(leaves["h2"])
                right.c = g.parameter(leaves["c2"])
                out = lstm_cell(g, block, g.parameter(leaves["x"]), left, right)
                return g, g.total(g.tanh(g.concat([out.h, out.c])))

            checked = [block.block.weight, block.block.bias, *leaves.values()]
            worst = grad_check(build, checked, eps=1e-5)
            assert worst < 1e-4, f"seed {seed}: {worst:.3e}"


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
        # node ids: leaves a=0, b=1 and their parent 2 in both trees
        np.testing.assert_array_equal(s1[2].h.value, s2[2].h.value)
        np.testing.assert_array_equal(s1[2].c.value, s2[2].c.value)

    def test_ids_out_of_dfs_order_encode_like_the_parsed_tree(self):
        """Any child-before-parent numbering is a valid walk order: the
        walker sweeps ids, not a DFS, and must still reach the same root
        state bit for bit."""
        d = k = 3
        vocab, table = toy_vocab(d, ["a", "b", "c", "d"])
        block = make_block(k, d, np.random.default_rng(5), scale=0.4)
        shuffled = BinaryTree(tokens=("a", "b", "c", "d", None, None, None),
                              lefts=(-1, -1, -1, -1, 0, 1, 4),
                              rights=(-1, -1, -1, -1, 2, 3, 5))
        parsed = parse_tree("( ( a c ) ( b d ) )")
        assert post_order(shuffled) != list(range(shuffled.node_count))

        got = encode_tree(Graph(), shuffled, vocab, table, block)
        want = encode_tree(Graph(), parsed, vocab, table, block)
        np.testing.assert_array_equal(got[shuffled.root].h.value,
                                      want[parsed.root].h.value)
        np.testing.assert_array_equal(got[shuffled.root].c.value,
                                      want[parsed.root].c.value)

    def test_single_leaf_tree(self):
        d = k = 2
        vocab, table = toy_vocab(d, ["only"])
        block = make_block(k, d, np.random.default_rng(3))
        g = Graph()
        states = encode_tree(g, parse_tree("only"), vocab, table, block)
        assert len(states) == 1
        assert states[0].h.shape == (k, 1)

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
            return g, g.total(states[tree.root].h)

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
            return states[tree.root].h.value

        base = encode(0.0, None)
        np.testing.assert_array_equal(base, encode(0.0, None))

        rng = np.random.default_rng(0)
        dropped = [encode(0.5, rng) for _ in range(8)]
        assert any(not np.array_equal(base, d_) for d_ in dropped)

        # same seed, same masks, same encoding
        a = encode(0.5, np.random.default_rng(123))
        b = encode(0.5, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)
