"""End-to-end acceptance gate.

One test per shipped criterion.  Each test prints a single
``criterion N: PASS/FAIL`` line carrying the measured quantities, so a
verbose run doubles as the acceptance report; the asserts make the
verdict binding.  The learnability and ablation checks share one pair
of trained models through a module fixture because training them is by
far the most expensive step in the suite.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from treentail.attention import mix_alignments, row_entropy
from treentail.autodiff import AffineMap, Graph
from treentail.cli import main
from treentail.composer import LstmParameters, cell_values, walk_tree
from treentail.data import generate_toy, has_distractor, load_snli, random_tree
from treentail.embeddings import empty_vocabulary, register_oov
from treentail.entailment import predict, run_forward
from treentail.trainer import (
    TrainConfig,
    full_model_grad_check,
    init_parameters,
    parameter_count,
    train,
)
from treentail.trees import parse_tree, serialize

FIXTURE = Path(__file__).resolve().parent / "data" / "snli_fixture.jsonl"

TOKEN_POOL = [
    "a", "is", "by", "cat", "dog", "boy", "girl", "woman", "animal",
    "person", "sleeping", "running", "smiling", "crying", "tree", "door",
]


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def learnability_runs():
    """One 30-epoch training run per attention mode, identical seeds."""
    train_set = generate_toy(0, 500)
    dev_set = generate_toy(1, 150)
    runs = {}
    for dual in (False, True):
        config = TrainConfig(k=32, r=32, epochs=30, seed=0, use_dual=dual)
        runs[dual] = (config, *train(train_set, dev_set, config))
    return train_set, dev_set, runs


def test_criterion_1_parameter_count():
    config = TrainConfig()  # k = r = 150, d = 300, shared scorer
    count = parameter_count(config)
    params = init_parameters(config, np.random.default_rng(0))
    enumerated = sum(p.value.size for p in params.trainable())
    ok = (
        count == 902_254
        and abs(count - 900_000) <= 0.05 * 900_000
        and count == enumerated
    )
    assert report(
        1, ok,
        f"parameter_count {count:,}, enumerated trainables {enumerated:,}, "
        f"{abs(count - 900_000) / 9_000:.2f}% off the 0.9m reference",
    )


def test_criterion_2_full_model_gradient_oracle():
    """Finite-difference audit at the pinned dims: k=r=8, d=10, seed 0,
    20 random tree pairs, eps 1e-4, dual attention on."""
    start = time.perf_counter()
    worst = full_model_grad_check()
    elapsed = time.perf_counter() - start
    assert report(
        2, worst < 1e-4,
        f"max relative gradient error {worst:.3e} over every trainable "
        f"scalar ({elapsed:.0f}s)",
    )


def test_criterion_3_distribution_invariants():
    """1,000 random model/tree draws keep every attention row stochastic
    and every class probability inside the tanh-softmax range.

    The closed-form bounds are 1/(1+2e^2) = 0.06337... and
    e^2/(e^2+2) = 0.78698...; the asserted interval is the four-decimal
    version, and untrained models sit far inside it.
    """
    rng = np.random.default_rng(20)
    worst_row = 0.0
    p_lo, p_hi = 1.0, 0.0
    for _ in range(1000):
        k, r = (int(v) for v in rng.integers(2, 9, size=2))
        d = int(rng.integers(3, 11))
        config = TrainConfig(k=k, r=r, d=d)
        vocab, table = empty_vocabulary(d)
        register_oov(vocab, table, TOKEN_POOL, rng)
        params = init_parameters(config, rng)
        trees = []
        for _ in range(2):
            n = int(rng.integers(3, 8))
            leaves = [TOKEN_POOL[int(rng.integers(len(TOKEN_POOL)))] for _ in range(n)]
            trees.append(random_tree(rng, leaves))
        run = run_forward(Graph(), trees[0], trees[1], vocab, table, params,
                          use_dual=True)
        for matrix in (run.forward_attention, run.reverse_attention,
                       run.final_attention):
            worst_row = max(worst_row,
                            float(np.abs(matrix.sum(axis=1) - 1.0).max()))
        probs = run.distribution.value[:, 0]
        p_lo = min(p_lo, float(probs.min()))
        p_hi = max(p_hi, float(probs.max()))
    ok = worst_row <= 1e-9 and p_lo >= 0.0634 and p_hi <= 0.7869
    assert report(
        3, ok,
        f"worst row-sum deviation {worst_row:.2e}; class probabilities "
        f"spanned [{p_lo:.4f}, {p_hi:.4f}] within [0.0634, 0.7869]",
    )


def test_criterion_4_expectation_semantics():
    rng = np.random.default_rng(4)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
        count = int(rng.integers(1, 6))
        alignments = []
        for _ in range(count):
            a = np.zeros((rows, cols))
            a[np.arange(rows), rng.integers(0, cols, size=rows)] = 1.0
            alignments.append(a)
        mixed = mix_alignments(alignments, rng.dirichlet(np.ones(count)))
        assert mixed.min() >= 0.0
        np.testing.assert_allclose(mixed.sum(axis=1), 1.0, atol=1e-12)

    # The quoted hand case: two alignments put row 0 on column 0, the
    # third on column 1, weighted (1/3, 1/2, 1/6).
    first = np.zeros((4, 4))
    first[:, 0] = 1.0
    second = first.copy()
    third = np.zeros((4, 4))
    third[:, 1] = 1.0
    mixed = mix_alignments([first, second, third], [1 / 3, 1 / 2, 1 / 6])
    # Exactness means the in-order accumulation 1/3·1 + 1/2·1 + 1/6·0,
    # which differs from the float nearest to 5/6 by one unit in the
    # last place; both identities are pinned.
    ok = (
        mixed[0, 0] == (1 / 3) * 1.0 + (1 / 2) * 1.0
        and mixed[0, 1] == 1 / 6
        and mixed[0, 2] == 0.0 and mixed[0, 3] == 0.0
        and np.allclose(mixed[0], [5 / 6, 1 / 6, 0.0, 0.0], rtol=1e-15, atol=0.0)
    )
    assert report(
        4, ok,
        f"200 random mixtures row-stochastic; hand row {mixed[0].tolist()} "
        f"matches the weighted accumulation exactly and 5/6 within 1e-15",
    )


def test_criterion_5_composition_cell_oracle():
    """100 random k=3 cells against an in-file scalar transcription, and
    one tape walk over ( a b ) against three chained scalar cells."""

    def logistic(v):
        return 1.0 / (1.0 + math.exp(-v))

    def scalar_cell(w, b, x, h1, h2, c1, c2):
        stacked = list(x) + list(h1) + list(h2)
        pre = [sum(w[m][j] * stacked[j] for j in range(len(stacked))) + b[m, 0]
               for m in range(5 * k)]
        expect_h, expect_c = [], []
        for m in range(k):
            candidate = math.tanh(pre[4 * k + m])
            memory = (logistic(pre[m]) * candidate
                      + logistic(pre[k + m]) * c1[m]
                      + logistic(pre[2 * k + m]) * c2[m])
            expect_c.append(memory)
            expect_h.append(logistic(pre[3 * k + m]) * math.tanh(memory))
        return expect_h, expect_c

    rng = np.random.default_rng(5)
    k = 3
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        w = rng.standard_normal((5 * k, d + 2 * k))
        b = rng.standard_normal((5 * k, 1))
        x, h1, h2, c1, c2 = (rng.standard_normal(n) for n in (d, k, k, k, k))
        expect_h, expect_c = scalar_cell(w, b, x, h1, h2, c1, c2)
        columns = (v.reshape(-1, 1) for v in (x, h1, h2, c1, c2))
        h, c = cell_values(w, b, *columns, k)[:2]
        worst = max(worst, float(np.abs(h[:, 0] - expect_h).max()),
                    float(np.abs(c[:, 0] - expect_c).max()))

    # The tape: a walk over ( a b ) whose every node reads an input column.
    d = 4
    w = rng.standard_normal((5 * k, d + 2 * k))
    b = rng.standard_normal((5 * k, 1))
    x = rng.standard_normal((d, 3))
    zero = [0.0] * k
    a_h, a_c = scalar_cell(w, b, x[:, 0], zero, zero, zero, zero)
    b_h, b_c = scalar_cell(w, b, x[:, 1], zero, zero, zero, zero)
    root_h, _ = scalar_cell(w, b, x[:, 2], a_h, b_h, a_c, b_c)
    g = Graph()
    walk = walk_tree(g, parse_tree("( a b )"), LstmParameters(AffineMap.from_arrays(
        "cell", w, b)), g.constant(x)).h
    tape_worst = float(np.abs(walk.value - np.array([a_h, b_h, root_h]).T).max())
    assert report(
        5, worst <= 1e-12 and tape_worst <= 1e-12,
        f"max |cell − scalar transcription| = {worst:.2e} over 100 cases; "
        f"max |tape walk − chained scalar cells| = {tape_worst:.2e}",
    )


def test_criterion_6_learnability(learnability_runs):
    """The pinned recipe must clear 95% train / 85% dev inside 30 epochs
    with the two-way attention both off and on."""
    _, _, runs = learnability_runs
    details = []
    ok = True
    for dual in (False, True):
        _, _, _, _, metrics = runs[dual]
        hit = next((m for m in metrics
                    if m.train_accuracy >= 0.95 and m.dev_accuracy >= 0.85), None)
        mode = "on" if dual else "off"
        if hit is None:
            ok = False
            details.append(
                f"dual={mode} missed: max train "
                f"{max(m.train_accuracy for m in metrics):.3f}, max dev "
                f"{max(m.dev_accuracy for m in metrics):.3f}")
        else:
            details.append(
                f"dual={mode} hit at epoch {hit.epoch} "
                f"(train {hit.train_accuracy:.3f}, dev {hit.dev_accuracy:.3f})")
    assert report(6, ok, "; ".join(details))


def test_criterion_7_ablation_entropy_direction(learnability_runs):
    """Sharper alignments from the two-way product on distractor pairs.

    Both models come from the same seed and corpus, so the comparison
    isolates the attention mode.  The check asks for the two-way model's
    final alignment to carry no more row entropy than the one-way
    model's on at least 70% of hypothesis rows over premises with the
    distractor phrase.

    It fails, and the failure is structural rather than a tuning
    accident.  The pair score here is affine in the concatenated node
    vectors, so it splits into a hypothesis-node term plus a
    premise-node term.  Row softmax cancels the first, column softmax
    cancels the second, and row-renormalizing the elementwise product
    divides the reverse factor back out — leaving the forward matrix
    unchanged except for the 1e-12 renormalization floor, which drags
    every row slightly toward uniform.  The two-way entropy is therefore
    systematically (if marginally) LARGER on every non-degenerate row,
    with shared or separate reverse scorers alike, so no seed or
    training budget reaches the 70% mark.  The red result is kept as an
    honest record of how this architecture actually behaves; the
    report line carries the measured fraction.
    """
    _, dev_set, runs = learnability_runs
    distractor = [p for p in dev_set if has_distractor(p)]
    assert distractor, "toy dev split must contain distractor premises"

    _, fwd_params, fwd_vocab, fwd_table, _ = runs[False]
    _, dual_params, dual_vocab, dual_table, _ = runs[True]

    not_above = 0
    total = 0
    for pair in distractor:
        one_way = predict(pair.premise, pair.hypothesis, fwd_vocab, fwd_table,
                          fwd_params, use_dual=False)
        two_way = predict(pair.premise, pair.hypothesis, dual_vocab, dual_table,
                          dual_params, use_dual=True)
        gap = row_entropy(two_way.final_attention) - row_entropy(one_way.final_attention)
        not_above += int((gap <= 0.0).sum())
        total += gap.size
    fraction = not_above / total
    assert report(
        7, fraction >= 0.7,
        f"two-way row entropy ≤ one-way on {fraction:.1%} of {total} "
        f"hypothesis rows across {len(distractor)} distractor pairs "
        f"(needed ≥ 70%)",
    )


def test_criterion_8_deterministic_cli_runs(tmp_path):
    corpus = tmp_path / "train.jsonl"
    devfile = tmp_path / "dev.jsonl"
    assert main(["toydata", "--out", str(corpus), "--n", "36", "--seed", "7"]) == 0
    assert main(["toydata", "--out", str(devfile), "--n", "12", "--seed", "8"]) == 0

    def run(out):
        code = main([
            "train", "--data", str(corpus), "--dev", str(devfile),
            "--out", str(out), "--k", "6", "--r", "5", "--d", "8",
            "--epochs", "3", "--batch-size", "8", "--seed", "11",
        ])
        assert code == 0
        return ((out / "checkpoint.tent").read_bytes(),
                (out / "metrics.tsv").read_bytes())

    first_ckpt, first_metrics = run(tmp_path / "one")
    second_ckpt, second_metrics = run(tmp_path / "two")
    ok = first_ckpt == second_ckpt and first_metrics == second_metrics
    assert report(
        8, ok,
        f"checkpoint ({len(first_ckpt):,} bytes) and metrics "
        f"({len(first_metrics)} bytes) byte-identical across reruns",
    )


def test_criterion_9_snli_ingestion_round_trip():
    pairs, skipped = load_snli(FIXTURE)
    records = [json.loads(line)
               for line in FIXTURE.read_text(encoding="utf-8").splitlines()
               if line.strip()]
    kept = [r for r in records if r["gold_label"] != "-"]
    ok = len(pairs) == 8 and skipped == 2 and len(kept) == len(pairs)
    for record, pair in zip(kept, pairs):
        ok = ok and serialize(pair.premise) == record["sentence1_binary_parse"]
        ok = ok and serialize(pair.hypothesis) == record["sentence2_binary_parse"]
        ok = ok and pair.gold == record["gold_label"]
    assert report(
        9, ok,
        f"{len(pairs)} pairs and {skipped} skipped from {len(records)} "
        f"records; every parse round-trips byte-equal",
    )
