"""Output checks, run after the timed rounds.

Each check compares the program's output against an independent
computation or a property the method must have, never against a stored
copy of an earlier run's output.
"""

from __future__ import annotations

import math
import os
import traceback

import numpy as np

from treentail.autodiff import Graph, Parameter, backward
from treentail.cli import GRAD_TOLERANCE
from treentail.entailment import LABELS, loss_node, plain_forward, plain_loss, predict, run_forward
from treentail.inspection import read_pgm
from treentail.trainer import adam_step, init_optimizer

from inputs import canonical

TAPE_TOLERANCE = 1e-12
FD_EPS = 1e-5
# Softmax of three logits inside (-1, 1): each probability lies strictly
# between these two values, whatever the parameters.
PROB_LOW = 1.0 / (1.0 + 2.0 * math.e ** 2)
PROB_HIGH = math.e ** 2 / (math.e ** 2 + 2.0)


class Report:
    def __init__(self):
        self.results = []

    def check(self, name, passed, detail=""):
        self.results.append((name, bool(passed), detail))

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.results)


def _trainable(params, table):
    return list(params.trainable()) + [table.trainable]


def check_parses(report, records, outputs, deep_ids):
    bad = [r.pair_id for r, prem, hyp in outputs
           if prem != canonical(r.premise) or hyp != canonical(r.hypothesis)]
    report.check("serialize(parse_tree(s)) is canonical", not bad,
                 f"{len(outputs)} records, mismatched: {bad[:3]}")
    failed = {r.pair_id for r in records} - {r.pair_id for r, _, _ in outputs}
    report.check("only the deep-nesting records fail to parse", failed == set(deep_ids),
                 f"failed {sorted(failed)[:5]}")


def check_distributions(report, prep, params, vocab, table):
    """Tape against tape-free forward, the probability band, and
    `evaluate` against argmax agreement recomputed from `plain_forward`."""
    config = prep.config
    plain = [plain_forward(p.premise, p.hypothesis, vocab, table, params,
                           use_dual=config.use_dual, dtype=np.float64) for p in prep.dev]
    worst = 0.0
    for pair, dist in zip(prep.dev[:8], plain):
        graph = Graph(np.float64)
        run = run_forward(graph, pair.premise, pair.hypothesis, vocab, table, params,
                          use_dual=config.use_dual)
        worst = max(worst, float(np.abs(run.distribution.value[:, 0] - dist).max()))
    report.check("run_forward equals plain_forward", worst <= TAPE_TOLERANCE,
                 f"max |diff| {worst:.2e}")

    stacked = np.array(plain)
    sums = np.abs(stacked.sum(axis=1) - 1.0).max()
    report.check("distributions sum to 1 inside the tanh band",
                 sums <= 1e-12 and stacked.min() > PROB_LOW and stacked.max() < PROB_HIGH,
                 f"|sum-1| {sums:.1e}, range [{stacked.min():.4f}, {stacked.max():.4f}] "
                 f"within ({PROB_LOW:.4f}, {PROB_HIGH:.4f})")
    return plain


def check_evaluate(report, prep, evaluation, plain):
    """`evaluate`'s confusion matrix and accuracy against the argmax of
    `plain_forward`, counted here."""
    accuracy, confusion = evaluation
    expected = np.zeros((len(LABELS), len(LABELS)), dtype=int)
    for pair, dist in zip(prep.dev, plain):
        expected[LABELS.index(pair.gold), int(np.argmax(dist))] += 1
    agree = int(np.trace(expected))
    report.check("evaluate matches plain_forward argmax",
                 int(confusion.sum()) == len(prep.dev)
                 and np.array_equal(confusion, expected)
                 and accuracy == float(agree) / len(prep.dev),
                 f"confusion sums to {int(confusion.sum())} of {len(prep.dev)}, "
                 f"accuracy {accuracy} vs {agree}/{len(prep.dev)}")


def _tape_gradients(pair, config, params, vocab, table):
    graph = Graph(np.float64)
    run = run_forward(graph, pair.premise, pair.hypothesis, vocab, table, params,
                      use_dual=config.use_dual)
    return backward(graph, loss_node(graph, run.distribution, pair.gold))


def check_gradients(report, prep, params, vocab, table, seed):
    """Sampled tape gradients against central differences of `plain_loss`
    in extended precision, then a fresh Adam step against lr * sign(g)."""
    config = prep.config
    pair = min(prep.dev, key=lambda p: p.premise.node_count + p.hypothesis.node_count)
    trainable = _trainable(params, table)
    tape = _tape_gradients(pair, config, params, vocab, table)
    grads = {p: tape.get(p, np.zeros_like(p.value)) for p in trainable}
    rng = np.random.default_rng(seed)

    samples = []
    for p in trainable:
        samples.append((p, int(np.argmax(np.abs(grads[p])))))
        if p is table.trainable:
            used = np.flatnonzero(np.abs(grads[p]).sum(axis=1))
            for row in rng.choice(used, size=min(2, used.size), replace=False):
                col = int(np.argmax(np.abs(grads[p][row])))
                samples.append((p, int(row) * p.value.shape[1] + col))

    worst = 0.0
    for p, j in samples:
        flat = p.value.reshape(-1)
        saved = flat[j]
        losses = []
        for step in (FD_EPS, -FD_EPS):
            flat[j] = saved + step
            losses.append((plain_loss(pair.premise, pair.hypothesis, vocab, table, params,
                                      pair.gold, use_dual=config.use_dual,
                                      dtype=np.longdouble), np.longdouble(flat[j])))
        flat[j] = saved
        (up, x_up), (down, x_down) = losses
        numeric = float((up - down) / (x_up - x_down))
        analytic = float(grads[p].reshape(-1)[j])
        worst = max(worst, abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)))
    report.check("sampled gradients match extended-precision differences",
                 worst < GRAD_TOLERANCE,
                 f"{len(samples)} scalars, worst relative error {worst:.2e}")

    copies = [Parameter(p.name, p.value.copy()) for p in trainable]
    fresh = {c: grads[p] for c, p in zip(copies, trainable)}
    before = [c.value.copy() for c in copies]
    adam_step(copies, fresh, init_optimizer(copies), config)
    lr, eps = config.learning_rate, config.adam_epsilon
    worst, moved = 0.0, 0
    for c, old in zip(copies, before):
        g = fresh[c]
        big = np.abs(g) > 1e3 * eps
        moved += int(big.sum())
        step = (old - c.value)[big]
        if step.size:
            worst = max(worst, float(np.abs(step - lr * np.sign(g[big])).max()))
    report.check("fresh adam_step moves by lr * sign(g)", moved > 0 and worst <= 2e-3 * lr,
                 f"{moved} scalars, worst |step - lr*sign(g)| {worst:.2e}")


def check_checkpoint(report, prep, model, loaded):
    params, vocab, table = model
    _, vocab2, table2, params2 = loaded
    before = _trainable(params, table)
    after = _trainable(params2, table2)
    same = (
        [p.name for p in before] == [p.name for p in after]
        and all(a.value.dtype == b.value.dtype and np.array_equal(a.value, b.value)
                for a, b in zip(before, after))
        and np.array_equal(table.frozen, table2.frozen)
        and vocab.tokens == vocab2.tokens
    )
    config = prep.config
    for pair in prep.dev[:3]:
        a = predict(pair.premise, pair.hypothesis, vocab, table, params,
                    use_dual=config.use_dual)
        b = predict(pair.premise, pair.hypothesis, vocab2, table2, params2,
                    use_dual=config.use_dual)
        same = (same and np.array_equal(a.distribution, b.distribution)
                and np.array_equal(a.final_attention, b.final_attention))
    report.check("checkpoint loads back bit-equal", same,
                 f"{len(before) + 1} tensors, {len(vocab.tokens)} tokens, 3 predictions")


def check_cli(report, prep, model, predictions, inspect_dir, inspect_code, inspects):
    """`predict` prints the argmax of `plain_forward` and its probabilities;
    `inspect` writes one record and one heatmap per pair."""
    params, vocab, table = model
    config = prep.config
    bad = []
    for pair, code, stdout, stderr in predictions:
        dist = plain_forward(pair.premise, pair.hypothesis, vocab, table, params,
                             use_dual=config.use_dual)
        lines = stdout.splitlines()
        printed = [float(line.split(":")[1]) for line in lines[1:]]
        if (code != 0 or lines[0] != LABELS[int(np.argmax(dist))]
                or len(printed) != 3 or np.abs(np.array(printed) - dist).max() > 5e-7 + 1e-12):
            bad.append((code, stdout, stderr))
    report.check("treentail predict prints the plain_forward argmax", not bad,
                 f"{len(predictions)} calls, bad: {bad[:1]}")

    dev_pairs = prep.dev[:inspects]
    bad = [] if inspect_code == 0 else [f"exit {inspect_code}"]
    for i, pair in enumerate(dev_pairs):
        stem = os.path.join(inspect_dir, f"pair_{i:04d}")
        with open(stem + ".txt", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        dist = plain_forward(pair.premise, pair.hypothesis, vocab, table, params,
                             use_dual=config.use_dual)
        pixels = read_pgm(stem + ".pgm")
        if (lines[0] != "treentail-inspection 1"
                or lines[2] != "predicted: " + LABELS[int(np.argmax(dist))]
                or pixels.shape != (pair.hypothesis.node_count, pair.premise.node_count)
                or not (pixels.min(axis=1) == 0).all()):
            bad.append(i)
    report.check("treentail inspect writes a record and a heatmap per pair", not bad,
                 f"{len(dev_pairs)} pairs, bad: {bad[:3]}")


def check_audit(report, worsts):
    report.check("full_model_grad_check below the CLI tolerance",
                 max(worsts) < GRAD_TOLERANCE,
                 f"{len(worsts)} audits, worst {max(worsts):.2e} < {GRAD_TOLERANCE:.0e}")


def check_rows(report, workload, vocab, table):
    rows = table.trainable.value.shape[0]
    expected = workload.synthetic_rows + 1 if workload.synthetic_rows else len(vocab.tokens)
    report.check("trainable embedding rows", rows == expected, f"{rows} rows")


def run_checks(prep, out, workload, seed, audit_worsts):
    """Every check on the last untraced round; checks that raise fail."""
    report = Report()
    params, vocab, table = out.model
    deep_ids = [r.pair_id for r in prep.records if r.pair_id.startswith("deep-")]
    try:
        check_parses(report, prep.records, out.parsed_text, deep_ids)
        plain = check_distributions(report, prep, params, vocab, table)
        check_evaluate(report, prep, out.evaluation, plain)
        check_gradients(report, prep, params, vocab, table, seed)
        check_checkpoint(report, prep, out.model, out.loaded)
        check_cli(report, prep, out.model, out.predictions, out.inspect_dir,
                  out.inspect_code, workload.inspects)
        check_audit(report, audit_worsts)
        check_rows(report, workload, vocab, table)
    except Exception:  # the output is wrong in a way a check did not expect
        report.check("checks ran to the end", False, traceback.format_exc(limit=3))
    return report
