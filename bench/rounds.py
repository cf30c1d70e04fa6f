"""Set-up, measured rounds, traced replays and layer probes of one workload.

A round runs every user-facing operation once, in the order a user
would: ingest the stream, train, round-trip the checkpoint, evaluate,
predict, inspect and audit.  Every round attempts exactly the same
operations, so the share of failed ones does not depend on how many
rounds fit in the run.  Training updates the model in place, so each
round starts from a fresh set-up.

Untraced rounds call the public functions and the CLI entry point as a
user would and time whole operations.  Traced rounds do the same work
but replay `train` and `treentail inspect` through their public
building blocks, timing each call into a module; a traced run also
times the layers one by one on the dev pairs.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from treentail.attention import (
    attended_context,
    dual_attention,
    forward_attention,
    reverse_attention,
    score_matrix,
)
from treentail.autodiff import Graph, backward
from treentail.cli import main as cli_main
from treentail.composer import encode_tree
from treentail.data import ExamplePair, generate_toy, load_snli
from treentail.embeddings import empty_vocabulary, lookup, register_oov
from treentail.entailment import (
    classify,
    compose_relations,
    loss_node,
    plain_forward,
    run_forward,
)
from treentail.inspection import build_record, format_record, write_pgm
from treentail.trainer import (
    TrainConfig,
    adam_step,
    evaluate,
    full_model_grad_check,
    init_optimizer,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    train,
)
from treentail.trees import parse_tree, serialize

from inputs import make_records, read_jsonl, write_jsonl

# The audit is the CLI's `gradcheck` at widths small enough to run once
# per round.  Fixed leaf counts keep its cost the same for every seed.
AUDIT = dict(k=4, r=4, d=4, pairs=1, leaf_range=(3, 3))
# full_model_grad_check registers three trainable embedding rows.
AUDIT_SCALARS = (
    parameter_count(TrainConfig(k=AUDIT["k"], r=AUDIT["r"], d=AUDIT["d"]))
    + 3 * AUDIT["d"]
) * AUDIT["pairs"]

VJP_OPS = ("lstm_cell", "take_row", "slice_rows", "concat", "matmul")


class Spans:
    """Durations and counts by layer name, kept in memory for the run."""

    def __init__(self):
        self.seconds = defaultdict(list)
        self.counts = defaultdict(list)

    @contextlib.contextmanager
    def __call__(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name].append(perf_counter() - start)

    def add(self, name, seconds):
        self.seconds[name].append(seconds)

    def count(self, name, value):
        self.counts[name].append(value)

    def median(self, name):
        return statistics.median(self.seconds[name])

    def mean(self, name):
        return statistics.fmean(self.seconds[name])

    def total(self, name):
        return sum(self.seconds[name])


@dataclass
class Prepared:
    """Everything set-up produces, for one round."""

    config: TrainConfig
    records: list
    parsed: dict            # pair_id -> ExamplePair, for records that parse
    train: list
    dev: list
    vocab: object
    table: object
    params: object
    inspect_path: str


@dataclass
class Ops:
    """Operations attempted and failed, with the cause of each failure."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    causes: Counter = field(default_factory=Counter)

    def ok(self, kind, n=1):
        self.attempted[kind] += n

    def fail(self, kind, cause):
        self.attempted[kind] += 1
        self.failed[kind] += 1
        self.causes[(kind, cause)] += 1


@dataclass
class RoundOutput:
    """What one round produced, for the output checks."""

    parsed_text: list = field(default_factory=list)   # (record, premise, hypothesis)
    model: tuple = None                               # (params, vocab, table)
    loaded: tuple = None                              # load_checkpoint result
    checkpoint: str = ""
    evaluation: tuple = None                          # (accuracy, confusion)
    predictions: list = field(default_factory=list)   # (pair, code, stdout, stderr)
    inspect_dir: str = ""
    inspect_code: int = 0
    audit_worst: float = 0.0

    def discard(self):
        """Remove the files this round wrote."""
        os.remove(self.checkpoint)
        shutil.rmtree(self.inspect_dir)


def _ingest(records):
    """Parse every record; records that fail to parse are left out."""
    parsed = {}
    for record in records:
        try:
            parsed[record.pair_id] = ExamplePair(parse_tree(record.premise),
                                                 parse_tree(record.hypothesis),
                                                 record.gold)
        except RecursionError:
            continue
    return parsed


def set_up(workload, seed, workdir, spans):
    """Generate and write the stream, ingest it, build the vocabulary,
    register trainable rows and initialise parameters."""
    config = TrainConfig(k=workload.k, r=workload.r, d=workload.d, epochs=1,
                         seed=seed, use_dual=workload.dual)
    stream_path = os.path.join(workdir, "stream.jsonl")
    inspect_path = os.path.join(workdir, "inspect.jsonl")

    records, extra_tokens = make_records(workload, seed)
    write_jsonl(stream_path, records)
    parsed = _ingest(read_jsonl(stream_path))
    train_set = [parsed[r.pair_id] for r in records if r.pair_id.startswith("train-")]
    dev_set = [parsed[r.pair_id] for r in records if r.pair_id.startswith("dev-")]
    write_jsonl(inspect_path, [r for r in records if r.pair_id.startswith("dev-")]
                [:workload.inspects])

    _, oov_stream, init_stream = np.random.SeedSequence(seed).spawn(3)
    vocab, table = empty_vocabulary(config.d, config.dtype)
    corpus_tokens = {t for pair in train_set for t in pair.premise.leaves()}
    corpus_tokens.update(t for pair in train_set for t in pair.hypothesis.leaves())
    corpus_tokens.update(extra_tokens)
    with spans("embeddings.register_oov"):
        register_oov(vocab, table, sorted(corpus_tokens), np.random.default_rng(oov_stream))
    params = init_parameters(config, np.random.default_rng(init_stream))
    return Prepared(config, records, parsed, train_set, dev_set, vocab, table, params,
                    inspect_path)


# -- the operations of one round ------------------------------------------

def _parse_phase(prep, ops, out, spans, traced):
    """Parse both sentences of every record and serialize them back."""
    def timed(fn, text, name):
        start = perf_counter()
        result = fn(text)
        if traced:
            spans.add(name, perf_counter() - start)
        return result

    for record in prep.records:
        try:
            trees = [timed(parse_tree, text, "trees.parse_tree")
                     for text in (record.premise, record.hypothesis)]
        except RecursionError:
            ops.fail("parse", "RecursionError: parse_tree recurses once per nesting level")
            continue
        texts = [timed(serialize, tree, "trees.serialize") for tree in trees]
        ops.ok("parse")
        out.parsed_text.append((record, *texts))


def _timed_vjps(graph, spans):
    """Wrap every recorded node's vjp so its time is added under its op."""
    def wrap(fn, name):
        def vjp(g):
            start = perf_counter()
            result = fn(g)
            spans.add(name, perf_counter() - start)
            return result
        return vjp

    for node in graph.nodes:
        if node.vjp is not None:
            op = node.op if node.op in VJP_OPS else "other"
            node.vjp = wrap(node.vjp, "autodiff.vjp." + op)


def traced_train(prep, spans):
    """`train`'s loop, replayed through its public calls with spans.

    Mirrors the trainer: seeded shuffle and dropout streams, per-example
    tape forward and backward, mean gradients, one Adam step per batch,
    per-epoch evaluation and best-dev rollback.
    """
    config, vocab, table, params = prep.config, prep.vocab, prep.table, prep.params
    streams = np.random.SeedSequence(config.seed).spawn(4)
    shuffle_rng, mask_rng = (np.random.default_rng(s) for s in streams[2:])
    optimized = list(params.trainable()) + [table.trainable]
    state = init_optimizer(optimized)
    best_acc, best_values = -1.0, None
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(prep.train))
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            grad_sum = {}
            for idx in chunk:
                pair = prep.train[idx]
                graph = Graph(config.dtype)
                with spans("entailment.run_forward"):
                    run = run_forward(graph, pair.premise, pair.hypothesis, vocab, table,
                                      params, use_dual=config.use_dual,
                                      dropout_rate=config.dropout_rate, rng=mask_rng)
                loss = loss_node(graph, run.distribution, pair.gold)
                spans.count("autodiff.tape_nodes", len(graph.nodes))
                spans.count("composer.lstm_cell_calls",
                            sum(node.op == "lstm_cell" for node in graph.nodes))
                _timed_vjps(graph, spans)
                with spans("autodiff.backward"):
                    grads = backward(graph, loss)
                for p, g in grads.items():
                    prev = grad_sum.get(p)
                    grad_sum[p] = g if prev is None else prev + g
            scale = 1.0 / len(chunk)
            with spans("trainer.adam_step"):
                adam_step(optimized, {p: g * scale for p, g in grad_sum.items()},
                          state, config)
        evaluate(prep.train, params, config, vocab, table)
        dev_acc, _ = evaluate(prep.dev, params, config, vocab, table)
        if dev_acc > best_acc:
            best_acc, best_values = dev_acc, [p.value.copy() for p in optimized]
    for p, value in zip(optimized, best_values or []):
        p.value[...] = value
    return params, vocab, table


def traced_inspect(checkpoint, data, out_dir, spans):
    """`treentail inspect`, replayed through its public calls with spans."""
    config, vocab, table, params = load_checkpoint(checkpoint)
    pairs, _ = load_snli(data)
    os.makedirs(out_dir, exist_ok=True)
    for i, pair in enumerate(pairs):
        with spans("inspection.build_record"):
            record = build_record(pair, vocab, table, params,
                                  use_dual=config.use_dual, dtype=config.dtype)
        with spans("inspection.format_record"):
            text = format_record(record)
        stem = os.path.join(out_dir, f"pair_{i:04d}")
        with open(stem + ".txt", "w", encoding="utf-8") as handle:
            handle.write(text)
        with spans("inspection.write_pgm"):
            write_pgm(stem + ".pgm", record.final_attention)
    return 0


def _cli(argv):
    """Run the treentail CLI in-process; returns (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def run_round(prep, workload, seed, workdir, number, ops, spans, traced):
    """Round ``number`` of every operation.  Phase times go to ``spans``
    under ``round.*``; a traced round also records the layer spans."""
    out = RoundOutput()
    config = prep.config

    with spans("round.parse"):
        _parse_phase(prep, ops, out, spans, traced)

    with spans("round.train"):
        if traced:
            out.model = traced_train(prep, spans)
        else:
            out.model = train(prep.train, prep.dev, config, prep.vocab, prep.table,
                              initial_params=prep.params)[:3]
    ops.ok("train_example", len(prep.train) * config.epochs)
    params, vocab, table = out.model

    # Every save writes a new file, as a user's new run directory would;
    # rewriting one file in place measures the file system's flushes.
    for i in range(workload.round_trips):
        if out.checkpoint:
            os.remove(out.checkpoint)
        out.checkpoint = os.path.join(workdir, f"checkpoint-{number}-{i}.tent")
        with spans("round.save"):
            save_checkpoint(out.checkpoint, config, vocab, table, params)
        with spans("round.load"):
            out.loaded = load_checkpoint(out.checkpoint)
        ops.ok("checkpoint_round_trip")
    spans.count("round.checkpoint_bytes", os.path.getsize(out.checkpoint))

    with spans("round.evaluate"):
        out.evaluation = evaluate(prep.dev, params, config, vocab, table)
    ops.ok("eval_pair", len(prep.dev))

    dev_records = [r for r in prep.records if r.pair_id.startswith("dev-")]
    for record in dev_records[:workload.predicts]:
        argv = ["predict", "--checkpoint", out.checkpoint, record.premise,
                record.hypothesis]
        with spans("round.predict"):
            result = _cli(argv)
        out.predictions.append((prep.parsed[record.pair_id], *result))
        ops.ok("predict")

    out.inspect_dir = os.path.join(workdir, f"inspect-{number}")
    with spans("round.inspect"):
        if traced:
            out.inspect_code = traced_inspect(out.checkpoint, prep.inspect_path,
                                              out.inspect_dir, spans)
        else:
            out.inspect_code = _cli(["inspect", "--checkpoint", out.checkpoint,
                                     "--data", prep.inspect_path,
                                     "--out", out.inspect_dir])[0]
    ops.ok("inspect_pair", workload.inspects)

    with spans("round.audit"):
        out.audit_worst = full_model_grad_check(seed=seed, **AUDIT)
    ops.ok("audit")
    return out


# -- layer probes (traced runs only) ----------------------------------------

def _per_call(fn, items, repeats=3):
    """Median over ``repeats`` sweeps of the mean seconds per call."""
    sweeps = []
    for _ in range(repeats):
        start = perf_counter()
        for item in items:
            fn(item)
        sweeps.append((perf_counter() - start) / len(items))
    return statistics.median(sweeps)


def probe_layers(prep, seed, workdir, spans):
    """Time each layer's public functions on the dev pairs."""
    config, vocab, table, params = prep.config, prep.vocab, prep.table, prep.params
    for pair in prep.dev:
        graph = Graph(config.dtype)
        with spans("composer.encode_tree"):
            prem = encode_tree(graph, pair.premise, vocab, table, params.meaning)
        with spans("composer.encode_tree"):
            hyp = encode_tree(graph, pair.hypothesis, vocab, table, params.meaning)
        prem_h, hyp_h = [s.h for s in prem], [s.h for s in hyp]
        with spans("attention.score_matrix"):
            scores = score_matrix(graph, hyp_h, prem_h, params.scorer)
        with spans("attention.forward_alignment"):
            fwd = forward_attention(graph, scores)
        with spans("attention.reverse_alignment"):
            rev = reverse_attention(graph, scores)
        with spans("attention.dual_alignment"):
            dual = dual_attention(graph, fwd, rev)
        with spans("attention.attended_context"):
            contexts = attended_context(graph, dual if config.use_dual else fwd, prem_h)
        with spans("entailment.compose_relations"):
            relations = compose_relations(graph, pair.hypothesis, hyp_h, contexts,
                                          params.relation)
        with spans("entailment.classify"):
            classify(graph, relations[pair.hypothesis.root].h, params.classifier)
        with spans("entailment.plain_forward"):
            plain_forward(pair.premise, pair.hypothesis, vocab, table, params,
                          use_dual=config.use_dual, dtype=config.dtype)

    tokens = [t for pair in prep.dev for t in pair.premise.leaves() + pair.hypothesis.leaves()]
    spans.add("embeddings.lookup", _per_call(lambda t: lookup(vocab, table, t), tokens))

    clean_path = os.path.join(workdir, "clean.jsonl")
    write_jsonl(clean_path, [r for r in prep.records if r.pair_id in prep.parsed])
    per_record = _per_call(load_snli, [clean_path]) / len(prep.parsed)
    spans.add("data.load_snli_record", per_record)
    spans.add("data.generate_toy", _per_call(lambda n: generate_toy(seed, n), [240]))
