"""treentail benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload toy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1
    python3 bench/run.py --smoke

One workload runs in one process, on one BLAS thread.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  ``--workload all`` runs every workload in a process of
its own, one after the other; ``--smoke`` runs every workload, traced
and untraced, on small inputs in a few seconds each.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before NumPy loads, and keep treentail's own
# evaluation pool serial, so a run uses one core and timings do not
# depend on what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "TREENTAIL_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

EXIT_MISSING_SOURCES = 2


def _import_program():
    """Put this checkout's ``src`` first on the path and import treentail
    from it; exit without a result when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "treentail", "__init__.py")):
        sys.stderr.write(f"bench: no treentail sources under {SRC}\n")
        sys.exit(EXIT_MISSING_SOURCES)
    sys.path.insert(0, SRC)
    import treentail

    if os.path.dirname(os.path.dirname(os.path.abspath(treentail.__file__))) != SRC:
        sys.stderr.write(f"bench: imported treentail from {treentail.__file__}\n")
        sys.exit(EXIT_MISSING_SOURCES)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def machine_info():
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS", "TREENTAIL_THREADS")},
    }


def end_to_end_metrics(spec, prep, setup_times, spans):
    from rounds import AUDIT_SCALARS

    def rate(n, name):
        return statistics.median(n / t for t in spans.seconds[name])

    return {
        "setup_s": statistics.median(setup_times),
        "train_examples_per_s": rate(spec.train_pairs * prep.config.epochs, "round.train"),
        "eval_pairs_per_s": rate(spec.dev_pairs, "round.evaluate"),
        "predict_ms": spans.median("round.predict") * 1e3,
        "inspect_pairs_per_s": rate(spec.inspects, "round.inspect"),
        "checkpoint_bytes": statistics.median(spans.counts["round.checkpoint_bytes"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "audit_scalars_per_s": rate(AUDIT_SCALARS, "round.audit"),
    }


def per_layer_metrics(prep, setup_spans, spans, round_times):
    from rounds import VJP_OPS

    examples = len(spans.counts["autodiff.tape_nodes"])

    def per_example_ms(name):
        return spans.total(name) / examples * 1e3

    vjp = {op: per_example_ms("autodiff.vjp." + op) for op in VJP_OPS + ("other",)}
    untraced = statistics.median(round_times[False])
    traced = statistics.median(round_times[True])
    metrics = {
        "trees.parse_tree_us": spans.mean("trees.parse_tree") * 1e6,
        "trees.serialize_us": spans.mean("trees.serialize") * 1e6,
        "data.load_snli_records_per_s": 1.0 / spans.mean("data.load_snli_record"),
        "data.generate_toy_ms": spans.mean("data.generate_toy") * 1e3,
        "embeddings.register_oov_ms": setup_spans.median("embeddings.register_oov") * 1e3,
        "embeddings.lookup_us": spans.mean("embeddings.lookup") * 1e6,
        "embeddings.trainable_rows": prep.table.trainable.value.shape[0],
        "composer.encode_tree_ms": spans.mean("composer.encode_tree") * 1e3,
        "composer.lstm_cell_calls": statistics.fmean(spans.counts["composer.lstm_cell_calls"]),
        "attention.score_matrix_us": spans.mean("attention.score_matrix") * 1e6,
        "attention.forward_alignment_us": spans.mean("attention.forward_alignment") * 1e6,
        "attention.reverse_alignment_us": spans.mean("attention.reverse_alignment") * 1e6,
        "attention.dual_alignment_us": spans.mean("attention.dual_alignment") * 1e6,
        "attention.attended_context_us": spans.mean("attention.attended_context") * 1e6,
        "entailment.run_forward_ms": spans.mean("entailment.run_forward") * 1e3,
        "entailment.compose_relations_ms": spans.mean("entailment.compose_relations") * 1e3,
        "entailment.classify_us": spans.mean("entailment.classify") * 1e6,
        "entailment.plain_forward_ms": spans.mean("entailment.plain_forward") * 1e3,
        "autodiff.tape_nodes": statistics.fmean(spans.counts["autodiff.tape_nodes"]),
        "autodiff.backward_ms": per_example_ms("autodiff.backward"),
        **{f"autodiff.vjp.{op}_ms": ms for op, ms in vjp.items()},
        "autodiff.accumulate_ms": per_example_ms("autodiff.backward") - sum(vjp.values()),
        "trainer.adam_step_ms": spans.mean("trainer.adam_step") * 1e3,
        "trainer.evaluate_ms": spans.mean("round.evaluate") * 1e3,
        "trainer.save_checkpoint_ms": spans.median("round.save") * 1e3,
        "trainer.load_checkpoint_ms": spans.median("round.load") * 1e3,
        "trainer.grad_check_s": spans.mean("round.audit"),
        "inspection.build_record_ms": spans.mean("inspection.build_record") * 1e3,
        "inspection.format_record_us": spans.mean("inspection.format_record") * 1e6,
        "inspection.write_pgm_us": spans.mean("inspection.write_pgm") * 1e6,
        "cli.predict_ms": spans.median("round.predict") * 1e3,
        "trace.untraced_round_s": untraced,
        "trace.traced_round_s": traced,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
    }
    return metrics


def run_workload(name, seed, seconds, trace, smoke):
    from checks import run_checks
    from inputs import SMOKE_WORKLOADS, WORKLOADS
    from rounds import Ops, Spans, probe_layers, run_round, set_up

    declared = _declared()
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        setup_spans, plain_spans, traced_spans = Spans(), Spans(), Spans()
        ops = Ops()
        setup_times, round_times = [], {False: [], True: []}
        last_plain, audit_worsts, longest = None, [], 0.0
        start = perf_counter()
        # Set-up runs before every round, so setup_s samples the whole run.
        # Stop when one more set-up and round could overrun.
        while (not setup_times or perf_counter() - start + longest <= seconds
               or (trace and not round_times[True])):
            began = perf_counter()
            prep = set_up(spec, seed, workdir, setup_spans)
            setup_times.append(perf_counter() - began)
            traced = bool(trace) and len(round_times[False]) > len(round_times[True])
            round_began = perf_counter()
            out = run_round(prep, spec, seed, workdir, len(setup_times), ops,
                            traced_spans if traced else plain_spans, traced)
            round_times[traced].append(perf_counter() - round_began)
            longest = max(longest, perf_counter() - began)
            audit_worsts.append(out.audit_worst)
            # Keep the files of the last untraced round for the checks.
            if traced:
                out.discard()
            else:
                if last_plain is not None:
                    last_plain[1].discard()
                last_plain = (prep, out)
        measured = perf_counter() - start

        if trace:
            probe_layers(prep, seed, workdir, traced_spans)
        report = run_checks(*last_plain, spec, seed, audit_worsts)

        if trace:
            values = per_layer_metrics(prep, setup_spans, traced_spans, round_times)
            kind = "per_layer"
        else:
            values = end_to_end_metrics(spec, prep, setup_times, plain_spans)
            kind = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} do not "
                         f"match the {kind} list of BENCHMARK.json")

    rounds = len(round_times[False]) + len(round_times[True])
    print(f"workload {name} seed {seed} trace {trace}: {rounds} rounds "
          f"({len(round_times[True])} traced) in {measured:.1f} s")
    print(f"  set-up seconds {[round(t, 3) for t in setup_times]}")
    for traced in (False, True):
        if round_times[traced]:
            print(f"  {'traced' if traced else 'untraced'} round seconds "
                  f"{[round(t, 2) for t in round_times[traced]]}")
    for metric in declared[kind]:
        print(f"  {metric['name']:<34} {values[metric['name']]:>14.4f} {metric['unit']}")
    print(f"operations: {sum(ops.attempted.values())} attempted, "
          f"{sum(ops.failed.values())} failed")
    for op in sorted(ops.attempted):
        print(f"  {op:<22} {ops.attempted[op]:>8} attempted {ops.failed[op]:>5} failed")
    for (op, cause), n in sorted(ops.causes.items()):
        print(f"  failed {op} x{n}: {cause}")
    for check, passed, detail in report.results:
        print(f"check {'ok  ' if passed else 'FAIL'} {check}: {detail}")

    print(json.dumps({
        "correct": report.ok,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 0


def run_all(args):
    """Each workload in a process of its own, one after the other."""
    from inputs import WORKLOADS

    traces = (0, 1) if args.smoke else (args.trace,)
    results = {}
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            results[f"{name}/trace{trace}"] = (
                json.loads(lines[-1]) if proc.returncode == 0 and lines else None)
    correct = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "runs": results,
    }))
    return 0 if correct else 1


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("toy", "paper", "vocab20k", "all"))
    parser.add_argument("--seed", type=_seed, default=0,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of "
                             "BENCHMARK.json; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one round per run")
    args = parser.parse_args(argv)
    _import_program()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else _declared()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
