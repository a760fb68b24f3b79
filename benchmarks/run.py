#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of oqho, run from the repository root.

    python3 benchmarks/run.py --workload check_64 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

One closed-loop caller runs a workload's ops back to back in this process,
cycling through the cases ``workloads.build`` made from the seed; each op's
output is checked outside the timed region.  ``--trace 0`` measures the
end-to-end metrics.  ``--trace 1`` spends half the time untraced and half with
``tracing.Tracer`` installed, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a record with the
environment and the failures by exception type is written under .bench_run/.
DESIGN.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# Pinned to one BLAS thread before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
WORKLOADS = ("cli_small", "check_64", "synth_10", "synth_12", "synth_64")
# Set-up is repeated and its median reported, because one fresh-process
# import varies by tens of percent.
SETUP_REPEATS = 7
# Untimed ops before measuring, so lazy initialisation is not timed.
WARMUP_OPS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import oqho; print(time.perf_counter() - t)"
UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.untraced_ops_per_s": "op/s", "trace.traced_ops_per_s": "op/s",
               "trace.overhead_share": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed the workload's inputs are generated from")
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure; whole cycles of cases are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def gated_names(trace):
    """The metrics BENCHMARK.json lists for this mode; the rest are only recorded."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def fresh_import_seconds():
    """Time of ``import oqho`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


class Tally:
    """Latencies and failures of a series of ops."""

    def __init__(self):
        self.latencies = []
        self.failures = Counter()
        self.examples = {}
        self.busy = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        """Verified ops per second of op time; a failed op adds time only."""
        return (self.attempted - sum(self.failures.values())) / self.busy

    def percentile_ms(self, q):
        """Nearest-rank percentile; a failed op ranks after every success."""
        ranked = sorted(self.latencies)
        value = ranked[max(math.ceil(q * len(ranked)) - 1, 0)]
        return None if math.isinf(value) else value * 1e3


def run_op(case, tracer):
    """Time one call; return (seconds, exception or None) after checking it."""
    error = None
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    try:
        out = case.call()
    except Exception as exc:  # every failure is counted, none ends the run
        error = exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
    if error is None:
        try:
            case.check(out)
        except Exception as exc:
            error = exc
    return elapsed, error


def measure(cases, seconds, tracer=None):
    """Run whole cycles of ``cases`` until ``seconds`` of op time are spent."""
    tally = Tally()
    while tally.busy < seconds:
        for case in cases:
            elapsed, error = run_op(case, tracer)
            tally.busy += elapsed
            if error is None:
                tally.latencies.append(elapsed)
            else:
                kind = type(error).__name__
                tally.failures[kind] += 1
                if kind not in tally.examples:
                    tally.examples[kind] = {
                        "case": case.label, "message": str(error),
                        "traceback": "".join(traceback.format_exception(error))}
                tally.latencies.append(math.inf)
    return tally


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def end_to_end(cases, seconds, setup):
    tally = measure(cases, seconds)
    metrics = {
        "ops_per_s": tally.ops_per_s,
        "op_p50_ms": tally.percentile_ms(0.50),
        "op_p90_ms": tally.percentile_ms(0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    return [tally], metrics, UNITS


def per_layer(cases, seconds, spans_path):
    """Half the time untraced, half traced; the rates give the tracing overhead."""
    import tracing

    untraced = measure(cases, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(cases, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(traced.attempted)
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s
    metrics["trace.overhead_share"] = (
        untraced.ops_per_s / traced.ops_per_s - 1.0 if traced.ops_per_s else None)
    units = dict(tracing.layer_metric_units(), **TRACE_UNITS)
    return [untraced, traced], metrics, units


def run_workload(args):
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            imported = fresh_import_seconds()
            start = time.perf_counter()
            cases = workloads.build(args.workload, args.seed, str(workdir))
            setup.append(imported + time.perf_counter() - start)
        for case in cases[:WARMUP_OPS]:
            run_op(case, None)
        if args.trace:
            tallies, metrics, units = per_layer(cases, args.seconds,
                                                OUT / f"spans-{tag}.jsonl.gz")
        else:
            tallies, metrics, units = end_to_end(cases, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failures = sum((t.failures for t in tallies), Counter())
    examples = {k: v for t in tallies for k, v in t.examples.items()}
    failed = sum(failures.values())
    entries = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    names = gated_names(args.trace)
    gated = {name: e for name, e in entries.items() if name in names}
    reported = {name: e for name, e in entries.items() if name not in names}
    reported["fail_share"] = {"value": failed / attempted, "unit": "ratio"}
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "cases_per_cycle": len(cases),
        "attempted": attempted,
        "failed": failed,
        "failures_by_type": dict(failures),
        "failure_examples": examples,
        "setup_s_samples": setup,
        "metrics": gated,
        "reported": reported,
    }
    record_path = OUT / f"record-{tag}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops, {failed} failed")
    for kind, count in sorted(failures.items()):
        print(f"  failure {kind}: {count}, e.g. {examples[kind]['case']}: "
              f"{examples[kind]['message'][:160]}")
    for name, entry in {**gated, **reported}.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    print(f"record: {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": gated}))
    return 0


def run_all(args):
    """Each workload in a fresh process of its own, one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode:
            sys.stderr.write(done.stderr)
            status = done.returncode
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oqho" / "__init__.py").is_file():
        sys.stderr.write(f"error: no oqho sources under {SRC}; run from a checkout\n")
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
