"""tcodes benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload code-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Set-up loads the library from
src/ and builds the seeded inputs; it is repeated and its median reported.
With --trace 0 whole rounds of ops run until --seconds have passed (and
until enough ops exist for the tail percentile), and the end-to-end metrics
are printed. With --trace 1 the first round runs once with span tracing and
twice without, and the per-layer metrics are printed. Every op's result is
checked; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5
MODULES = ("algebra", "curve", "convex", "tvariety", "codes", "problemfile", "cli", "instances")


def load_library() -> SimpleNamespace:
    """Import tcodes afresh, so each set-up pays the library's import cost."""
    for name in [n for n in sys.modules if n == "tcodes" or n.startswith("tcodes.")]:
        del sys.modules[name]
    importlib.import_module("tcodes")
    return SimpleNamespace(**{m: importlib.import_module(f"tcodes.{m}") for m in MODULES})


def run_op(op: workloads.Op) -> tuple[float, str | None]:
    """Time one op, then check its result; returns (seconds, failure or None).

    Op and set-up times are the process's CPU time. The benchmark is one
    thread that never waits, so this is its wall time less the time the
    scheduler of a shared host hands to other work; a crowded host then
    leaves fewer ops in a run, not slower ones.
    """
    t0 = process_time()
    try:
        result = op.run()
    except Exception:  # a failed op is counted, and the run goes on
        return process_time() - t0, traceback.format_exc()
    dt = process_time() - t0
    try:
        return dt, op.check(result)
    except Exception:
        return dt, traceback.format_exc()


def run_ops(ops: list[workloads.Op], tracer: spans.Tracer | None = None) -> tuple[list[float], int]:
    latencies, failed = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        dt, failure = run_op(op)
        latencies.append(dt)
        if failure:
            failed += 1
            print(f"op {op.kind} failed: {failure}", file=sys.stderr)
    return latencies, failed


def timed_run(wl: workloads.Workload, seconds: float) -> tuple[dict, int, int, str]:
    latencies: list[float] = []
    rounds = failed = 0
    wall_start = perf_counter()
    while True:
        gc.collect()  # every round starts on a collected heap
        lat, bad = run_ops(wl.rounds[rounds % len(wl.rounds)])
        latencies += lat
        failed += bad
        rounds += 1
        elapsed = perf_counter() - wall_start
        # Whole rounds only; stop at the round boundary nearest to `seconds`.
        if len(latencies) >= wl.min_ops and elapsed + elapsed / rounds / 2 >= seconds:
            break
    q = wl.tail_percentile
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]
    metrics = {
        # Every op of the run counts, so the rate rests on all its instances.
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    note = f"op_tail_s is p{q} of {len(latencies)} ops in {rounds} rounds; ops_failed_frac = {failed / len(latencies)}"
    return metrics, len(latencies), failed, note


def traced_run(wl: workloads.Workload, lib: SimpleNamespace, out: Path) -> tuple[dict, int, int, str]:
    """Round 0 untraced, traced, untraced again: the overhead is the traced
    wall time minus the mean of the two untraced ones."""
    ops = wl.rounds[0]
    tracer = spans.Tracer()
    walls, failed = [], 0
    for traced in (False, True, False):
        if traced:
            tracer.install(lib)
        try:
            t0 = perf_counter()
            failed += run_ops(ops, tracer if traced else None)[1]
            walls.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (walls[1] - (walls[0] + walls[2]) / 2, "s")
    metrics.update(line_counts())
    tracer.write(out)
    note = f"one round of {len(ops)} ops, walls untraced/traced/untraced {walls} s; spans in {out}"
    return metrics, 3 * len(ops), failed, note


def line_counts() -> dict[str, tuple[int, str]]:
    files = sorted((ROOT / "src" / "tcodes").glob("*.py"))
    counts = {f"loc.{f.stem}": (len(f.read_text().splitlines()), "lines") for f in files}
    counts["loc.total"] = (sum(v for v, _ in counts.values()), "lines")
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tcodes" / "__init__.py").is_file() or not (ROOT / "demos").is_dir():
        print(f"no tcodes source tree (src/tcodes, demos) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    build = workloads.WORKLOADS[args.workload]
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            t0 = process_time()
            lib = load_library()
            wl = build(lib, args.seed, ROOT, workdir)
            setup_times.append(process_time() - t0)
        if args.trace:
            out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv.gz"
            metrics, attempted, failed, note = traced_run(wl, lib, out)
        else:
            metrics, attempted, failed, note = timed_run(wl, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
