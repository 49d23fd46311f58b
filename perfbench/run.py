#!/usr/bin/env python3
"""Benchmark of the pboxcdf solver.

    python3 perfbench/run.py --workload search-pbox --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``pboxcdf`` from its
``src/``.  One client runs one operation at a time (a closed loop) over whole
rounds of the workload's operations until ``--seconds`` have passed, checks
every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, and after the timed rounds measures the peak memory of a
few operations under tracemalloc; ``--trace 1`` repeats the same rounds with
every traced function wrapped and reports the per-layer metrics.  Times are in reference
seconds (see ``reference.py``).  A fuller report goes to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("search-pbox", "search-convex", "solve-models")
# Set-up (import plus input generation) is timed once before the rounds and
# this often after each of the first MIN_ROUNDS rounds, and the median is
# reported.
SPARE_SETUPS_PER_ROUND = 3
# Each operation's time is its median over the timed rounds.
MIN_ROUNDS = 3
# Stop at the first round boundary past this, whatever --seconds says.
MAX_SECONDS = 120.0
MAX_REPORTED_PROBLEMS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_round(prepared, tracer=None) -> dict:
    """One round: every operation once, in order.

    Each operation is bracketed by reference readings and its output is checked
    after it, outside the timed region.  ``walls[i]`` is operation i's wall
    time, None where it raised, and ``loops[i]`` the reference's times around it.
    """
    walls: list[float | None] = []
    loops: list[tuple[float, float]] = []
    problems: list[str] = []
    for i, op in enumerate(prepared.ops):
        before = reference.measure()
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = op()
                t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            walls.append(None)
            problems.append(f"operation {i} raised {type(exc).__name__}: {exc}")
        else:
            walls.append(t1 - t0)
        loops.append((before, reference.measure()))
        if walls[-1] is not None:
            problems += prepared.check(i, out)
    return {"walls": walls, "loops": loops, "problems": problems}


def memory_peaks(prepared) -> list[float]:
    """The most memory, in MB, that each of ``prepared.memory_ops`` holds at
    once beyond what was allocated before it, measured with tracemalloc.
    Untimed and unchecked: the timed rounds run and check the same
    operations."""
    peaks = []
    tracemalloc.start()
    try:
        for i in prepared.memory_ops:
            # A full collection also empties the interpreter's free lists,
            # whose reuse would hide allocations from tracemalloc.
            gc.collect()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            try:
                prepared.ops[i]()
            except Exception:  # noqa: BLE001 - the timed rounds count it
                continue
            peaks.append((tracemalloc.get_traced_memory()[1] - held) / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def op_times(scaled: list[list[float | None]]) -> list[float]:
    """Each operation's median time over the rounds."""
    out = []
    for times in zip(*scaled):
        ok = [t for t in times if t is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  Unlike
    a single order statistic it does not hang on the one or two operations
    that happen to sit at the quantile."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule within each of the n intervals of [0, 1]
    total = 0.0
    for i, value in enumerate(ordered):
        weight = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            weight += math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
        total += value * weight / (steps * n)
    return total


def end_to_end(
    times: list[float], setup_times: list[float], peak_rss_mb: float, op_peaks_mb: list[float], prepared
) -> dict[str, tuple[float, str]]:
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_s": (quantile(times, 0.5), "s"),
        "op_p90_s": (quantile(times, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if op_peaks_mb:
        metrics["op_peak_mb"] = (max(op_peaks_mb), "MB")
    quality = prepared.quality()
    if quality is not None:
        metrics["cdf_gap"] = (quality[0], "cdf")
        metrics["width_ratio"] = (quality[1], "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pboxcdf" / "__init__.py").is_file():
        print(f"error: no pboxcdf sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times: list[float] = []
    setup_wall: list[float] = []

    def timed_setup():
        stopwatch = reference.Stopwatch()
        with stopwatch:
            prog = workloads.import_program()
        prepared = workloads.WORKLOADS[args.workload](prog, args.seed, stopwatch)
        setup_times.append(stopwatch.seconds())
        setup_wall.append(sum(stopwatch.walls))
        return prog, prepared

    def spare_setup():
        # Timed, then dropped: the rounds keep the first set-up's modules
        # and inputs.
        kept = {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "pboxcdf"}
        gc.collect()
        timed_setup()
        sys.modules.update(kept)
        gc.collect()

    prog, prepared = timed_setup()
    # Garbage collections during the rounds then traverse only the objects
    # the operations make, not the inputs and modules set up here.
    gc.freeze()
    if Path(prog.pbox.__file__).resolve().parent != SRC / "pboxcdf":
        print(f"error: imported pboxcdf from {prog.pbox.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer(prog) if args.trace else None
    scaled: list[list[float | None]] = []
    wall: list[list[float | None]] = []
    loops: list[list[tuple[float, float]]] = []
    problems: list[str] = []
    failed = 0
    start = time.perf_counter()
    while True:
        run = run_round(prepared, tracer)
        scaled.append(reference.scaled_round(run["walls"], run["loops"]))
        wall.append(run["walls"])
        loops.append(run["loops"])
        problems += run["problems"]
        failed += run["walls"].count(None)
        if tracer is not None:
            tracer.end_round(reference.factor(statistics.median(t for pair in run["loops"] for t in pair)))
        if tracer is None and len(scaled) <= MIN_ROUNDS:
            if len(scaled) == 1:
                # Read before the spare set-ups, which hold a second copy of
                # the inputs, and before tracemalloc, whose traces take memory
                # of their own.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for _ in range(SPARE_SETUPS_PER_ROUND):
                spare_setup()
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(scaled) >= MIN_ROUNDS) or elapsed >= MAX_SECONDS:
            break
    times = op_times(scaled)

    op_peaks_mb: list[float] = []
    if tracer is None:
        op_peaks_mb = memory_peaks(prepared)
        metrics = end_to_end(times, setup_times, peak_rss_mb, op_peaks_mb, prepared) if len(times) >= 2 else {}
    else:
        if not tracer.rounds_agree():
            problems.append("traced counts differ between rounds of identical operations")
        metrics = tracer.metrics()
        for name, ns in tracing.microbench(prog, args.seed).items():
            metrics[f"{name}.ns_per_call"] = (ns, "ns")
    result = {
        "correct": not problems and bool(metrics),
        "attempted": len(prepared.ops) * len(scaled),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "rounds": len(scaled),
        "elapsed_s": elapsed,
        "ops_per_round": len(prepared.ops),
        "reference_s": reference.REFERENCE_S,
        "reference_response": reference.RESPONSE,
        "setup_s": setup_times,
        "setup_wall_s": setup_wall,
        "op_s": scaled,
        "op_wall_s": wall,
        "loop_wall_s": loops,
        "op_peak_mb": op_peaks_mb,
        "problems": problems,
        "result": result,
    }
    if tracer is not None:
        report["rounds_counts"] = tracer.rounds
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > MAX_REPORTED_PROBLEMS:
        print(f"... and {len(problems) - MAX_REPORTED_PROBLEMS} more problems", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
