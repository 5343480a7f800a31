"""A/A repeatability check: does the benchmark agree with itself?

Runs two sets of N runs of the *same* tree (set A on seeds 1..N, set B
on seeds N+1..2N, so both input variation and machine noise count),
and prints, per (end-to-end metric, workload), each set's median and
quartiles, its spread (interquartile range over the median, Python's
``statistics.quantiles(values, n=4)``), and the gap by which set B's
median is worse than set A's.

A pair is **unresolved** — not passed — when a spread exceeds the
metric's bound (``setup_s`` excepted, as in the driver's rule) or the
gap does.  ``--write`` sets each bound in ``BENCHMARK.json`` to
``min(0.25, max(starting value, 2 x the largest A/A gap, 3 x the
largest spread))`` over the workloads.

One traced run per set (same seed) is compared too: the counts that
must repeat exactly — solver nodes, translated variables, the kept
ratio, every session hit ratio and the store's bytes written — have to
be identical, or the check fails.

    python3 bench/check_repeat.py [--runs 10] [--workloads a,b] [--write]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"

#: The issue's starting bounds; calibration may only widen them.
#: ``setup_s`` starts at the cap: the driver's contract asks that it
#: carry the largest bound.
STARTING_BOUNDS = {
    "setup_s": 0.25,
    "ops_per_s": 0.10,
    "latency_ms_p50": 0.10,
    "latency_ms_tail": 0.15,
    "peak_rss_mb": 0.05,
}
MAX_BOUND = 0.25

#: Per-layer counts that must be identical between the two sets
#: (``store.*`` only on the workload that has a store).
EXACT_COUNTS = (
    "solver.nodes",
    "translate.variables",
    "reduction.kept_ratio",
    "session.result_hit_ratio",
    "session.where_hit_ratio",
    "session.bounds_hit_ratio",
    "session.facts_hit_ratio",
    "session.translation_hit_ratio",
    "store.bytes_written",
)
#: The served workload's counters depend on how two threads interleave.
EXACT_WORKLOADS = ("scenario_cold", "scan_cold", "session_mixed", "outofcore_bands")


def run_once(workload, seed, seconds, trace):
    child = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def worse_by(first, second, better):
    """Relative amount by which ``second`` is worse than ``first`` (>= 0)."""
    change = (second - first) / first
    return max(0.0, change if better == "lower" else -change)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--write", action="store_true",
                        help="write calibrated bounds into BENCHMARK.json")
    arguments = parser.parse_args(argv)
    if arguments.runs < 5:
        parser.error("--runs must be at least 5")
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = arguments.seconds or benchmark["run_seconds"]
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    if arguments.workloads:
        workloads = [w for w in workloads if w in arguments.workloads.split(",")]
    specs = {entry["name"]: entry for entry in benchmark["end_to_end"]}

    sets, traces = [], []
    for offset in (0, arguments.runs):
        runs = {}
        for workload in workloads:
            runs[workload] = [
                run_once(workload, offset + index + 1, seconds, 0)
                for index in range(arguments.runs)
            ]
            print(f"set {'AB'[bool(offset)]}: {workload} done", file=sys.stderr)
        sets.append(runs)
        traces.append(
            {
                workload: run_once(workload, 1, seconds, 1)
                for workload in workloads
                if workload in EXACT_WORKLOADS
            }
        )

    unresolved, needed = [], dict.fromkeys(specs, 0.0)
    header = (f"{'workload':16s} {'metric':16s} {'median A':>11s} {'q1':>10s} {'q3':>10s} "
              f"{'spread A':>8s} {'median B':>11s} {'spread B':>8s} {'gap':>7s} {'bound':>6s}")
    print(header)
    for workload in workloads:
        for metric, spec in specs.items():
            first = summarize([run[metric] for run in sets[0][workload]])
            second = summarize([run[metric] for run in sets[1][workload]])
            gap = worse_by(first["median"], second["median"], spec["better"])
            spread = max(first["spread"], second["spread"])
            verdict = ""
            if gap > spec["bound"] or (metric != "setup_s" and spread > spec["bound"]):
                verdict = "  UNRESOLVED"
                unresolved.append((workload, metric))
            needed[metric] = max(
                needed[metric], 2 * gap, 0.0 if metric == "setup_s" else 3 * spread
            )
            print(f"{workload:16s} {metric:16s} {first['median']:11.4f} {first['q1']:10.4f} "
                  f"{first['q3']:10.4f} {first['spread']:8.3f} {second['median']:11.4f} "
                  f"{second['spread']:8.3f} {gap:7.3f} {spec['bound']:6.2f}{verdict}")

    mismatched = []
    for workload in traces[0]:
        for name in EXACT_COUNTS:
            left, right = traces[0][workload][name], traces[1][workload][name]
            if left != right:
                mismatched.append((workload, name, left, right))
    print()
    for workload, name, left, right in mismatched:
        print(f"NOT REPEATABLE {workload} {name}: {left!r} vs {right!r}")
    if not mismatched:
        print("exact counts identical across the two sets: "
              + ", ".join(EXACT_COUNTS))

    print()
    for metric, spec in specs.items():
        bound = min(MAX_BOUND, max(STARTING_BOUNDS.get(metric, 0.0), needed[metric]))
        bound = round(bound + 0.004, 2)
        print(f"bound {metric:16s} now {spec['bound']:.2f}  calibrated {bound:.2f}")
        spec["bound"] = min(MAX_BOUND, bound)
    if arguments.write:
        with open(BENCHMARK_JSON, "w", encoding="utf-8") as handle:
            json.dump(benchmark, handle, indent=2)
            handle.write("\n")
        print(f"wrote {BENCHMARK_JSON}")
    for workload, metric in unresolved:
        print(f"unresolved: {metric} on {workload}")
    return 1 if unresolved or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
