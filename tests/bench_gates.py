"""paqlbench gates: the per-feature benchmark bars, restated once.

Run from anywhere, without flags::

    python3 tests/bench_gates.py

For each workload named in :data:`GATES` this runs, in a fresh
process::

    python3 bench/run.py --workload W --scale 0.05 --seconds 2 --trace 1

and checks every row against the per-layer metrics the run prints.
It exits non-zero if any run fails, reports ``correct: false`` (the
answer oracle: every package re-validated, every question answered one
way, checked against an independent solver where scipy is installed),
or breaks a row.

Each row bounds a counter or a ratio with at least 2x headroom over
the value measured at 5 % scale; timings enter only as ratios of two
numbers from the same run, so a slow or noisy host cannot trip a gate.
Absolute wall-clock and peak-RSS regressions are the paired
per-change run of ``bench/run.py`` (bounds in ``BENCHMARK.json``).

The file name does not start with ``test_``, so pytest never collects
it; a gate run takes about 20 s on a 2-core host.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
ARGS = ("--scale", "0.05", "--seconds", "2", "--trace", "1")

#: ``check`` receives the run's ``{metric: value}`` dict.
Gate = namedtuple("Gate", "workload predicate check replaces")

GATES = (
    Gate(
        "scan_cold",
        "reduction.kept_ratio <= 0.75",
        lambda m: m["reduction.kept_ratio"] <= 0.75,
        "E13: safe fixing removes >= 30 % of the candidates",
    ),
    Gate(
        "scan_cold",
        "sharding.zone_skipped_ratio >= 0.15",
        lambda m: m["sharding.zone_skipped_ratio"] >= 0.15,
        "E12: zone maps skip shards on clustered data",
    ),
    Gate(
        "session_mixed",
        "0 < 2 * session.hit_ms_p50 <= session.miss_ms_p50",
        lambda m: 0 < 2 * m["session.hit_ms_p50"] <= m["session.miss_ms_p50"],
        "E14: warm 2nd..Nth queries >= 2x faster than cold",
    ),
    Gate(
        "session_mixed",
        "session.result_hit_ratio >= 0.3",
        lambda m: m["session.result_hit_ratio"] >= 0.3,
        "E14: the stream replays validated results",
    ),
    Gate(
        "session_mixed",
        "session.facts_hit_ratio >= 0.05",
        lambda m: m["session.facts_hit_ratio"] >= 0.05,
        "E14: per-conjunct reduction facts are reused",
    ),
    Gate(
        "session_mixed",
        "session.miss_ms_p50 >= 2 * session.restart_first_op_ms",
        lambda m: m["session.miss_ms_p50"] >= 2 * m["session.restart_first_op_ms"],
        "E16: a restarted session answers warm from the store",
    ),
    Gate(
        "session_mixed",
        "0 < session.post_mutation_shards_rescanned <= 24",
        lambda m: 0 < m["session.post_mutation_shards_rescanned"] <= 24,
        "E16: after a mutation only touched shards are rescanned",
    ),
    Gate(
        "session_mixed",
        "store.rejected == 0",
        lambda m: m["store.rejected"] == 0,
        "E16/E18: no stored entry fails its checksum",
    ),
    Gate(
        "served_zipf",
        "session.result_hit_ratio >= 0.45",
        lambda m: m["session.result_hit_ratio"] >= 0.45,
        "E17: concurrent clients share one warm session",
    ),
    Gate(
        "served_zipf",
        "server.rejected_429 == 0",
        lambda m: m["server.rejected_429"] == 0,
        "E17: the measured phase sees no queue-full rejections",
    ),
    Gate(
        "outofcore_bands",
        "pushdown.sql_fixed_ratio >= 0.25",
        lambda m: m["pushdown.sql_fixed_ratio"] >= 0.25,
        "E19: safe-mode fixing runs inside sqlite",
    ),
    Gate(
        "outofcore_bands",
        "3 * sql_relation.zone_stats_ms <= pushdown.run_where_ms",
        lambda m: 3 * m["sql_relation.zone_stats_ms"] <= m["pushdown.run_where_ms"],
        "the zone map is read from the file, not recomputed",
    ),
)


def run_workload(name):
    """Run one workload; return ``(result or None, failure reason)``."""
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, *ARGS],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return None, f"exit code {child.returncode}"
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return result, (
            f"correct {result['correct']}, {result['failed']} of "
            f"{result['attempted']} operations failed"
        )
    return result, None


def main():
    failures = 0
    for workload in dict.fromkeys(gate.workload for gate in GATES):
        result, problem = run_workload(workload)
        if problem is not None:
            print(f"FAIL {workload}: {problem}")
            failures += 1
        if result is None:
            failures += sum(1 for gate in GATES if gate.workload == workload)
            continue
        metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
        for gate in GATES:
            if gate.workload != workload:
                continue
            ok = gate.check(metrics)
            failures += not ok
            names = [key for key in metrics if key in gate.predicate]
            values = ", ".join(f"{key}={metrics[key]:.4g}" for key in names)
            print(
                f"{'ok  ' if ok else 'FAIL'} {workload}: {gate.predicate} "
                f"({values}) — {gate.replaces}"
            )
    print(f"{len(GATES)} gates, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
