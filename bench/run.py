"""paqlbench: one end-to-end + per-layer benchmark for the package-query stack.

Driver contract (see ``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this (fresh) process and prints, as the last line
of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` every workload runs in a fresh child process
(untraced, and traced too with ``--trace``) and the metrics are printed
as a table; the exit code is non-zero if any answer was wrong.
``--record-expected`` rewrites ``bench/expected/<workload>.seed0.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
from harness import log, median, ratio  # noqa: E402


def benchmark_json():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name, seed, seconds, trace, scale=1.0, record=False):
    """Run one workload here; return the contract's result object."""
    started = time.perf_counter()
    import repro.core.session  # noqa: F401  (pulls in engine, solver, datasets)
    import repro.datasets  # noqa: F401

    import_seconds = time.perf_counter() - started
    from tracing import Tracer
    from workloads import WORKLOADS, maximizes

    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    with harness.WorkDir() as work:
        setup_seconds, setup_facts, context = [], [], None
        try:
            while not harness.enough_setups(setup_seconds):
                if context is not None:
                    context.close()
                context, elapsed = harness.timed(workload.setup, seed, scale, work)
                setup_seconds.append(elapsed)
                setup_facts.append(context.facts)
            log(f"{name}: set-up {', '.join(f'{s:.2f}' for s in setup_seconds)} s")

            if tracer is not None:
                tracer.install()
            harness.reset_peak_rss()
            plain, traced, walls = harness.measure(
                workload, context, seconds, tracer,
                cycles=oracle.RECORD_CYCLES if record else None,
            )
            peak_rss = workload.peak_rss_mb(context)
            if tracer is not None:
                tracer.uninstall()
            log(f"{name}: {len(walls)} cycles, {len(plain)} operations "
                f"in {sum(walls):.2f} s")
            for family in sorted({row.op.family for row in plain}):
                spent = sorted(r.seconds for r in plain if r.op.family == family)
                log(f"{name}:   {family:12s} n={len(spent):4d} "
                    f"p50 {median(spent) * 1e3:8.2f} ms  max {spent[-1] * 1e3:8.2f} ms  "
                    f"sum {sum(spent):6.2f} s")

            rows = plain + traced
            workload.validate_rows(context, rows)
            have_scipy = oracle.scipy_ready()
            if record:
                if not have_scipy:
                    raise SystemExit("--record-expected needs scipy (HiGHS)")
                exact = workload.reference(context, exact=True)
                oracle.write_expected(name, oracle.record(rows, exact))
                log(f"{name}: wrote {oracle.expected_path(name)}")
            reference = workload.reference(context, exact=False) if have_scipy else None
            expected = oracle.load_expected(name) if seed == 0 and scale == 1.0 else {}
            problems = oracle.verify(rows, expected, reference, seed, maximizes)
            for row in rows:
                if not row.ok:
                    problems.append(f"op {row.op_id} ({row.op.family}): {row.error}")
            for problem in sorted(set(problems))[:20]:
                log(f"{name}: WRONG {problem}")

            if trace:
                # BENCHMARK.json is the one list of per-layer metrics; a
                # workload that bypasses a layer reports 0 for it.
                units = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
                values = dict.fromkeys(units, 0.0)
                values.update(
                    {
                        key: median(facts.get(key, 0.0) for facts in setup_facts)
                        for key in setup_facts[0]
                    }
                )
                values.update(workload.layer_metrics(context, tracer, traced, plain))
                values["python.import_s"] = import_seconds
                values["trace.overhead_ratio"] = (
                    ratio(
                        sum(row.seconds for row in traced),
                        sum(row.seconds for row in plain),
                    )
                    - 1.0
                )
                undeclared = sorted(set(values) - set(units))
                if undeclared:
                    raise SystemExit(f"not in BENCHMARK.json per_layer: {undeclared}")
                metrics = {
                    key: {"value": float(values[key]), "unit": units[key]}
                    for key in units
                }
                tracer.write(harness.OUT_DIR / f"trace_{name}.jsonl")
            else:
                metrics = {
                    key: {"value": float(value), "unit": unit}
                    for key, (value, unit) in harness.end_to_end_metrics(
                        workload, setup_seconds, plain, walls, peak_rss
                    ).items()
                }
        finally:
            if context is not None:
                context.close()
    failed = sum(1 for row in rows if not row.ok)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }


def print_result(name, result):
    for key, metric in result["metrics"].items():
        print(f"{name:16s} {key:42s} {metric['value']:16.6g} {metric['unit']}")
    print(f"{name:16s} operations attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")


def run_all(arguments):
    """Every workload, each in a fresh child process."""
    from workloads import WORKLOADS

    exit_code = 0
    for name in WORKLOADS:
        for trace in (0, 1) if arguments.trace else (0,):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", name, "--seed", str(arguments.seed),
                "--seconds", str(arguments.seconds), "--trace", str(trace),
                "--scale", str(arguments.scale),
            ]
            if arguments.record_expected:
                command.append("--record-expected")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if child.returncode != 0:
                print(f"{name}: exit code {child.returncode}")
                exit_code = 1
                continue
            result = json.loads(child.stdout.strip().splitlines()[-1])
            print_result(name, result)
            if not result["correct"]:
                exit_code = 1
    return exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size; only for the contract "
                             "smoke test — recorded numbers are always scale 1")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite bench/expected/*.seed0.json from HiGHS")
    arguments = parser.parse_args(argv)
    if arguments.seconds is None:
        arguments.seconds = benchmark_json()["run_seconds"]
    if arguments.record_expected:
        arguments.seed, arguments.scale, arguments.trace = 0, 1.0, 0
    if arguments.workload is None:
        return run_all(arguments)

    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    result = run_workload(
        arguments.workload, arguments.seed, arguments.seconds,
        bool(arguments.trace), arguments.scale, arguments.record_expected,
    )
    print_result(arguments.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
