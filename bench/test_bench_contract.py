"""Contract smoke test for paqlbench (collected by the tier-1 suite).

Runs all five workloads at ``--scale 0.02`` in a few seconds and pins
what the driver relies on: the emitted metric and workload names are
exactly those of ``BENCHMARK.json``, no operation fails, nothing is
left behind (server subprocess, stores, sqlite files), and a wrong
expected answer is caught.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE = dict(seed=3, seconds=0.2, scale=0.02)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    # The median of three set-ups steadies setup_s; the smoke test
    # only needs the code path once.
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "SETUP_FILL_SECONDS", 0.0)


def _leftovers():
    """Scratch directories and ``repro serve`` children still around."""
    found = [str(path) for path in harness.OUT_DIR.glob("work-*")]
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            parent = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
            command = (entry / "cmdline").read_bytes()
        except (OSError, ValueError, IndexError):
            continue
        if parent == os.getpid() and b"serve" in command:
            found.append(command.decode(errors="replace"))
    return found


def test_benchmark_json_is_well_formed(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark_json["paths"] == ["bench"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in benchmark_json[key]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    # The driver's hour: every run is the window plus, on the reference
    # box, up to ~13 s of interpreter start, set-ups and verification.
    runs = 4 + 22 * len(benchmark_json["workloads"])
    assert runs * (benchmark_json["run_seconds"] + 13) <= 3420


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_the_declared_metrics(name, benchmark_json):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, trace=trace, **SMOKE)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in benchmark_json[key]}
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _leftovers() == []


def test_command_line_prints_the_result_last(benchmark_json):
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "scenario_cold",
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--scale", "0.02"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=120,
    )
    assert child.returncode == 0
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json["end_to_end"]}


def test_a_corrupted_expected_answer_fails_the_operation():
    row = harness.OpResult(
        harness.Op("query", "meal", "SELECT ... MAXIMIZE ..."), 1, 0, 0.01,
        status="optimal", objective=100.0,
    )
    good = {row.op.key: {"status": "optimal", "objective": 100.0}}
    assert oracle.verify([row], good, None, 0, lambda op: True) == []
    assert row.ok
    bad = {row.op.key: {"status": "optimal", "objective": 100.0 + 1e-6}}
    assert oracle.verify([row], bad, None, 0, lambda op: True)
    assert not row.ok


def test_expected_files_cover_every_workload():
    for name in WORKLOADS:
        entries = oracle.load_expected(name)
        assert entries, f"bench/expected/{name}.seed0.json is missing or empty"
        assert all(entry["valid"] for entry in entries.values())
