"""E12 — sharded parallel scans versus the single-pass columnar path.

Claim shape: the columnar substrate made WHERE filtering a handful of
array operations (E11); sharding decomposes those operations into
contiguous per-shard kernels dispatched through a worker pool, and —
the bigger lever on clustered data — *zone statistics* (per-shard
min/max) prove most shards cannot contain a match, so they are never
scanned at all.  PaQL's own structure makes this safe: kernels are
elementwise, so per-shard masks concatenated in shard order are
bit-identical to the single-pass mask.

Acceptance bars, enforced in CI (``--benchmark-disable``):

* >= 2x wall-clock on the 100k selective workload at ``shards >= 4``
  (the workload and timing loop live in
  :mod:`repro.core.shardbench`, shared verbatim with the
  ``repro shard-bench`` CLI);
* the sharded pipeline's candidate list, bounds, package, and
  objective are **identical** to the unsharded run — any merge or
  ordering divergence fails the job, not just a slow run.
"""

import pytest

from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.core.shardbench import SHARD_BENCH_QUERY, run_shard_bench
from repro.datasets import clustered_relation


@pytest.mark.parametrize("shards", [4, 8])
def test_sharded_scan_speedup(benchmark, shards):
    """The acceptance bar: >= 2x on the 100k selective workload."""
    outcome = benchmark.pedantic(
        lambda: run_shard_bench(n=100000, shards=shards, workers=0, repeats=7),
        rounds=1,
        iterations=1,
    )
    assert outcome["candidates_identical"], (
        "sharded candidate merge diverged from the single-pass scan "
        "(values or order)"
    )
    assert outcome["results_identical"], (
        "sharded evaluation returned a different package/objective "
        "than the unsharded run"
    )
    assert outcome["where_path"] == "vectorized-sharded"
    assert outcome["shard_info"]["skipped"] > 0, (
        "zone maps skipped nothing on the clustered workload — the "
        "interval analysis regressed"
    )
    speedup = outcome["speedup"]
    assert speedup >= 2.0, (
        f"sharded scan only {speedup:.2f}x faster at {shards} shards "
        f"({outcome['unsharded_seconds'] * 1e3:.2f} ms vs "
        f"{outcome['sharded_seconds'] * 1e3:.2f} ms)"
    )
    benchmark.extra_info.update(outcome)


@pytest.mark.parametrize("shards", [3, 8, 64])
@pytest.mark.parametrize("workers", [1, 4])
def test_sharded_result_parity(benchmark, shards, workers):
    """Exact result parity across shard/worker counts (10k, fast)."""
    relation = clustered_relation(10000, seed=5)
    evaluator = PackageQueryEvaluator(relation)
    baseline = evaluator.evaluate(SHARD_BENCH_QUERY, EngineOptions())

    def run():
        return evaluator.evaluate(
            SHARD_BENCH_QUERY,
            EngineOptions(shards=shards, workers=workers),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status is baseline.status
    assert result.objective == baseline.objective
    assert result.package.counts == baseline.package.counts
    assert result.candidate_count == baseline.candidate_count
    assert result.bounds == baseline.bounds
    assert result.stats["where_path"] == "vectorized-sharded"
    benchmark.extra_info.update(
        {
            "shards": shards,
            "workers": workers,
            "shard_stats": result.stats["shards"],
            "objective": result.objective,
        }
    )
    evaluator.close()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["thread", "shm-process"])
def test_backend_result_parity(benchmark, backend, workers):
    """Every backend returns the serial answer bit for bit (E15 axis).

    The thread row pins the default backend; the shm-process row pins
    the zero-copy path on every push — parity must hold regardless of
    which pool the work actually ran on.
    """
    relation = clustered_relation(10000, seed=5)
    evaluator = PackageQueryEvaluator(relation)
    baseline = evaluator.evaluate(SHARD_BENCH_QUERY, EngineOptions())

    def run():
        return evaluator.evaluate(
            SHARD_BENCH_QUERY,
            EngineOptions(
                shards=8, workers=workers, parallel_backend=backend
            ),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status is baseline.status
    assert result.objective == baseline.objective
    assert result.package.counts == baseline.package.counts
    assert result.candidate_count == baseline.candidate_count
    assert result.bounds == baseline.bounds
    benchmark.extra_info.update(
        {
            "backend": backend,
            "workers": workers,
            "shard_stats": result.stats["shards"],
            "parallel_events": result.stats.get("parallel", []),
            "objective": result.objective,
        }
    )
    evaluator.close()
