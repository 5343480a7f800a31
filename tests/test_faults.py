"""Chaos suite: every injected fault recovers, degrades, or errors cleanly.

The contract under test (ISSUE 9): an injected fault at any registered
site — store read/write/fsync, shm export/attach, pool worker task,
server execute — must end in exactly one of **full recovery**,
**recorded degradation**, or a **clean error**.  Never a wrong answer,
never a poisoned cache.  The core assertion style is parity: run the
repeated session query stream under randomized seeded fault plans and compare
statuses and objectives bit-for-bit against the fault-free run.

Also here: the crash-recovery tests (a writer killed mid-write leaves
an orphan the next writer sweeps; a SIGKILLed process leaves no stale
locks), the multi-process writer consistency test, bounded-store
eviction, budget starvation falling back to a validated local-search
incumbent, and ``Retry-After`` backoff in the client.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core import faults
from repro.core.artifact_store import ArtifactStore
from repro.core.engine import EngineOptions, PackageQueryEvaluator, evaluate
from repro.core.package import Package
from repro.core.parallel import (
    ShmExecutionContext,
    ShmUnavailable,
    _shm_probe_task,
    collect_parallel_events,
)
from repro.core.session import EvaluationSession
from repro.core.validator import validate
from repro.datasets import clustered_relation
from repro.relational import shm as shm_mod

from tests.serverharness import SESSION_QUERIES, ServerHarness

OPTIONS = EngineOptions(strategy="ilp", shards=4)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = str(REPO_ROOT / "src")

#: The session stream: the three ``SESSION_QUERIES`` templates cycled
#: twice, so exact repeats exercise the results layer too.
STREAM = [SESSION_QUERIES[i % 3] for i in range(6)]


def subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def relation():
    return clustered_relation(400, seed=13)


@pytest.fixture(scope="module")
def baseline(relation):
    """Fault-free (status, objective) per stream query — the parity oracle."""
    session = EvaluationSession(relation, options=OPTIONS)
    try:
        return [
            (r.status.value, r.objective)
            for r in (session.evaluate(text) for text in STREAM)
        ]
    finally:
        session.close()


def run_stream(relation, store_path=None, **session_kwargs):
    session = EvaluationSession(
        relation, options=OPTIONS, store_path=store_path, **session_kwargs
    )
    try:
        return [
            (r.status.value, r.objective)
            for r in (session.evaluate(text) for text in STREAM)
        ]
    finally:
        session.close()


class TestFaultPlan:
    def test_spec_parsing(self):
        plan = faults.FaultPlan.from_spec(
            "seed=7,store.read:0.2,store.write:1.0:2:enospc"
        )
        assert plan.seed == 7
        assert set(plan.sites) == {"store.read", "store.write"}

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "no.such.site",
            "store.read:nope",
            "store.read:0.5:x",
            "store.read:0.5:1:frobnicate",
            "store.read:2.0",
            "seed=3",  # no sites
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            faults.FaultPlan.from_spec(spec)

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultPlan.from_spec("store.read,store.read:0.5")

    def test_deterministic_replay(self):
        def fires(seed):
            plan = faults.FaultPlan.from_spec("store.read:0.5", seed=seed)
            with faults.inject(plan):
                out = []
                for _ in range(40):
                    try:
                        out.append(faults.fault_point("store.read") or "none")
                    except faults.InjectedFault:
                        out.append("fault")
                return out

        assert fires(3) == fires(3)
        assert fires(3) != fires(4)

    def test_times_cap_and_counts(self):
        plan = faults.FaultPlan.from_spec("store.write:1.0:2")
        with faults.inject(plan):
            fired = 0
            for _ in range(5):
                try:
                    faults.fault_point("store.write")
                except faults.InjectedFault:
                    fired += 1
        assert fired == 2
        counts = plan.counts()
        assert counts["store.write"] == {"arrivals": 5, "fired": 2}

    def test_disarmed_fault_point_is_none(self):
        assert faults.active_plan() is None
        assert faults.fault_point("store.read") is None
        assert faults.fired_counts() == {}

    def test_action_errnos(self):
        import errno

        with faults.inject(
            faults.FaultPlan.from_spec("store.write:1.0:1:enospc")
        ):
            with pytest.raises(faults.InjectedFault) as info:
                faults.fault_point("store.write")
        assert info.value.errno == errno.ENOSPC

    def test_env_arming_in_subprocess(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core import faults; "
                "plan = faults.active_plan(); "
                "print(plan is not None and plan.sites)",
            ],
            env=subprocess_env(REPRO_FAULTS="seed=5,pool.task:0.5"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "pool.task" in out.stdout


class TestStoreFaultSites:
    def test_torn_write_is_rejected_never_served(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with faults.inject(faults.FaultPlan.from_spec("store.write:1.0:1:torn")):
            assert store.put("where_shard", ("k", 1), {"v": 1}) is True
        # The entry landed torn (truncated payload under a full
        # checksum); a fresh handle must reject it as a miss.
        reader = ArtifactStore(tmp_path / "store")
        assert reader.get("where_shard", ("k", 1)) is None
        assert reader.counters["where_shard"]["rejected"] == 1
        # Rejection deletes the entry: the next read is a plain miss.
        assert reader.get("where_shard", ("k", 1)) is None
        assert reader.counters["where_shard"]["rejected"] == 1

    def test_enospc_degrades_to_memory_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.put("where_shard", ("k", 0), {"v": 0}) is True
        with faults.inject(
            faults.FaultPlan.from_spec("store.write:1.0:1:enospc")
        ):
            assert store.put("where_shard", ("k", 1), {"v": 1}) is False
        assert store.degraded is not None
        assert store.counters["where_shard"]["degraded"] == 1
        # Sticky: later writes are no-ops even with the plan gone...
        assert store.put("where_shard", ("k", 2), {"v": 2}) is False
        # ...but reads keep serving what disk still has.
        assert store.get("where_shard", ("k", 0)) == {"v": 0}
        assert store.stats()["degraded"] is not None
        assert store.disk_stats()["degraded"] is not None

    def test_read_fault_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("where_shard", ("k", 1), {"v": 1})
        with faults.inject(faults.FaultPlan.from_spec("store.read:1.0:1")):
            assert store.get("where_shard", ("k", 1)) is None
        assert store.counters["where_shard"]["errors"] == 1
        assert store.degraded is None  # EIO is per-entry, not environmental
        assert store.get("where_shard", ("k", 1)) == {"v": 1}

    def test_fsync_fault_leaves_no_partial_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with faults.inject(faults.FaultPlan.from_spec("store.fsync:1.0:1")):
            assert store.put("where_shard", ("k", 1), {"v": 1}) is False
        assert store.get("where_shard", ("k", 1)) is None
        assert not list((tmp_path / "store").rglob("*.tmp"))


class TestBoundedStore:
    def entry(self, i):
        return ("payload", i, "x" * 1000)

    def test_eviction_bounds_size(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=20_000)
        for i in range(50):
            assert store.put("where_shard", ("k", i), self.entry(i)) is True
        disk = store.disk_stats()
        assert disk["bytes"] <= 20_000
        assert disk["entries"] > 0
        snapshot = store.snapshot()
        assert snapshot["evicted"] > 0
        # Every surviving entry is readable.
        for name, path, header in store.entries():
            assert header is not None
        assert store.verify()["failed"] == []

    def test_lru_prefers_recently_used(self, tmp_path):
        # Bound the store to 3.5 equal-sized entries: the fourth write
        # forces exactly one eviction.
        probe = ArtifactStore(tmp_path / "probe")
        probe.put("where_shard", ("k", "p"), self.entry(0))
        entry_bytes = probe.disk_stats()["bytes"]
        store = ArtifactStore(
            tmp_path / "store", max_bytes=int(entry_bytes * 3.5)
        )
        store.put("where_shard", ("k", "a"), self.entry(0))
        time.sleep(0.02)
        store.put("where_shard", ("k", "b"), self.entry(1))
        time.sleep(0.02)
        assert store.get("where_shard", ("k", "a")) is not None  # bump a's atime
        time.sleep(0.02)
        store.put("where_shard", ("k", "c"), self.entry(2))
        time.sleep(0.02)
        store.put("where_shard", ("k", "d"), self.entry(3))
        # b is now the least recently used entry and must be the victim.
        assert store.get("where_shard", ("k", "b")) is None
        assert store.get("where_shard", ("k", "a")) is not None

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path / "store", max_bytes=0)

    def test_session_respects_bound_under_stream(
        self, relation, baseline, tmp_path
    ):
        root = tmp_path / "store"
        outcomes = run_stream(
            relation, store_path=str(root), store_max_bytes=4096
        )
        # Eviction costs recomputes, never answers.
        assert outcomes == baseline
        store = ArtifactStore(root, max_bytes=4096)
        assert store.disk_stats()["bytes"] <= 4096
        assert sum(
            layer.get("evicted", 0)
            for layer in store.lifetime_counters().values()
        ) > 0
        assert store.verify()["failed"] == []


class TestChaosStream:
    """The tentpole assertion: randomized fault plans, bit-identical
    objectives versus the fault-free run, and no poisoned cache."""

    PLANS = [
        ("seed=1,store.read:0.4,store.write:0.4", False),
        ("seed=2,store.read:0.25,store.write:0.5:999:torn", True),
        ("seed=3,store.fsync:0.5,store.write:0.3:2:enospc", False),
        ("seed=4,store.read:0.6:999:eacces", False),
    ]

    @pytest.mark.parametrize("spec,torn", PLANS)
    def test_stream_parity_under_store_faults(
        self, relation, baseline, tmp_path, spec, torn
    ):
        root = str(tmp_path / "store")
        with faults.inject(faults.FaultPlan.from_spec(spec)) as plan:
            chaotic = run_stream(relation, store_path=root)
        assert chaotic == baseline
        assert sum(c["fired"] for c in plan.counts().values()) > 0
        # Whatever the faults left on disk must not poison a fresh
        # fault-free session: warm results stay bit-identical (torn
        # entries are rejected and recomputed, never served).
        rerun = run_stream(relation, store_path=root)
        assert rerun == baseline
        if not torn:
            assert ArtifactStore(root).verify()["failed"] == []

    def test_degraded_store_still_serves_stream(self, relation, baseline,
                                                tmp_path):
        # First write hits ENOSPC: the whole stream runs memory-only.
        root = str(tmp_path / "store")
        with faults.inject(
            faults.FaultPlan.from_spec("store.write:1.0:1:enospc")
        ):
            outcomes = run_stream(relation, store_path=root)
        assert outcomes == baseline


@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULTS"),
    reason="only under an ambient REPRO_FAULTS plan (chaos CI legs)",
)
class TestAmbientChaos:
    """The chaos-CI legs: a *store-site* plan armed through the
    environment at import time (no per-test ``inject``), layered under
    real store-backed streams.  The rest of this module arms plans
    per-test and asserts exact counters, so the ambient legs run only
    this class (``-k TestAmbientChaos``); site plans beyond the store
    (``pool.task`` kills, ``server.execute``) would crash the test
    process itself and belong in the per-test scenarios above.
    """

    def test_ambient_plan_is_armed(self):
        plan = faults.active_plan()
        assert plan is not None
        assert set(plan.sites) <= {"store.read", "store.write", "store.fsync"}

    def test_stream_parity_and_no_poisoned_cache(
        self, relation, baseline, tmp_path
    ):
        # The baseline fixture runs storeless, so a store-site ambient
        # plan cannot touch it; both store-backed runs below race the
        # ambient plan — the second over whatever damage the first left.
        root = str(tmp_path / "store")
        assert run_stream(relation, store_path=root) == baseline
        assert run_stream(relation, store_path=root) == baseline
        plan = faults.active_plan()
        arrivals = sum(c["arrivals"] for c in plan.counts().values())
        assert arrivals > 0, "the ambient plan observed no store traffic"


class TestCrashRecovery:
    WRITER = (
        "import sys, json\n"
        "from repro.core.artifact_store import ArtifactStore\n"
        "store = ArtifactStore(sys.argv[1])\n"
        "for i in range(10_000):\n"
        "    store.put('where_shard', ('crash', i), {'i': i, 'pad': 'x' * 256})\n"
        "    print(i, flush=True)\n"
    )

    def test_writer_killed_mid_write_leaves_recoverable_store(self, tmp_path):
        """Deterministic mid-write death: a kill fault on store.fsync
        exits between the temp write and the atomic replace — exactly
        the window a SIGKILL could land in."""
        root = str(tmp_path / "store")
        out = subprocess.run(
            [sys.executable, "-c", self.WRITER, root],
            env=subprocess_env(REPRO_FAULTS="store.fsync:1.0:1:kill"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 73  # faults.py crash exit code
        orphans = list(pathlib.Path(root).rglob("*.tmp"))
        assert orphans, "the killed writer should leave an orphan temp file"
        assert not list(pathlib.Path(root).rglob("*.art"))

        # A restarted process: the partial entry reads as a miss
        # (recompute), the next write sweeps the orphan, nothing stale
        # blocks the store.
        store = ArtifactStore(root)
        assert store.get("where_shard", ("crash", 0)) is None
        assert store.put("where_shard", ("crash", 0), {"i": 0}) is True
        assert store.get("where_shard", ("crash", 0)) == {"i": 0}
        assert not list(pathlib.Path(root).rglob("*.tmp"))
        assert store.verify()["failed"] == []

    def test_sigkill_leaves_no_stale_locks(self, tmp_path):
        """A genuinely SIGKILLed writer: flock dies with the process,
        so the surviving process writes immediately."""
        root = str(tmp_path / "store")
        proc = subprocess.Popen(
            [sys.executable, "-c", self.WRITER, root],
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() != ""  # at least one write
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        store = ArtifactStore(root)
        started = time.perf_counter()
        assert store.put("where_shard", ("after", 1), {"ok": True}) is True
        assert time.perf_counter() - started < 5.0  # no lock wait
        assert store.get("where_shard", ("after", 1)) == {"ok": True}
        assert store.verify()["failed"] == []

    def test_truncated_entry_is_rejected_and_recomputed(self, tmp_path):
        """A torn tail (crash mid-sector) fails the checksum gate."""
        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.put("where_shard", ("torn", 1), {"v": list(range(200))})
        [(_, path)] = [(n, p) for n, p, _ in store.entries()]
        blob = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(blob[: len(blob) - 16])
        reader = ArtifactStore(root)
        assert reader.get("where_shard", ("torn", 1)) is None
        assert reader.counters["where_shard"]["rejected"] == 1
        assert reader.put("where_shard", ("torn", 1), {"v": 1}) is True
        assert reader.get("where_shard", ("torn", 1)) == {"v": 1}


class TestMultiProcessWriters:
    WRITER = (
        "import sys, json\n"
        "from repro.core.artifact_store import ArtifactStore\n"
        "root, widx = sys.argv[1], int(sys.argv[2])\n"
        "store = ArtifactStore(root)\n"
        "ok = 0\n"
        "for i in range(120):\n"
        "    # Overlapping keys: both writers race the same final paths.\n"
        "    if store.put('where_shard', ('shared', i % 40), {'w': widx, 'i': i}):\n"
        "        ok += 1\n"
        "    if store.put('where_shard', ('own', widx, i), {'w': widx}):\n"
        "        ok += 1\n"
        "store.close()\n"
        "print(json.dumps({'ok': ok}))\n"
    )

    def test_two_processes_hammering_one_root_stay_consistent(self, tmp_path):
        root = str(tmp_path / "store")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, root, str(widx)],
                env=subprocess_env(),
                stdout=subprocess.PIPE,
                text=True,
            )
            for widx in (0, 1)
        ]
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=180)
            assert proc.returncode == 0
            reports.append(json.loads(out))
        # Every write succeeded in both processes (no lost races, no
        # spurious I/O errors under contention).
        assert all(report["ok"] == 240 for report in reports)

        store = ArtifactStore(root)
        # Every entry on disk is fully readable: atomic replace under
        # the write lock never exposes a torn or interleaved entry.
        assert store.verify()["failed"] == []
        assert store.disk_stats()["entries"] == 40 + 2 * 120
        for i in range(40):
            value = store.get("where_shard", ("shared", i))
            assert value is not None and value["i"] % 40 == i
        assert not list(pathlib.Path(root).rglob("*.tmp"))
        # Lifetime counters merged from both processes are sane.
        lifetime = store.lifetime_counters()
        assert sum(c.get("writes", 0) for c in lifetime.values()) >= 480


@pytest.mark.skipif(
    not shm_mod.shm_available(), reason="no shared memory on this host"
)
class TestSupervisedShmRecovery:
    def test_respawn_after_pool_death_recovers(self, relation):
        ctx = ShmExecutionContext.create(relation, workers=2)
        try:
            assert len(ctx.map(_shm_probe_task, range(4))) == 4
            # Kill the pool out from under the context (what a crashed
            # worker does to ProcessPoolExecutor).
            ctx._pool._pool.shutdown(wait=False, cancel_futures=True)
            events = []
            with collect_parallel_events(events):
                pids = ctx.map(_shm_probe_task, range(4))
            assert len(pids) == 4
            assert ctx._respawns == 1
            assert any("respawned" in e["fallback"] for e in events)
        finally:
            ctx.close()

    def test_worker_kill_faults_end_in_recorded_thread_fallback(
        self, relation, monkeypatch
    ):
        """Arm a kill rule via the environment: every spawned worker
        crashes on its first task, so respawns exhaust their budget and
        the engine's recorded thread fallback must deliver parity."""
        query = (
            "SELECT PACKAGE(R) FROM Readings R WHERE R.ts >= 0 "
            "SUCH THAT COUNT(*) <= 6 MAXIMIZE SUM(R.gain)"
        )
        expected = evaluate(query, relation, options=OPTIONS)
        monkeypatch.setattr(ShmExecutionContext, "RESPAWN_LIMIT", 1)
        monkeypatch.setenv("REPRO_FAULTS", "pool.task:1.0:1:kill")
        shm_options = EngineOptions(
            strategy="ilp",
            shards=4,
            workers=2,
            parallel_backend="shm-process",
        )
        evaluator = PackageQueryEvaluator(relation)
        try:
            result = evaluator.evaluate(query, shm_options)
        finally:
            evaluator.close()
        assert result.status == expected.status
        assert result.objective == expected.objective
        events = result.stats.get("parallel", [])
        assert any(
            "respawn" in e["fallback"] or "thread" in e["fallback"]
            for e in events
        ), events


BUDGET_QUERY = SESSION_QUERIES[0]


class TestBudgetFallback:
    def test_starved_budget_returns_validated_fallback(self, relation):
        with ServerHarness([relation], options=OPTIONS) as harness:
            # A budget far below one enumeration slice: the deadline
            # expires before any incumbent exists.
            code, payload = harness.query(
                "Readings", BUDGET_QUERY, budget_ms=0.01
            )
            assert code == 200
            assert payload["status"] == "budget-fallback"
            assert payload["strategy"] == "anytime+local-search"
            assert payload["cached"] is False
            assert payload["package"], payload
            # The fallback package is genuinely feasible: rebuild it
            # and push it through the validation oracle ourselves.
            evaluator = PackageQueryEvaluator(relation)
            query = evaluator.prepare(BUDGET_QUERY)
            package = Package(
                relation,
                {int(rid): count for rid, count in payload["package"].items()},
            )
            report = validate(package, query)
            assert report.valid
            assert report.objective == payload["objective"]

            # Never a poisoned cache: the un-budgeted evaluation after
            # the fallback is exact, not a replay of the incumbent.
            code, exact = harness.query("Readings", BUDGET_QUERY)
            assert code == 200
            assert exact["status"] == "optimal"
            assert exact["objective"] >= payload["objective"]

            stats = harness.stats()
            assert stats["admission"]["budget_fallbacks"] >= 1

    def test_starved_budget_on_infeasible_query_stays_clean(self, relation):
        infeasible = (
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT COUNT(*) >= 4 AND COUNT(*) <= 2 "
            "MAXIMIZE SUM(R.gain)"
        )
        with ServerHarness([relation], options=OPTIONS) as harness:
            code, payload = harness.query(
                "Readings", infeasible, budget_ms=0.01
            )
            assert code == 200
            # No feasible package exists: the fallback must not invent
            # one (clean budget/infeasible status, empty package).
            assert payload["package"] is None
            assert payload["status"] in ("budget", "infeasible")


class TestServerFaultObservability:
    def test_server_execute_fault_is_a_clean_500(self, relation):
        with ServerHarness([relation], options=OPTIONS) as harness:
            harness.arm_faults("server.execute:1.0:2")
            for _ in range(2):
                code, payload = harness.query("Readings", BUDGET_QUERY)
                assert code == 500
                assert "injected fault" in payload["error"]
            # The worker survived: the next query succeeds.
            code, payload = harness.query("Readings", BUDGET_QUERY)
            assert code == 200
            block = harness.fault_stats()
            assert block["injected"]["server.execute"]["fired"] == 2
            harness.disarm_faults()

    def test_degraded_store_is_visible_in_stats(self, relation, tmp_path):
        with ServerHarness(
            [relation], options=OPTIONS, store_root=str(tmp_path / "stores")
        ) as harness:
            harness.arm_faults("store.write:1.0:1:enospc")
            code, payload = harness.query("Readings", BUDGET_QUERY)
            assert code == 200  # degradation, not failure
            harness.disarm_faults()
            block = harness.fault_stats()
            assert "Readings" in block["degraded_stores"]

    def test_retry_after_header_reaches_the_client(self, relation):
        with ServerHarness(
            [relation], options=OPTIONS, workers=1, queue_depth=1
        ) as harness:
            harness.slow_queries(0.6)
            # A concurrent burst of four against one worker + one queue
            # slot: whichever requests lose admission must carry the
            # parsed Retry-After hint.
            body = {"relation": "Readings", "query": BUDGET_QUERY}
            results = harness.flood([body] * 4, concurrency=4)
            rejected = [payload for code, payload in results if code == 429]
            assert rejected, (
                f"no 429 in {[code for code, _ in results]} — the burst "
                "never overflowed admission"
            )
            assert all(p["retry_after"] == 1.0 for p in rejected)
            harness.clear_hook()

    def test_client_backoff_retries_through_admission(self, relation):
        with ServerHarness(
            [relation], options=OPTIONS, workers=1, queue_depth=1
        ) as harness:
            harness.slow_queries(0.4)
            import threading

            background = [
                threading.Thread(
                    target=harness.query, args=("Readings", BUDGET_QUERY)
                )
                for _ in range(2)
            ]
            for thread in background:
                thread.start()
            time.sleep(0.1)
            harness.clear_hook()
            with harness.client() as client:
                code, payload = client.query(
                    "Readings", BUDGET_QUERY, max_retries=8
                )
            assert code == 200
            assert payload["status"] == "optimal"
            for thread in background:
                thread.join(timeout=60)
