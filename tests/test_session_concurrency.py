"""Thread-safety regressions for shared sessions and evaluators.

The serving PR lets many worker threads run queries through one
:class:`EvaluationSession`.  Each test here pins one of the races the
session refactor closed:

* ``BoundedCache`` LRU bookkeeping under a get/put hammer,
* concurrent ``session.evaluate`` staying bit-identical to serial,
* ``ShmExecutionContext`` close() racing map()/shared_rids() without
  crashing or leaking ``/dev/shm`` segments,
* ``sharded_relation`` building exactly one sharded view per count.
"""

from __future__ import annotations

import glob
import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.engine import EngineOptions, PackageQueryEvaluator, evaluate
from repro.core.parallel import ShmExecutionContext, ShmUnavailable
from repro.core.cache import BoundedCache
from repro.core.session import EvaluationSession
from repro.datasets import clustered_relation
from repro.relational import Column, ColumnType, Relation, Schema
from repro.relational import shm

_SCHEMA = Schema(
    [Column("cost", ColumnType.FLOAT), Column("gain", ColumnType.FLOAT)]
)

QUERIES = [
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= 3 "
    "AND MAX(R.cost) <= 40 MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R WHERE R.cost <= 30 "
    "SUCH THAT COUNT(*) <= 4 MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) = 2 "
    "AND SUM(R.cost) <= 50 MINIMIZE SUM(R.cost)",
]


def small_relation():
    rows = [(float(5 * i % 57), float(i % 11)) for i in range(60)]
    return Relation(
        "Red", _SCHEMA, [{"cost": c, "gain": g} for c, g in rows]
    )


def shm_segments():
    return {
        os.path.basename(path) for path in glob.glob("/dev/shm/psm_*")
    }


class TestBoundedCacheUnderThreads:
    def test_hammer_keeps_lru_invariants(self):
        cache = BoundedCache(maxsize=8)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    key = rng.randrange(20)
                    if rng.random() < 0.5:
                        cache.put(key, key * 2)
                    else:
                        value = cache.get(key)
                        if value is not None:
                            assert value == key * 2
                    if rng.random() < 0.01:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0

    def test_byte_bound_stays_consistent_under_threads(self):
        cache = BoundedCache(
            maxsize=64, max_bytes=4096, sizer=lambda value: len(value)
        )

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.randrange(32)
                cache.put(key, b"x" * rng.randrange(1, 512))
                cache.get(rng.randrange(32))

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))
        stats = cache.stats()
        # One oversize entry may remain; beyond that the byte cap holds.
        assert stats["entries"] <= 64
        assert stats["approx_bytes"] <= 4096 + 512


class TestConcurrentSessionParity:
    def test_threaded_mix_matches_serial(self):
        relation = small_relation()
        expected = {
            text: evaluate(text, relation) for text in QUERIES
        }
        session = EvaluationSession(relation)
        mix = QUERIES * 6
        random.Random(7).shuffle(mix)

        def run(text):
            result = session.evaluate(text)
            return text, result

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(run, mix))
        for text, result in outcomes:
            cold = expected[text]
            assert result.status is cold.status
            assert result.objective == cold.objective
            if cold.package is not None:
                assert result.package.counts == cold.package.counts
        assert session.queries_run == len(mix)

    def test_concurrent_explain_and_evaluate(self):
        session = EvaluationSession(small_relation())

        def work(i):
            text = QUERIES[i % len(QUERIES)]
            if i % 2:
                return session.explain(text)
            return session.evaluate(text)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(12)))
        assert len(results) == 12


class TestEvaluatorSharedState:
    def test_sharded_relation_single_instance_across_threads(self):
        evaluator = PackageQueryEvaluator(clustered_relation(500, seed=3))
        barrier = threading.Barrier(6)

        def build():
            barrier.wait()
            return evaluator.sharded_relation(4)

        with ThreadPoolExecutor(max_workers=6) as pool:
            views = list(pool.map(lambda _: build(), range(6)))
        assert all(view is views[0] for view in views)
        evaluator.close()


@pytest.mark.skipif(
    not shm.shm_available(), reason="no shared memory on this host"
)
class TestShmContextRaces:
    def test_close_racing_map_never_crashes(self):
        relation = clustered_relation(400, seed=2)
        before = shm_segments()
        from repro.core.parallel import _shm_probe_task

        ctx = ShmExecutionContext.create(relation, workers=1)
        start = threading.Barrier(2)
        outcomes = []

        def mapper():
            start.wait()
            for _ in range(5):
                try:
                    outcomes.append(ctx.map(_shm_probe_task, range(2)))
                except ShmUnavailable:
                    outcomes.append("degraded")

        def closer():
            start.wait()
            ctx.close()

        threads = [
            threading.Thread(target=mapper),
            threading.Thread(target=closer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes  # every attempt resolved, none crashed
        assert shm_segments() <= before

    def test_concurrent_shared_rids_with_eviction_pressure(self):
        relation = clustered_relation(400, seed=2)
        before = shm_segments()
        ctx = ShmExecutionContext.create(relation, workers=1)
        try:

            def worker(seed):
                rng = random.Random(seed)
                for _ in range(20):
                    size = rng.randrange(5, 25)
                    rids = np.arange(size, dtype=np.intp)
                    handle = ctx.shared_rids(rids)
                    assert handle is not None

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(worker, range(4)))
        finally:
            ctx.close()
        assert shm_segments() <= before

    def test_session_shm_queries_from_threads(self):
        relation = clustered_relation(2000, seed=15)
        options = EngineOptions(
            shards=4, workers=2, parallel_backend="shm-process"
        )
        text = (
            "SELECT PACKAGE(R) FROM Readings R "
            "WHERE R.cost + R.weight <= 60 AND R.gain >= 20 "
            "SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 150 "
            "MAXIMIZE SUM(R.gain)"
        )
        cold = evaluate(text, relation)
        before = shm_segments()
        session = EvaluationSession(relation, options=options)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(
                    pool.map(lambda _: session.evaluate(text), range(6))
                )
        finally:
            session.close()
        for result in results:
            assert result.status is cold.status
            assert result.objective == cold.objective
        assert shm_segments() <= before


class TestInFlightQueryAcrossMutation:
    """An in-flight query writes only into the artifact unit it
    snapshotted: a result solved over the pre-mutation relation must
    never land in the post-mutation result cache or store scope."""

    QUERY = (
        "SELECT PACKAGE(R) FROM Readings R "
        "SUCH THAT COUNT(*) <= 3 MAXIMIZE SUM(R.gain)"
    )

    def _evaluate_across(self, session, mutate):
        """Solve ``QUERY``, then run ``mutate`` while that call sits
        between its solve and its result-cache write; return its result."""
        evaluator = session.evaluator
        real = evaluator.evaluate
        solved, release = threading.Event(), threading.Event()

        def held(query, options=None):
            result = real(query, options)
            solved.set()
            assert release.wait(60)
            return result

        evaluator.evaluate = held
        box = []
        thread = threading.Thread(
            target=lambda: box.append(session.evaluate(self.QUERY))
        )
        thread.start()
        try:
            assert solved.wait(60)
            mutate()
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        return box[0]

    def _check_not_poisoned(self, session, store_path, stale):
        store = session.store
        assert list(store.entries("results", session.relation_hash)) == []
        cold = evaluate(self.QUERY, session.relation)
        assert cold.objective != stale.objective
        after = session.evaluate(self.QUERY)
        assert "session" not in after.stats
        assert after.objective == cold.objective
        assert after.package.counts == cold.package.counts
        session.close()
        with EvaluationSession(session.relation, store_path=store_path) as fresh:
            replayed = fresh.evaluate(self.QUERY)
        assert replayed.objective == cold.objective
        assert replayed.package.counts == cold.package.counts

    def test_append_does_not_poison_the_new_result_cache(self, tmp_path):
        relation = clustered_relation(2000, seed=3)
        store_path = str(tmp_path / "store")
        session = EvaluationSession(relation, store_path=store_path)
        template = dict(relation[0])
        jackpot = [
            dict(template, label=f"new{i}", gain=1e6) for i in range(3)
        ]
        stale = self._evaluate_across(
            session, lambda: session.append_rows(jackpot)
        )
        assert stale.objective < 1e6
        self._check_not_poisoned(session, store_path, stale)

    def test_delete_does_not_poison_the_new_result_cache(self, tmp_path):
        relation = clustered_relation(2000, seed=3)
        store_path = str(tmp_path / "store")
        session = EvaluationSession(relation, store_path=store_path)
        best = [rid for rid, _ in evaluate(self.QUERY, relation).package.counts]
        stale = self._evaluate_across(
            session, lambda: session.delete_rows(best)
        )
        assert sorted(rid for rid, _ in stale.package.counts) == sorted(best)
        self._check_not_poisoned(session, store_path, stale)
