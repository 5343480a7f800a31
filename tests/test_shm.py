"""Shared-memory export/attach lifecycle and the shm-process backend.

Handle and task-spec pickling (O(KB) at any row count), zero-copy view
identity, unlink-on-close, double-close, spawn-context worker parity,
and the no-leaked-segments guarantee (exception paths included).  The
multi-core scan-scaling curve lives in ``benchmarks/bench_e15_shm.py``.
"""

from __future__ import annotations

import glob
import os
import pickle

import numpy as np
import pytest

from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.core.parallel import ShmExecutionContext, ShmUnavailable
from repro.core.session import EvaluationSession
from repro.datasets import clustered_relation
from repro.relational import shm
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="no shared memory on this host"
)

UNIFORM_QUERY = """
SELECT PACKAGE(R) FROM Readings R
WHERE R.cost + R.weight <= 60 AND R.gain >= 20
SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 150
MAXIMIZE SUM(R.gain)
"""


def mixed_relation():
    """A small relation exercising every column type plus NULLs."""
    schema = Schema(
        [
            Column("label", ColumnType.TEXT),
            Column("cost", ColumnType.FLOAT),
            Column("size", ColumnType.INT),
            Column("flag", ColumnType.BOOL),
        ]
    )
    rows = [
        {"label": "a", "cost": 1.5, "size": 3, "flag": True},
        {"label": None, "cost": None, "size": None, "flag": None},
        {"label": "c", "cost": -2.25, "size": 7, "flag": False},
    ]
    return Relation("Mixed", schema, rows)


def shm_segments():
    """Names of live /dev/shm data segments (Linux; else empty)."""
    return {
        os.path.basename(path)
        for path in glob.glob("/dev/shm/psm_*")
        if not path.startswith("/dev/shm/sem.")
    }


class TestHandle:
    def test_pickle_round_trip(self):
        export = shm.export_relation(mixed_relation())
        try:
            clone = pickle.loads(pickle.dumps(export.handle))
            assert clone == export.handle
        finally:
            export.close()

    def test_handle_pickles_under_4kb(self):
        # The per-worker IPC cost of the whole relation: a handle,
        # never the data — O(KB) regardless of row count.  The same
        # bound holds for what rides each task: a compiled WHERE-scan
        # spec and the EngineOptions the refine specs carry.
        relation = clustered_relation(50000, seed=15)
        export = shm.export_relation(relation)
        try:
            assert export.handle.pickled_size() < 4096
        finally:
            export.close()
        evaluator = PackageQueryEvaluator(relation)
        try:
            query = evaluator.prepare(UNIFORM_QUERY)
            spec = (query.where, 8, 3)  # the WHERE-scan task spec shape
            assert len(pickle.dumps(spec)) < 4096
            options = EngineOptions(shards=8, workers=2)
            assert len(pickle.dumps(options)) < 4096
        finally:
            evaluator.close()


class TestAttachParity:
    def test_arrays_bit_identical(self):
        relation = mixed_relation()
        export = shm.export_relation(relation)
        try:
            attached = shm.attach_relation(export.handle)
            assert len(attached) == len(relation)
            for name in relation.schema.names:
                values, nulls = relation.column_arrays(name)
                shared_values, shared_nulls = attached.column_arrays(name)
                assert shared_values.dtype == values.dtype
                assert shared_nulls.dtype == nulls.dtype
                if values.dtype.kind == "f":
                    assert np.array_equal(
                        shared_values, values, equal_nan=True
                    )
                    # Bit identity, not just NaN-tolerant equality.
                    assert (
                        shared_values.tobytes() == values.tobytes()
                    )
                else:
                    assert np.array_equal(shared_values, values)
                assert np.array_equal(shared_nulls, nulls)
            attached.detach()
        finally:
            export.close()

    def test_row_shaped_access_matches(self):
        relation = mixed_relation()
        export = shm.export_relation(relation)
        try:
            attached = shm.attach_relation(export.handle)
            assert attached.column("label") == relation.column("label")
            assert attached.column("size") == relation.column("size")
            assert attached.column("flag") == relation.column("flag")
            assert list(attached) == list(relation)
            attached.detach()
        finally:
            export.close()

    def test_views_are_zero_copy(self):
        # Two views over one attached mapping share memory — the
        # attach rebuilt the arrays over the segment, it did not copy.
        array = np.arange(64, dtype=np.float64)
        export = shm.export_array(array)
        try:
            first, segment = shm.attach_array(export.handle)
            second = shm._view(segment, export.handle.spec)
            assert np.shares_memory(first, second)
            assert np.array_equal(first, array)
            # And the mapping is the shared pages, not private memory:
            # a second *attachment* observes the same bytes.
            other, other_segment = shm.attach_array(export.handle)
            assert np.array_equal(other, first)
            del first, second, other
            segment.close()
            other_segment.close()
        finally:
            export.close()

    def test_relation_cache_returns_same_views(self):
        export = shm.export_relation(mixed_relation())
        try:
            attached = shm.attach_relation(export.handle)
            once_values, once_nulls = attached.column_arrays("cost")
            again_values, again_nulls = attached.column_arrays("cost")
            assert np.shares_memory(once_values, again_values)
            assert np.shares_memory(once_nulls, again_nulls)
            attached.detach()
        finally:
            export.close()


class TestLifecycle:
    def test_unlink_on_close(self):
        export = shm.export_relation(mixed_relation())
        name = export.handle.segment
        export.close()
        with pytest.raises(shm.SharedMemoryUnavailable):
            shm.attach_relation(export.handle)
        assert name not in shm_segments()

    def test_double_close_safe(self):
        export = shm.export_array(np.arange(8))
        export.close()
        export.close()  # must not raise
        assert export.closed

    def test_close_with_live_views_still_unlinks(self):
        export = shm.export_relation(mixed_relation())
        attached = shm.attach_relation(export.handle)
        values, _ = attached.column_arrays("cost")
        export.close()  # creator-side BufferError path: unlink anyway
        assert export.handle.segment not in shm_segments()
        # The attacher's mapping stays valid until it detaches (POSIX
        # keeps unlinked pages alive while mapped).
        assert float(values[0]) == 1.5
        attached.detach()

    def test_context_manager_closes_on_exception(self):
        handle = None
        with pytest.raises(RuntimeError, match="boom"):
            with shm.export_relation(mixed_relation()) as export:
                handle = export.handle
                raise RuntimeError("boom")
        assert handle.segment not in shm_segments()

    def test_no_segments_leak(self):
        before = shm_segments()
        export = shm.export_relation(clustered_relation(500, seed=1))
        scratch = shm.export_array(np.arange(100, dtype=np.intp))
        attached = shm.attach_relation(export.handle)
        attached.detach()
        scratch.close()
        export.close()
        assert shm_segments() <= before


class TestExecutionContext:
    def test_create_map_close(self):
        relation = clustered_relation(400, seed=2)
        before = shm_segments()
        ctx = ShmExecutionContext.create(relation, workers=1)
        try:
            handle = ctx.shared_rids(np.arange(10, dtype=np.intp))
            again = ctx.shared_rids(np.arange(10, dtype=np.intp))
            assert handle == again  # digest-keyed reuse, one export
        finally:
            ctx.close()
        ctx.close()  # idempotent
        with pytest.raises(ShmUnavailable):
            ctx.map(len, [()])
        assert shm_segments() <= before

    def test_spawn_workers_attach_and_execute(self):
        relation = clustered_relation(400, seed=2)
        from repro.core.parallel import _shm_probe_task

        with ShmExecutionContext.create(relation, workers=2) as ctx:
            pids = ctx.map(_shm_probe_task, range(4))
            assert len(pids) == 4
            assert all(pid != os.getpid() for pid in pids)


class TestEngineParity:
    def test_shm_process_backend_bit_identical(self):
        # End-to-end over spawn workers: shards=4, workers=2; the
        # WHERE scan, pruner statistics, and reduction all ride the
        # shm pool, and every number matches the serial run exactly.
        relation = clustered_relation(4000, seed=15)
        evaluator = PackageQueryEvaluator(relation)
        try:
            serial = evaluator.evaluate(UNIFORM_QUERY, EngineOptions())
            options = EngineOptions(
                shards=4, workers=2, parallel_backend="shm-process"
            )
            shared = evaluator.evaluate(UNIFORM_QUERY, options)
            assert shared.objective == serial.objective
            assert shared.package.counts == serial.package.counts
            assert shared.bounds == serial.bounds
            assert shared.stats["shards"]["backend"] == "shm-process"
            assert "parallel" not in shared.stats  # no degradations
        finally:
            evaluator.close()

    def test_partition_refinement_wave_parity(self):
        # The fourth wired consumer: parallel refinement waves ship
        # compiled refine specs to the shm workers; the committed
        # package must match the thread-backend wave bit for bit
        # (winner by objective + index tie-break, never completion
        # order).
        from repro.core.partitioning import PartitionOptions

        relation = clustered_relation(600, seed=7)
        parts = PartitionOptions(num_partitions=12, parallel_refine=True)
        threaded = PackageQueryEvaluator(relation)
        shared = PackageQueryEvaluator(relation)
        try:
            base = dict(
                strategy="partition", shards=4, workers=2, partition=parts
            )
            thread_result = threaded.evaluate(
                UNIFORM_QUERY, EngineOptions(**base)
            )
            shm_result = shared.evaluate(
                UNIFORM_QUERY,
                EngineOptions(**base, parallel_backend="shm-process"),
            )
            assert shm_result.objective == thread_result.objective
            assert (
                shm_result.package.counts == thread_result.package.counts
            )
            assert shm_result.stats.get("refine_waves", 0) >= 1
            assert shm_result.stats["refine_backend"] == "shm-process"
        finally:
            threaded.close()
            shared.close()

    def test_session_owns_context_lifecycle(self):
        before = shm_segments()
        relation = clustered_relation(2000, seed=15)
        options = EngineOptions(
            shards=4, workers=2, parallel_backend="shm-process"
        )
        with EvaluationSession(relation, options=options) as session:
            first = session.evaluate(UNIFORM_QUERY)
            second = session.evaluate(UNIFORM_QUERY)
            assert first.objective == second.objective
        assert shm_segments() <= before

    def test_no_segments_leak_on_evaluation_error(self):
        relation = clustered_relation(2000, seed=15)
        before = shm_segments()
        evaluator = PackageQueryEvaluator(relation)
        options = EngineOptions(
            shards=4, workers=2, parallel_backend="shm-process"
        )
        try:
            evaluator.evaluate(UNIFORM_QUERY, options)
            with pytest.raises(Exception):
                evaluator.evaluate("SELECT nonsense", options)
        finally:
            evaluator.close()
        assert shm_segments() <= before
