"""The parallel executor: ordered merge, fallbacks, chunking."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.parallel import (
    ExecutorPool,
    ParallelOptions,
    available_cpus,
    chunk_slices,
    collect_parallel_events,
    effective_workers,
    note_parallel_event,
    parallel_map,
)


class TestChunkSlices:
    def test_covers_range_contiguously(self):
        for total, chunks in [(10, 3), (7, 7), (100, 1), (5, 8), (0, 4)]:
            slices = chunk_slices(total, chunks)
            assert len(slices) == chunks
            covered = []
            for part in slices:
                covered.extend(range(part.start, part.stop))
            assert covered == list(range(total))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [s.stop - s.start for s in chunk_slices(103, 8)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_more_chunks_than_items_yields_empty_tail(self):
        slices = chunk_slices(3, 5)
        assert [s.stop - s.start for s in slices] == [1, 1, 1, 0, 0]

    def test_rejects_nonpositive_chunks(self):
        with pytest.raises(ValueError):
            chunk_slices(10, 0)


class TestEffectiveWorkers:
    def test_never_exceeds_task_count(self):
        assert effective_workers(16, 3) == 3

    def test_single_task_is_serial(self):
        assert effective_workers(0, 1) == 1
        assert effective_workers(8, 0) == 1

    def test_zero_means_available_cpus(self):
        # 0 resolves to the CPUs the scheduler will actually grant —
        # the affinity mask under cgroup/taskset limits — not the raw
        # core count.
        assert effective_workers(0, 1000) == available_cpus()

    def test_available_cpus_prefers_affinity_mask(self, monkeypatch):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 3
        assert effective_workers(0, 1000) == 3

    def test_available_cpus_falls_back_to_cpu_count(self, monkeypatch):
        import os

        def unsupported(pid):
            raise AttributeError("sched_getaffinity")

        monkeypatch.setattr(
            os, "sched_getaffinity", unsupported, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert available_cpus() == 5

    def test_explicit_count_honored(self):
        assert effective_workers(2, 100) == 2


class TestParallelMap:
    def test_preserves_input_order_under_threads(self):
        # Later items finish first; results must still merge in order.
        def slow_for_small(item):
            time.sleep(0.002 * (5 - item))
            return item * 10

        assert parallel_map(slow_for_small, range(5), workers=5) == [
            0,
            10,
            20,
            30,
            40,
        ]

    def test_serial_when_one_worker(self):
        seen_threads = set()

        def record(item):
            seen_threads.add(threading.current_thread().name)
            return item

        parallel_map(record, range(10), workers=1)
        assert seen_threads == {threading.current_thread().name}

    def test_exceptions_propagate(self):
        def boom(item):
            if item == 3:
                raise ValueError("item 3")
            return item

        with pytest.raises(ValueError, match="item 3"):
            parallel_map(boom, range(6), workers=4)

    def test_empty_input(self):
        assert parallel_map(lambda x: x, [], workers=4) == []

    def test_task_runtime_error_propagates_without_serial_rerun(self):
        # A RuntimeError from a *task* must propagate as-is — it must
        # not be mistaken for a pool failure and trigger a silent
        # serial re-execution of the whole workload.
        calls = []

        def boom(item):
            calls.append(item)
            if item == 1:
                raise RuntimeError("task-level failure")
            return item

        with pytest.raises(RuntimeError, match="task-level failure"):
            parallel_map(boom, range(4), workers=4)
        assert calls.count(1) == 1  # ran once, not re-run serially

    def test_thread_start_failure_mid_submission_runs_each_task_once(
        self, monkeypatch
    ):
        # When thread start fails partway through submission, the
        # already-submitted prefix must be harvested from its futures
        # (those tasks may already be executing in the pool) and only
        # the unsubmitted remainder run serially — never a full serial
        # re-run that executes the prefix twice.  Mimicking CPython,
        # the fake enqueues the boundary item's work before raising
        # (submit queues, then thread start fails), so that one item
        # may legitimately run twice — the documented pool-failure
        # replay; every other item must run exactly once.
        import concurrent.futures

        class FlakyExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._flaky_submissions = 0

            def submit(self, fn, *args, **kwargs):
                self._flaky_submissions += 1
                if self._flaky_submissions > 2:
                    super().submit(fn, *args, **kwargs)
                    raise RuntimeError("can't start new thread")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", FlakyExecutor
        )
        lock = threading.Lock()
        calls = []

        def task(item):
            with lock:
                calls.append(item)
            return item * 10

        assert parallel_map(task, range(6), workers=4) == [
            0,
            10,
            20,
            30,
            40,
            50,
        ]
        assert sorted(set(calls)) == list(range(6))
        assert calls.count(2) in (1, 2)  # the boundary item may replay
        for item in (0, 1, 3, 4, 5):
            assert calls.count(item) == 1

    def test_serial_backend(self):
        assert parallel_map(lambda x: x + 1, range(4), backend="serial") == [
            1,
            2,
            3,
            4,
        ]


class TestParallelEvents:
    def test_noop_outside_collector(self):
        # Must not raise, must not leak state anywhere.
        note_parallel_event("thread", "whatever")

    def test_events_deduplicate(self):
        events = []
        with collect_parallel_events(events):
            note_parallel_event("thread", "same reason")
            note_parallel_event("thread", "same reason")
            note_parallel_event("thread", "other reason")
        assert len(events) == 2

    def test_collectors_nest_and_restore(self):
        outer, inner = [], []
        with collect_parallel_events(outer):
            note_parallel_event("thread", "outer event")
            with collect_parallel_events(inner):
                note_parallel_event("thread", "inner event")
            note_parallel_event("thread", "outer again")
        assert [e["fallback"] for e in outer] == ["outer event", "outer again"]
        assert [e["fallback"] for e in inner] == ["inner event"]


class TestExecutorPool:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelOptions(backend="gpu")

    def test_reusable_across_calls(self):
        pool = ExecutorPool(ParallelOptions(workers=2))
        assert pool.map(lambda x: -x, [1, 2]) == [-1, -2]
        assert pool.map(lambda x: x * x, [3, 4]) == [9, 16]
