"""The one bounded cache, the one tiered layer, and the guard that
keeps them the only ones."""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
from repro.core.artifact_store import (
    RELATION_LAYERS,
    SHARD_LAYERS,
    ArtifactStore,
)
from repro.core.cache import ArtifactLayer, BoundedCache
from repro.core.engine import EngineOptions, PackageQueryEvaluator, evaluate
from repro.core.session import ArtifactCache, EvaluationSession
from repro.core.strategies import EvaluationContext
from repro.datasets import clustered_relation


class TestBoundedCache:
    def test_entry_bound_evicts_least_recently_used(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_byte_bound_keeps_at_least_one_entry(self):
        cache = BoundedCache(8, max_bytes=10, sizer=len)
        cache.put("big", b"x" * 100)
        assert cache.get("big") is not None
        cache.put("small", b"y")
        assert cache.get("big") is None
        assert cache.stats()["approx_bytes"] == 1

    def test_reput_replaces_the_byte_count(self):
        cache = BoundedCache(8, max_bytes=1000, sizer=len)
        cache.put("k", b"x" * 400)
        cache.put("k", b"x" * 30)
        assert cache.stats() == {
            "entries": 1, "hits": 0, "misses": 0, "approx_bytes": 30,
        }

    def test_stats_shape(self):
        cache = BoundedCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}


class _SpyStore:
    """Counts lookups that reach a real store."""

    def __init__(self, store):
        self._store = store
        self.gets = 0

    def get(self, layer, key, scope=None):
        self.gets += 1
        return self._store.get(layer, key, scope)


class TestArtifactLayer:
    def test_store_hit_fills_memory(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("results", ("k",), "value", "scope")
        spy = _SpyStore(store)
        memory = BoundedCache(4)
        layer = ArtifactLayer(memory, spy, "results", "scope")
        assert layer.get(("k",)) == "value"
        assert layer.get(("k",)) == "value"
        assert spy.gets == 1  # the second lookup never left memory
        # The store-served lookup still counts as one memory miss.
        assert layer.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_put_writes_both_tiers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        memory = BoundedCache(4)
        layer = ArtifactLayer(memory, store, "results", "scope")
        layer.put(("k",), "value")
        assert memory.get(("k",)) == "value"
        assert store.get("results", ("k",), "scope") == "value"
        # Another scope over the same store does not see it.
        other = ArtifactLayer(BoundedCache(4), store, "results", "other")
        assert other.get(("k",)) is None

    def test_corrupted_store_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        layer = ArtifactLayer(BoundedCache(4), store, "results", "scope")
        layer.put(("k",), "value")
        ((_, path, _),) = store.entries("results", "scope")
        blob = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        fresh = ArtifactLayer(BoundedCache(4), store, "results", "scope")
        assert fresh.get(("k",)) is None
        assert store.stats()["layers"]["results"]["rejected"] == 1

    def test_memory_only_and_store_only(self, tmp_path):
        memory_only = ArtifactLayer(BoundedCache(4), None, "results", None)
        memory_only.put("k", "v")
        assert memory_only.get("k") == "v"
        memory_only.clear()
        assert memory_only.get("k") is None

        store = ArtifactStore(tmp_path / "store")
        store_only = ArtifactLayer(None, store, "where_shard", None)
        assert store_only.get(("fp", "col")) is None
        store_only.put(("fp", "col"), (1, 2))
        assert store_only.get(("fp", "col")) == (1, 2)
        assert store_only.stats() == {}
        store_only.clear()  # no memory tier: the durable entry stays
        assert store_only.get(("fp", "col")) == (1, 2)


class TestOnlyOneOfEach:
    """The structural guard: what stops the sixth LRU, the fourth rid
    digest and a second parallelism knob."""

    SRC = pathlib.Path(repro.__file__).parent

    def _files_containing(self, needle):
        return {
            path.relative_to(self.SRC).as_posix()
            for path in self.SRC.rglob("*.py")
            if needle in path.read_text(encoding="utf-8")
        }

    def test_one_lru(self):
        assert self._files_containing("OrderedDict") == {"core/cache.py"}
        assert self._files_containing("popitem(last=False)") == {"core/cache.py"}

    def test_one_candidate_column_source(self):
        # Pruning, reduction, translation, the seeds, local search,
        # partitioning and SQL generation read the candidates'
        # aggregate arguments from one CandidateColumns: one gather
        # per argument per query, one shard fan-out, one interpreter
        # fallback (package.py keeps the validator's own).
        assert self._files_containing("scalar_arrays(") == {"core/vectorize.py"}
        assert {
            path
            for path in self._files_containing("eval_scalar")
            if path.startswith("core/")
        } <= {"core/vectorize.py", "core/package.py"}
        assert self._files_containing("_value_cache") == set()

    def test_one_rid_digest(self):
        # Hashing raw array bytes happens in one module; the other
        # blake2b users digest key reprs, payloads and clause text.
        assert self._files_containing(".tobytes(") == {
            "relational/content_hash.py"
        }
        assert self._files_containing("blake2b(") == {
            "relational/content_hash.py",
            "core/artifact_store.py",
        }

    def test_no_model_cache(self):
        # The ILP model is rebuilt per question: its key was the result
        # key in all but name, so the layer could only hit after the
        # result layer had already answered.  Bounds, facts and zone
        # maps are not persisted either: the store keeps only what is
        # read back.
        assert RELATION_LAYERS == ("where", "results")
        assert SHARD_LAYERS == ("where_shard",)
        assert not hasattr(ArtifactCache(), "translations")
        assert not hasattr(ArtifactCache(), "zone")
        assert self._files_containing("translation_key") == set()
        assert self._files_containing("zone_source") == set()
        assert self._files_containing("derived_artifacts") == set()

    def test_one_constraint_analysis(self):
        # Cardinality pruning and reduction run as one pass over one
        # normalized formula: no per-round merge, no gate wrapper, and
        # no cache keyed by candidate set for bounds or facts.
        for needle in (
            "bounds_key",
            "facts_key",
            "ConjunctFacts",
            "merge_reductions",
            "apply_reduction",
        ):
            assert self._files_containing(needle) == set(), needle

    def test_one_backend_resolution(self):
        # "auto" -> scipy-if-installed and the builtin/scipy branch live
        # in strategies/base.py; explore and enumeration call it.
        for needle in ("solve_milp_scipy", "scipy_available"):
            assert {
                path
                for path in self._files_containing(needle)
                if path.startswith("core/")
            } == {"core/strategies/base.py"}, needle

    def test_one_where_judge(self):
        # WHERE is decided by the engine's kernels (or the pushdown
        # recheck, which runs them): sqlite stores NaN as NULL, so no
        # path may hand the rendered clause to the database and trust
        # its answer.
        for entry_point in (
            PackageQueryEvaluator.__init__,
            EvaluationSession.__init__,
            evaluate,
        ):
            assert "db" not in inspect.signature(entry_point).parameters
        assert "db" not in {
            field.name for field in dataclasses.fields(EvaluationContext)
        }
        assert self._files_containing("select_rids") == set()
        returns_sql_path = re.compile(r"""return\b[^\n]*,\s*["']sql["']\s*,""")
        assert not any(
            returns_sql_path.search(path.read_text(encoding="utf-8"))
            for path in self.SRC.rglob("*.py")
        )
        # The row interpreter's WHERE fallback lives in one function,
        # where_positions, which the candidate scan, the pushdown
        # recheck, the validator and explain() all call; pushdown
        # keeps only its column-free constant case.
        assert self._files_containing("eval_predicate(") == {
            "paql/eval.py",
            "core/vectorize.py",
            "core/pushdown.py",
        }
        for module in ("core/validator.py", "core/report.py"):
            text = (self.SRC / module).read_text(encoding="utf-8")
            assert "try_predicate_mask" not in text, module

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("backend", ["process", "shm-process"])
    def test_process_backend_is_gone_not_silently_serial(
        self, backend, shards
    ):
        # The one-call shortcut has no backend keyword either: naming
        # one fails at the call, so a single-shard query (which never
        # dispatches a parallel stage) cannot quietly run serially.
        # test_one_parallel_knob checks the same for EngineOptions.
        relation = clustered_relation(400, seed=2)
        query = (
            "SELECT PACKAGE(R) FROM Readings R WHERE R.cost <= 50 "
            "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.gain)"
        )
        with pytest.raises(TypeError, match="parallel_backend"):
            evaluate(query, relation, shards=shards, parallel_backend=backend)

    def test_no_process_backend(self):
        # Shard scans are numpy passes that release the GIL: threads
        # are the one parallel executor, with no shared-memory export
        # or worker-process pool beside them.
        for needle in (
            "shared_memory",
            "ProcessPoolExecutor",
            "shm_worker_state",
            "split_positions",
        ):
            assert self._files_containing(needle) == set(), needle

    def test_one_parallel_knob(self):
        # ``workers`` alone decides serial or threaded: no backend
        # option, executor class or refinement waves beside
        # parallel_map.
        assert self._files_containing("ThreadPoolExecutor") == {
            "core/parallel.py"
        }
        for needle in (
            "parallel_backend",
            "ParallelOptions",
            "ExecutorPool",
            "BACKENDS",
            "parallel_refine",
        ):
            assert self._files_containing(needle) == set(), needle
        with pytest.raises(TypeError):
            EngineOptions(parallel_backend="thread")
