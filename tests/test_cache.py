"""The one bounded cache, the one tiered layer, and the guard that
keeps them the only ones."""

from __future__ import annotations

import pathlib
import pickle

import pytest

import repro
from repro.core.artifact_store import ArtifactStore
from repro.core.cache import ArtifactLayer, BoundedCache
from repro.core.engine import EngineOptions, evaluate
from repro.core.parallel import ENGINE_BACKENDS
from repro.core.session import ArtifactCache
from repro.core.translate_ilp import translate
from repro.datasets import clustered_relation
from repro.paql.semantics import parse_and_analyze
from repro.relational.content_hash import relation_fingerprint, rids_fingerprint


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

    def test_on_evict_fires_once_per_entry_leaving(self):
        evicted = []
        cache = BoundedCache(2, on_evict=lambda k, v: evicted.append((k, v)))
        for index in range(4):
            cache.put(index, str(index))
        assert evicted == [(0, "0"), (1, "1")]
        cache.clear()
        assert sorted(evicted) == [(0, "0"), (1, "1"), (2, "2"), (3, "3")]
        assert len(cache) == 0
        cache.clear()
        assert len(evicted) == 4

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
        store.put("bounds", ("k",), "value", "scope")
        spy = _SpyStore(store)
        memory = BoundedCache(4)
        layer = ArtifactLayer(memory, spy, "bounds", "scope")
        assert layer.get(("k",)) == "value"
        assert layer.get(("k",)) == "value"
        assert spy.gets == 1  # the second lookup never left memory
        # The store-served lookup still counts as one memory miss.
        assert layer.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_put_writes_both_tiers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        memory = BoundedCache(4)
        layer = ArtifactLayer(memory, store, "bounds", "scope")
        layer.put(("k",), "value")
        assert memory.get(("k",)) == "value"
        assert store.get("bounds", ("k",), "scope") == "value"
        # Another scope over the same store does not see it.
        other = ArtifactLayer(BoundedCache(4), store, "bounds", "other")
        assert other.get(("k",)) is None

    def test_corrupted_store_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        layer = ArtifactLayer(BoundedCache(4), store, "bounds", "scope")
        layer.put(("k",), "value")
        ((_, path, _),) = store.entries("bounds", "scope")
        blob = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        fresh = ArtifactLayer(BoundedCache(4), store, "bounds", "scope")
        assert fresh.get(("k",)) is None
        assert store.stats()["layers"]["bounds"]["rejected"] == 1

    def test_memory_only_and_store_only(self, tmp_path):
        memory_only = ArtifactLayer(BoundedCache(4), None, "bounds", None)
        memory_only.put("k", "v")
        assert memory_only.get("k") == "v"
        memory_only.clear()
        assert memory_only.get("k") is None

        store = ArtifactStore(tmp_path / "store")
        store_only = ArtifactLayer(None, store, "zone", None)
        assert store_only.get(("fp", "col")) is None
        store_only.put(("fp", "col"), (1, 2))
        assert store_only.get(("fp", "col")) == (1, 2)
        assert store_only.stats() == {}
        store_only.clear()  # no memory tier: the durable entry stays
        assert store_only.get(("fp", "col")) == (1, 2)

    def test_translations_round_trip_without_pickling_the_relation(
        self, tmp_path
    ):
        relation = clustered_relation(300, seed=1)
        query = parse_and_analyze(
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT COUNT(*) <= 3 MAXIMIZE SUM(R.gain)",
            relation.schema,
        )
        rids = list(range(len(relation)))
        translation = translate(query, relation, rids)
        store = ArtifactStore(tmp_path / "store")
        scope = relation_fingerprint(relation)

        def cache():
            return ArtifactCache(
                store=store, relation_hash=scope, relation=relation
            )

        key = ArtifactCache.translation_key(query, rids_fingerprint(rids), ())
        cache().translations.put(key, translation)
        ((_, path, _),) = store.entries("translations", scope)
        assert pathlib.Path(path).stat().st_size < len(pickle.dumps(relation))
        loaded = cache().translations.get(key)
        assert loaded is not translation
        assert loaded.relation is relation
        assert loaded.candidate_rids.tolist() == rids
        assert loaded.x_vars.tolist() == translation.x_vars.tolist()
        assert loaded.model.num_variables == translation.model.num_variables


class TestOnlyOneOfEach:
    """The structural guard: what stops the sixth LRU, the fourth rid
    digest and the backend that cannot run."""

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

    def test_one_rid_digest(self):
        # Hashing raw array bytes happens in one module; the other
        # blake2b users digest key reprs, payloads and clause text.
        assert self._files_containing(".tobytes(") == {
            "relational/content_hash.py"
        }
        assert self._files_containing("blake2b(") == {
            "relational/content_hash.py",
            "core/artifact_store.py",
            "core/pushdown.py",
        }

    def test_process_backend_is_gone_not_silently_serial(self):
        assert "process" not in ENGINE_BACKENDS
        relation = clustered_relation(400, seed=2)
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            evaluate(
                "SELECT PACKAGE(R) FROM Readings R WHERE R.cost <= 50 "
                "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.gain)",
                relation,
                options=EngineOptions(shards=4, parallel_backend="process"),
            )
