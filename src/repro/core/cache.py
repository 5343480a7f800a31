"""The one bounded cache, the one tiered artifact layer, and the
per-relation unit of session caches built from them.

Every in-memory cache in the engine — session artifact layers, the
out-of-core scan and resident memos, the evaluator's prepared queries
— is a :class:`BoundedCache`: one LRU, one lock, one stats shape.
:class:`ArtifactLayer` stacks one of them over one layer of a durable
:class:`~repro.core.artifact_store.ArtifactStore`, which is the only
place the read-through / write-through rule is written down.
:class:`ArtifactCache` holds one relation's layers and the keying
scheme for them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.paql.printer import print_expr, print_query

__all__ = ["ArtifactCache", "ArtifactLayer", "BoundedCache"]


class BoundedCache:
    """A small LRU: recently used entries survive, the rest age out.

    Layers whose entries hold O(candidates)-sized payloads (WHERE rid
    arrays, reduction fact masks) pass a ``sizer`` and ``max_bytes``
    so memory — not just entry count — bounds the cache: a long-lived
    serving session over a large relation evicts by approximate bytes
    instead of retaining hundreds of megabytes of arrays.  The byte
    bound always keeps at least one entry.

    Thread-safe: the LRU bookkeeping (``move_to_end``, eviction, the
    byte totals) is a read-modify-write sequence over an
    ``OrderedDict``, which concurrent serving callers would corrupt —
    every public operation runs under one internal lock.  Values are
    never mutated after insertion, so handing the same value to two
    callers is safe.
    """

    def __init__(self, maxsize, max_bytes=None, sizer=None):
        self._maxsize = maxsize
        self._max_bytes = max_bytes
        self._sizer = sizer
        self._entries = OrderedDict()
        self._sizes = {}
        self._total_bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key, value):
        with self._lock:
            if key in self._entries:
                self._total_bytes -= self._sizes.pop(key, 0)
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self._sizer is not None:
                size = self._sizer(value)
                self._sizes[key] = size
                self._total_bytes += size
            while len(self._entries) > self._maxsize or (
                self._max_bytes is not None
                and self._total_bytes > self._max_bytes
                and len(self._entries) > 1
            ):
                evicted, _ = self._entries.popitem(last=False)
                self._total_bytes -= self._sizes.pop(evicted, 0)

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._total_bytes = 0

    def stats(self):
        with self._lock:
            out = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
            if self._sizer is not None:
                out["approx_bytes"] = self._total_bytes
            return out


class ArtifactLayer:
    """One artifact layer: a memory tier over a durable store tier.

    ``get`` looks in memory, then in the store (filling memory on a
    store hit); ``put`` writes both.  Either tier may be absent:
    ``memory=None`` is a store-only layer (the shard-scoped
    ``where_shard``, whose values live in the structures that asked
    for them),
    ``store=None`` is a plain in-memory cache.

    Args:
        memory: a :class:`BoundedCache`, or ``None``.
        store: an :class:`~repro.core.artifact_store.ArtifactStore`,
            or ``None``.
        layer_name: the store layer the entries live under.
        scope: the relation hash scoping a relation-level store layer;
            ``None`` for the content-addressed shard layer.
    """

    def __init__(self, memory, store, layer_name, scope):
        self._memory = memory
        self._store = store
        self._layer_name = layer_name
        self._scope = scope

    def get(self, key):
        if self._memory is not None:
            hit = self._memory.get(key)
            if hit is not None:
                return hit
        if self._store is None:
            return None
        loaded = self._store.get(self._layer_name, key, self._scope)
        if loaded is not None and self._memory is not None:
            self._memory.put(key, loaded)
        return loaded

    def put(self, key, value):
        if self._memory is not None:
            self._memory.put(key, value)
        if self._store is not None:
            self._store.put(self._layer_name, key, value, self._scope)

    def stats(self):
        """The memory tier's counters (a store-served lookup is still
        one memory miss; the store keeps its own per-layer counters)."""
        return {} if self._memory is None else self._memory.stats()

    def clear(self):
        """Drop the memory tier; the durable tier is untouched."""
        if self._memory is not None:
            self._memory.clear()


@dataclass
class _CachedResult:
    """The replayable skeleton of one evaluation outcome."""

    counts: object  # tuple of (rid, multiplicity), or None
    status: object
    strategy: str
    query: object
    objective: float | None
    candidate_count: int
    bounds: object
    #: The stats tree as one pickle blob (a dict in entries stored
    #: before the blob).
    stats: object = field(default_factory=dict)


class ArtifactCache:
    """Every cached artifact of one relation: the per-relation unit.

    One instance per relation content — the session builds a new one
    whenever a mutation replaces the relation, and a query reads and
    writes only the instance it started with — so keys never include
    the relation.  Each attribute has ``get(key)`` / ``put(key,
    value)``; the ``*_key`` builders are the one keying scheme, and
    every key covers all inputs its value depends on (see
    ``docs/caching.md`` for the layer table).

    ``where`` and ``results`` are each an
    :class:`~repro.core.cache.ArtifactLayer`, a bounded memory tier
    over the store's relation-scoped layer; ``where_shard`` is
    store-only and content-addressed by shard fingerprint (no relation
    hash, so an entry survives mutations that leave its shard's bytes
    unchanged).

    Args:
        store: optional durable
            :class:`~repro.core.artifact_store.ArtifactStore`; the
            durable layers then read through to disk on a memory miss
            and write fresh values back, scoped under
            ``relation_hash``.
        relation_hash: the relation's content fingerprint
            (:func:`repro.relational.content_hash.relation_fingerprint`);
            required when ``store`` is given.
    """

    def __init__(self, store=None, relation_hash=None):
        if store is not None and relation_hash is None:
            raise ValueError("a durable store requires relation_hash")
        self.store = store
        self.relation_hash = relation_hash

        def layer(name, memory):
            return ArtifactLayer(memory, store, name, relation_hash)

        # WHERE entries hold one compact rid array per clause, so the
        # layer is bounded by approximate bytes as well as entry count.
        self.where = layer(
            "where",
            BoundedCache(
                64,
                max_bytes=64 * 1024 * 1024,
                sizer=lambda entry: entry[0].nbytes,
            ),
        )
        self.results = layer("results", BoundedCache(256))
        self.where_shard = ArtifactLayer(None, store, "where_shard", None)

    # -- the keying scheme --------------------------------------------------

    @staticmethod
    def where_key(query, options):
        # Workers never change the rids, but they appear in the
        # sharded-path stats payload — keying on them keeps a replayed
        # shard_info honest about the parallel width in force.
        clause = "" if query.where is None else print_expr(query.where)
        return (
            clause,
            getattr(options, "shards", 1),
            getattr(options, "workers", 0),
        )

    @staticmethod
    def result_key(query, options):
        # Canonical query text (the printer round-trips ASTs) plus the
        # full options repr: any field that could change the outcome —
        # strategy, backend, limits, reduce mode — is part of the
        # dataclass repr, so differing options never share an entry.
        return (print_query(query), repr(options))

    # -- bookkeeping --------------------------------------------------------

    def stats(self):
        out = {"where": self.where.stats()}
        if self.store is not None:
            out["store"] = self.store.stats()
        out["results"] = self.results.stats()
        return out

    def clear(self):
        for layer in (self.where, self.results):
            layer.clear()
