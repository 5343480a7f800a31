"""The one bounded cache and the one tiered artifact layer.

Every in-memory cache in the engine — session artifact layers, the
out-of-core scan and resident memos — is a :class:`BoundedCache`: one
LRU, one lock, one stats shape.  :class:`ArtifactLayer` stacks one of
them over one layer of a durable
:class:`~repro.core.artifact_store.ArtifactStore`, which is the only
place the read-through / write-through rule is written down.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["ArtifactLayer", "BoundedCache"]


class BoundedCache:
    """A small LRU: recently used entries survive, the rest age out.

    Layers whose entries hold O(candidates)-sized payloads (WHERE rid
    arrays, reduction fact masks) pass a ``sizer`` and ``max_bytes``
    so memory — not just entry count — bounds the cache: a long-lived
    serving session over a large relation evicts by approximate bytes
    instead of retaining hundreds of megabytes of arrays.  The byte
    bound always keeps at least one entry.

    ``on_evict(key, value)`` runs once for every entry that leaves
    through a bound or through :meth:`clear` — entries that own a
    resource (an open file, a handle) release it there.  It runs under
    the cache's lock, so it must not call back into the cache.

    Thread-safe: the LRU bookkeeping (``move_to_end``, eviction, the
    byte totals) is a read-modify-write sequence over an
    ``OrderedDict``, which concurrent serving callers would corrupt —
    every public operation runs under one internal lock.  Values are
    never mutated after insertion, so handing the same value to two
    callers is safe.
    """

    def __init__(self, maxsize, max_bytes=None, sizer=None, on_evict=None):
        self._maxsize = maxsize
        self._max_bytes = max_bytes
        self._sizer = sizer
        self._on_evict = on_evict
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
                evicted, old = self._entries.popitem(last=False)
                self._total_bytes -= self._sizes.pop(evicted, 0)
                if self._on_evict is not None:
                    self._on_evict(evicted, old)

    def clear(self):
        with self._lock:
            if self._on_evict is not None:
                for key, value in self._entries.items():
                    self._on_evict(key, value)
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
