"""Durable on-disk artifact store: crash-safe, bounded, coordinated.

The in-memory :class:`~repro.core.cache.ArtifactCache` (PR 5) earns
its warm speedups only for the lifetime of one process: a restarted
server, or a second process over the same data, pays full cold cost.
:class:`ArtifactStore` persists the cache layers that are read back —
WHERE scans and validated results — on disk, keyed so that *only
identity, never freshness,* decides whether an entry may be served:

* **relation content hash** — what the data is
  (:func:`repro.relational.content_hash.relation_fingerprint`); a
  fresh process over bit-identical data computes the same hash and
  rediscovers every artifact, while any change to any value changes
  the hash and orphans the stale entries.
* **query / conjunct signature** — what was computed (canonical PaQL
  text, candidate fingerprints, option fields that affect the value).
* **engine + format version** — who computed it; entries written by a
  different engine version or store format are rejected on read, never
  deserialized into a live pipeline.

Two scopes, one store::

    <root>/
      relations/<relation-hash>/<layer>/<key-digest>.art
          where | results
      shards/<layer>/<key-digest>.art
          where_shard
      counters.json        (lifetime counters, merged on close)
      .lock                (cross-process advisory write lock)

Relation-scoped layers answer "this exact relation saw this exact
query".  The shard-scoped layer is **content-addressed by shard
fingerprint alone** — a shard's WHERE partial depends on nothing but
that shard's bytes — which is what makes invalidation
*mutation-aware*: after an append or delete, the untouched shards keep
their fingerprints, so their entries are found again, and only the
dirty shards miss and recompute.  Zone maps are not persisted, and
cardinality bounds and reduction facts are not cached at all: each is
cheaper to recompute than one fsynced write, and none is trusted from
disk.

Every entry is one file: a JSON header line (format, engine version,
layer, the full ``repr`` of the key, payload checksum and length)
followed by a pickled payload.  Reads verify all of it — format,
engine, key repr (guarding against digest collisions), checksum —
and a failed check counts as ``rejected``, deletes the entry, and
returns a miss; a corrupt or torn entry can cost a recompute, never
an answer.  Result replays additionally pass the engine's oracle
re-validation gate in the session layer, so even a *wrong but
well-formed* stored package raises rather than returning.

**Crash safety.**  Writes go to a temp file, are fsynced, and land via
atomic ``os.replace`` — a process killed mid-write leaves at worst an
orphaned ``*.tmp`` file, never a partial entry at a served path.
Orphans are swept by the next writer (which holds the exclusive write
lock, so any visible temp file is provably from a crashed writer).

**Cross-process coordination.**  Entry writes, eviction, and the
counter merge take an ``fcntl`` advisory lock on ``<root>/.lock``, so
two server processes sharing one store root serialize their writes
instead of racing eviction against replace.  ``flock`` locks die with
their holder — a SIGKILLed writer leaves nothing stale behind.  On
hosts without ``fcntl`` the store degrades to uncoordinated atomic
writes (the pre-lock behavior, still safe for readers).

**Bounded size.**  Pass ``max_bytes=`` and the store evicts
least-recently-*used* entries (access time, bumped on every hit) until
it fits, counting per-layer ``evicted``.  The store is a cache:
evicting an entry can cost a recompute, never an answer.  Sizing,
eviction, ``verify`` and ``clear`` walk the layer directories actually
on disk, so entries of a layer this version no longer reads (written
by an older one) still count against the bound until they age out.

**Degraded mode.**  Every I/O failure is caught at the site: per-entry
problems (corruption, a vanished file) count and recompute, while
*environmental* failures — ENOSPC, EACCES, EROFS — trip a sticky
**memory-only mode**: writes become no-ops, reads keep serving what
disk still yields, a ``degraded`` counter records the event, and the
query that hit the fault completes from compute.  A full disk slows
the system down; it never breaks a query.

Fault injection: :mod:`repro.core.faults` sites ``store.read``,
``store.write`` and ``store.fsync`` fire here; the chaos suite
(``tests/test_faults.py``) drives every failure path above and asserts
objectives bit-identical to fault-free runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import threading
from errno import EACCES, EDQUOT, ENOSPC, EROFS
from pathlib import Path

import repro
from repro.core import faults

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

__all__ = ["ArtifactStore", "RELATION_LAYERS", "SHARD_LAYERS", "STORE_FORMAT"]

#: On-disk entry format; bump on any layout/serialization change.
STORE_FORMAT = 2

#: Layers scoped under one relation's content hash.
RELATION_LAYERS = ("where", "results")

#: Content-addressed layers keyed by shard fingerprint alone.
SHARD_LAYERS = ("where_shard",)

_COUNTER_FIELDS = (
    "hits",
    "misses",
    "writes",
    "rejected",
    "errors",
    "evicted",
    "degraded",
)

#: Errnos that mean the *environment* failed (not one entry): these
#: trip sticky memory-only degradation instead of per-entry retries.
_DEGRADE_ERRNOS = frozenset({ENOSPC, EACCES, EROFS, EDQUOT})


def _key_digest(key):
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()


def _subdirectories(path):
    """``path``'s child directories, sorted; none if it is missing."""
    try:
        return sorted(child for child in path.iterdir() if child.is_dir())
    except OSError:
        return []


class ArtifactStore:
    """A durable, content-hash-keyed artifact store rooted at a directory.

    Args:
        root: directory for the store (created on first write).
        engine_version: version stamp entries are written and checked
            with; defaults to the package version, so artifacts never
            cross an engine upgrade.
        max_bytes: optional size bound; when the store grows past it,
            least-recently-used entries (by access time) are evicted
            until it fits.  ``None`` (the default) keeps the store
            unbounded, as before.

    Thread-of-control model: one store object per process/session;
    concurrent *processes* sharing a root coordinate entry writes and
    eviction through the advisory ``.lock`` file (readers verify
    checksums and need no lock), though their lifetime counters may
    interleave coarsely.
    """

    def __init__(self, root, engine_version=None, max_bytes=None):
        self.root = Path(root)
        self.engine_version = engine_version or repro.__version__
        if max_bytes is not None and int(max_bytes) <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self.counters = {
            layer: dict.fromkeys(_COUNTER_FIELDS, 0)
            for layer in RELATION_LAYERS + SHARD_LAYERS
        }
        # Counter increments are read-modify-writes; one store object
        # is shared by every thread of a serving session.  Entry I/O
        # itself needs no in-process lock (atomic replace + checksum-
        # verified reads), so the lock is held only around counter
        # arithmetic and the running byte estimate.
        self._counter_lock = threading.Lock()
        # Running estimate of on-disk bytes; None until the first
        # bound check walks the tree.  Only maintained when bounded.
        self._approx_bytes = None
        # Sticky memory-only mode: the reason string once an
        # environmental I/O failure (ENOSPC, EACCES, EROFS) trips it.
        self._degraded = None

    def _count(self, counters, *fields):
        with self._counter_lock:
            for field in fields:
                counters[field] += 1

    @property
    def degraded(self):
        """The degradation reason, or ``None`` while disk-backed."""
        return self._degraded

    def _degrade_on(self, exc, counters):
        """Trip memory-only mode for environmental I/O failures."""
        if (
            isinstance(exc, OSError)
            and exc.errno in _DEGRADE_ERRNOS
            and self._degraded is None
        ):
            self._degraded = (
                f"{type(exc).__name__} (errno {exc.errno}): writes disabled, "
                "serving memory-only"
            )
            self._count(counters, "degraded")

    # -- paths ---------------------------------------------------------------

    def _layer_dir(self, layer, relation_hash):
        if layer in SHARD_LAYERS:
            return self.root / "shards" / layer
        if layer not in RELATION_LAYERS:
            raise ValueError(f"unknown artifact layer {layer!r}")
        if relation_hash is None:
            raise ValueError(f"layer {layer!r} requires a relation hash")
        return self.root / "relations" / relation_hash / layer

    def _entry_path(self, layer, key, relation_hash):
        return self._layer_dir(layer, relation_hash) / f"{_key_digest(key)}.art"

    # -- cross-process coordination ------------------------------------------

    @contextlib.contextmanager
    def _write_lock(self):
        """Exclusive advisory lock on ``<root>/.lock``.

        Yields True when held.  Every failure mode — no ``fcntl`` on
        this platform, an unwritable root, a filesystem refusing locks
        — degrades to lock-free atomic writes rather than raising: the
        lock coordinates, it does not gate correctness (readers verify
        checksums either way).  ``flock`` locks are released by the
        kernel when their holder dies, so a SIGKILLed writer never
        leaves the store locked.
        """
        if fcntl is None:
            yield False
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            handle = open(self.root / ".lock", "a+b")
        except OSError:
            yield False
            return
        try:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                yield False
                return
            yield True
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            handle.close()

    def _sweep_directory(self, directory):
        """Remove orphaned temp files (caller holds the write lock, so
        any visible ``*.tmp`` is from a writer that died mid-write)."""
        removed = 0
        try:
            candidates = list(directory.glob("*.tmp"))
        except OSError:
            return 0
        for tmp in candidates:
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def sweep(self):
        """Remove every orphaned temp file under the root; the count.

        Crash recovery for restarted processes: a writer SIGKILLed
        between temp-file creation and the atomic replace leaves one
        ``*.tmp`` behind (never a partial served entry).  Writers
        sweep their target directory opportunistically; this sweeps
        the whole store.
        """
        removed = 0
        with self._write_lock():
            try:
                orphans = list(self.root.rglob("*.tmp"))
            except OSError:
                return 0
            for tmp in orphans:
                try:
                    tmp.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- read / write --------------------------------------------------------

    def get(self, layer, key, relation_hash=None):
        """Load one entry, or ``None`` on miss/rejection.

        Every gate failure — unreadable file, wrong store format,
        wrong engine version, key-repr mismatch (digest collision),
        checksum mismatch (torn write), undeserializable payload —
        rejects the entry: it is counted, best-effort deleted, and
        reported as a miss.  The caller recomputes; nothing stale is
        ever served.  Read-level I/O errors (beyond a plain missing
        file) additionally count as ``errors`` and, for environmental
        errnos, trip memory-only degradation.
        """
        if layer not in self.counters:
            raise ValueError(f"unknown artifact layer {layer!r}")
        counters = self.counters[layer]
        path = self._entry_path(layer, key, relation_hash)
        try:
            faults.fault_point("store.read")
            blob = path.read_bytes()
        except FileNotFoundError:
            self._count(counters, "misses")
            return None
        except OSError as exc:
            self._count(counters, "errors", "misses")
            self._degrade_on(exc, counters)
            return None
        try:
            newline = blob.index(b"\n")
            header = json.loads(blob[:newline].decode("utf-8"))
            payload = blob[newline + 1:]
            if header.get("format") != STORE_FORMAT:
                raise ValueError(f"store format {header.get('format')!r}")
            if header.get("engine") != self.engine_version:
                raise ValueError(f"engine version {header.get('engine')!r}")
            if header.get("key") != repr(key):
                raise ValueError("key mismatch (digest collision)")
            checksum = hashlib.blake2b(payload, digest_size=16).hexdigest()
            if header.get("payload_hash") != checksum:
                raise ValueError("payload checksum mismatch")
            value = pickle.loads(payload)
        except Exception:
            self._count(counters, "rejected", "misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count(counters, "hits")
        # Bump access time so bounded eviction is genuinely LRU even
        # on relatime/noatime mounts (best effort; a failed bump only
        # ages the entry faster).
        try:
            os.utime(path)
        except OSError:
            pass
        return value

    def put(self, layer, key, value, relation_hash=None):
        """Persist one entry atomically; failures degrade, never raise.

        The write path: serialize, take the cross-process write lock,
        sweep orphaned temp files, write + fsync a temp file, atomic
        ``os.replace``, then evict down to ``max_bytes`` if bounded.
        Returns ``True`` when the entry landed on disk.  In memory-only
        degraded mode this is an immediate no-op.
        """
        if layer not in self.counters:
            raise ValueError(f"unknown artifact layer {layer!r}")
        counters = self.counters[layer]
        if self._degraded is not None:
            return False
        try:
            torn = faults.fault_point("store.write")
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            header = json.dumps(
                {
                    "format": STORE_FORMAT,
                    "engine": self.engine_version,
                    "layer": layer,
                    "key": repr(key),
                    "payload_hash": hashlib.blake2b(
                        payload, digest_size=16
                    ).hexdigest(),
                    "bytes": len(payload),
                },
                sort_keys=True,
            ).encode("utf-8")
            directory = self._layer_dir(layer, relation_hash)
            directory.mkdir(parents=True, exist_ok=True)
            with self._write_lock():
                self._sweep_directory(directory)
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(header)
                        handle.write(b"\n")
                        # A "torn" injected fault writes a truncated
                        # payload under a full-payload checksum — the
                        # on-disk shape a crash mid-write could leave —
                        # which the read path must reject, never serve.
                        body = (
                            payload[: len(payload) // 2]
                            if torn == "torn"
                            else payload
                        )
                        handle.write(body)
                        handle.flush()
                        faults.fault_point("store.fsync")
                        os.fsync(handle.fileno())
                    os.replace(tmp, self._entry_path(layer, key, relation_hash))
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                self._note_write(len(header) + 1 + len(payload))
                self._evict_if_needed()
        except ValueError:
            raise  # programming errors (unknown layer / missing hash)
        except Exception as exc:
            self._count(counters, "errors")
            self._degrade_on(exc, counters)
            return False
        self._count(counters, "writes")
        return True

    # -- bounded size --------------------------------------------------------

    def _note_write(self, nbytes):
        with self._counter_lock:
            if self._approx_bytes is not None:
                self._approx_bytes += nbytes

    def _usage_walk(self):
        """``(total_bytes, [(atime, size, layer, path), ...])`` on disk."""
        entries = []
        total = 0
        for layer, path in self._entry_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_atime, st.st_size, layer, str(path)))
            total += st.st_size
        return total, entries

    def _evict_if_needed(self):
        """Evict LRU entries until the store fits ``max_bytes``; returns
        the number evicted.

        Caller holds the write lock (eviction must not race another
        process's replace).  Cheap on the common path: the running
        byte estimate skips the directory walk until it crosses the
        bound; the walk then refreshes the estimate exactly.  Entries
        of a retired layer are evicted like any other but have no
        counters to count them in.
        """
        if self.max_bytes is None:
            return 0
        with self._counter_lock:
            approx = self._approx_bytes
        if approx is not None and approx <= self.max_bytes:
            return 0
        total, entries = self._usage_walk()
        entries.sort()  # oldest access time first
        evicted = 0
        for _, size, layer, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
            if layer in self.counters:
                self._count(self.counters[layer], "evicted")
        with self._counter_lock:
            self._approx_bytes = total
        return evicted

    def enforce_limit(self):
        """One explicit eviction pass down to ``max_bytes``; returns the
        number of entries evicted (``repro cache stats --max-bytes``)."""
        if self.max_bytes is None:
            return 0
        with self._counter_lock:
            self._approx_bytes = None  # force the walk
        with self._write_lock():
            return self._evict_if_needed()

    # -- inspection ----------------------------------------------------------

    def _entry_paths(self, layer=None, relation_hash=None):
        """Yield ``(layer, path)`` for every entry file on disk.

        Walks the layer directories that exist rather than a list of
        known layer names, so a layer an older version wrote and this
        one retired is still sized, evicted and cleared.  A relation
        hash restricts the walk to that relation's layers.
        """
        if relation_hash is not None:
            scopes = [self.root / "relations" / relation_hash]
        else:
            scopes = [
                self.root / "shards",
                *_subdirectories(self.root / "relations"),
            ]
        for scope in scopes:
            for directory in _subdirectories(scope):
                if layer is None or directory.name == layer:
                    for path in sorted(directory.glob("*.art")):
                        yield directory.name, path

    def entries(self, layer=None, relation_hash=None):
        """Yield ``(layer, path, header)`` for stored entries.

        Headers that fail to parse yield ``header=None`` (so callers
        can report them); payloads are not loaded.
        """
        for name, path in self._entry_paths(layer, relation_hash):
            try:
                with open(path, "rb") as handle:
                    header = json.loads(handle.readline().decode("utf-8"))
            except Exception:
                header = None
            yield name, path, header

    def load_entry(self, path):
        """Deserialize one entry file with full verification.

        Returns ``(header, value)``; raises ``ValueError`` on any
        integrity failure (used by ``repro cache verify``, which wants
        the reason, not a silent miss).
        """
        faults.fault_point("store.read")
        blob = Path(path).read_bytes()
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline].decode("utf-8"))
        payload = blob[newline + 1:]
        if header.get("format") != STORE_FORMAT:
            raise ValueError(f"store format {header.get('format')!r}")
        if header.get("engine") != self.engine_version:
            raise ValueError(f"engine version {header.get('engine')!r}")
        checksum = hashlib.blake2b(payload, digest_size=16).hexdigest()
        if header.get("payload_hash") != checksum:
            raise ValueError("payload checksum mismatch")
        return header, pickle.loads(payload)

    def disk_stats(self):
        """Entries and bytes per layer (retired layers still on disk
        included), plus relation count and bound."""
        layers = {
            name: {"entries": 0, "bytes": 0}
            for name in RELATION_LAYERS + SHARD_LAYERS
        }
        for name, path in self._entry_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            usage = layers.setdefault(name, {"entries": 0, "bytes": 0})
            usage["entries"] += 1
            usage["bytes"] += size
        relations = [
            child.name for child in _subdirectories(self.root / "relations")
        ]
        return {
            "root": str(self.root),
            "relations": relations,
            "layers": layers,
            "entries": sum(item["entries"] for item in layers.values()),
            "bytes": sum(item["bytes"] for item in layers.values()),
            "max_bytes": self.max_bytes,
            "degraded": self._degraded,
        }

    def verify(self):
        """Integrity-check every entry (format, engine, checksum).

        Returns ``{"checked", "ok", "failed": [(path, reason), ...]}``.
        Deep semantic verification of stored *results* (the oracle
        gate) needs the relation and lives in ``repro cache verify``.
        """
        checked = ok = 0
        failed = []
        for _, path in self._entry_paths():
            checked += 1
            try:
                self.load_entry(path)
            except Exception as exc:
                failed.append((str(path), str(exc)))
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "failed": failed}

    def clear(self, relation_hash=None):
        """Delete entries; by relation (its scoped layers) or everything.

        Shard-scoped layers are content-addressed across relations, so
        they are only removed on a full clear.  Returns the number of
        entry files deleted.
        """
        removed = 0
        for _, path in list(self._entry_paths(relation_hash=relation_hash)):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if relation_hash is not None:
            base = self.root / "relations" / relation_hash
        else:
            base = self.root
        # Prune now-empty directories, ignoring races/failures.
        if base.is_dir():
            for directory in sorted(
                (d for d in base.rglob("*") if d.is_dir()), reverse=True
            ):
                try:
                    directory.rmdir()
                except OSError:
                    pass
        with self._counter_lock:
            self._approx_bytes = None
        return removed

    # -- counters ------------------------------------------------------------

    def stats(self):
        """This handle's counters plus aggregates (not disk contents)."""
        with self._counter_lock:
            layers = {
                layer: dict(fields) for layer, fields in self.counters.items()
            }
        out = {
            "root": str(self.root),
            "layers": layers,
            "max_bytes": self.max_bytes,
            "degraded": self._degraded,
        }
        for field in _COUNTER_FIELDS:
            out[field] = sum(layer[field] for layer in layers.values())
        return out

    def snapshot(self):
        """Aggregate counter totals, for cheap before/after deltas."""
        with self._counter_lock:
            return {
                field: sum(layer[field] for layer in self.counters.values())
                for field in _COUNTER_FIELDS
            }

    def close(self):
        """Merge this handle's counters into ``counters.json`` (best
        effort, under the cross-process write lock so two draining
        servers don't lose each other's increments).  Idempotent:
        counters merged once."""
        with self._counter_lock:
            if not any(
                value
                for layer in self.counters.values()
                for value in layer.values()
            ):
                return
            local = {
                layer: dict(fields) for layer, fields in self.counters.items()
            }
            for fields in self.counters.values():
                for field in fields:
                    fields[field] = 0
        path = self.root / "counters.json"
        with self._write_lock():
            try:
                merged = json.loads(path.read_text())
            except Exception:
                merged = {}
            for layer, fields in local.items():
                slot = merged.setdefault(
                    layer, dict.fromkeys(_COUNTER_FIELDS, 0)
                )
                for field, value in fields.items():
                    slot[field] = slot.get(field, 0) + value
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(merged, indent=2, sort_keys=True))
            except OSError:
                pass

    def lifetime_counters(self):
        """Counters from ``counters.json`` plus this handle's own."""
        path = self.root / "counters.json"
        try:
            merged = json.loads(path.read_text())
        except Exception:
            merged = {}
        with self._counter_lock:
            for layer, fields in self.counters.items():
                slot = merged.setdefault(
                    layer, dict.fromkeys(_COUNTER_FIELDS, 0)
                )
                for field, value in fields.items():
                    slot[field] = slot.get(field, 0) + value
        return merged

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
