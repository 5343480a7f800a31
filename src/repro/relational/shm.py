"""Zero-copy shared-memory export of relations (and scratch arrays).

The process backend's historical cost is data movement: every task
pickles its slice of the relation across the pipe, so a worker spends
more time deserializing rows than scanning them.  This module inverts
that: the coordinator exports a :class:`~repro.relational.relation.Relation`'s
cached column arrays (values **and** NULL masks) into one
``multiprocessing.shared_memory`` segment *once*, and workers attach to
it by name — reconstructing the exact numpy arrays as zero-copy views
over the same physical pages.  What crosses the pipe per worker is a
:class:`SharedRelationHandle` of a few hundred bytes (segment name,
schema, dtypes, shapes, offsets); what crosses per *task* is a compiled
task spec, not data.

Three invariants the rest of the engine relies on:

* **Bit identity.**  ``attach_relation(export_relation(r).handle)``
  yields ``column_arrays`` results byte-identical to ``r``'s — same
  dtypes, same values, same NULL masks — so compiled kernels produce
  bit-identical answers in any process.
* **Airtight lifecycle.**  The creating process owns the segment:
  ``close()`` is idempotent, unlinks the segment, and is registered
  with ``atexit`` (plus a guarded SIGTERM hook) so no ``/dev/shm``
  entry survives the process even on an exception path.  Attachers
  never unlink and are explicitly unregistered from the resource
  tracker, so a worker exiting never destroys a segment the
  coordinator still uses (the bpo-38119 hazard).
* **Graceful degradation.**  Any OS-level failure (no shared-memory
  support, a full ``/dev/shm``) raises :class:`SharedMemoryUnavailable`,
  which callers translate into a recorded fallback to the thread
  backend — never a crashed query.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.relational.relation import Relation
from repro.relational.types import ColumnType

__all__ = [
    "ArraySpec",
    "AttachedRelation",
    "SharedArrayHandle",
    "SharedMemoryUnavailable",
    "SharedRelationHandle",
    "attach_array",
    "attach_relation",
    "export_array",
    "export_relation",
    "shm_available",
]


class SharedMemoryUnavailable(RuntimeError):
    """Shared-memory segments cannot be created/attached on this host."""


#: Segment offsets are rounded up to this many bytes so every exported
#: array starts cache-line aligned (numpy tolerates unaligned buffers,
#: but aligned loads keep the kernels at full speed).
_ALIGNMENT = 64


def _aligned(offset):
    return -(-offset // _ALIGNMENT) * _ALIGNMENT


@dataclass(frozen=True)
class ArraySpec:
    """Where one numpy array lives inside a segment."""

    offset: int
    dtype: str
    shape: tuple


@dataclass(frozen=True)
class SharedArrayHandle:
    """A picklable pointer to one array in a shared segment."""

    segment: str
    spec: ArraySpec


@dataclass(frozen=True)
class SharedRelationHandle:
    """A picklable pointer to a relation's columns in a shared segment.

    Carries everything :func:`attach_relation` needs to rebuild
    zero-copy column views: the segment name, the relation's name and
    :class:`~repro.relational.schema.Schema`, the row count, and per
    column a ``(name, values_spec, nulls_spec)`` triple.  A handful of
    hundred bytes pickled — the per-worker IPC cost of the whole
    relation (pinned under 4 KB by ``tests/test_shm.py``).
    """

    segment: str
    name: str
    schema: object
    rows: int
    columns: tuple
    nbytes: int

    def pickled_size(self):
        """Bytes this handle costs on the wire (the IPC payload)."""
        return len(pickle.dumps(self))


# -- cleanup registry ---------------------------------------------------------

#: Every live export, so interpreter exit (or SIGTERM) can unlink
#: whatever explicit close() calls missed.  Weak: a collected export
#: already ran its finalizer.
_LIVE_EXPORTS = weakref.WeakSet()
_CLEANUP_LOCK = threading.Lock()
_CLEANUP_INSTALLED = False


def _close_live_exports():
    for export in list(_LIVE_EXPORTS):
        try:
            export.close()
        except Exception:
            pass


def _install_cleanup():
    global _CLEANUP_INSTALLED
    with _CLEANUP_LOCK:
        if _CLEANUP_INSTALLED:
            return
        _CLEANUP_INSTALLED = True
    atexit.register(_close_live_exports)
    # Chain a SIGTERM hook only when nobody else installed one (the
    # default action would skip atexit, leaking segments); re-raise
    # with the default handler so the exit status stays truthful.
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:

            def _on_sigterm(signum, frame):
                _close_live_exports()
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        # Not the main thread, or the platform refuses: atexit alone
        # still covers normal interpreter exit.
        pass


def _create_segment(size):
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(create=True, size=max(1, size))
    except (OSError, ValueError) as exc:
        raise SharedMemoryUnavailable(
            f"cannot create a {size}-byte shared-memory segment: {exc}"
        ) from exc


def _attach_segment(name):
    from multiprocessing import shared_memory

    try:
        try:
            return shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track= parameter
            # Attaching would register the segment with the resource
            # tracker, which would *unlink* it when any attacher exits
            # (bpo-38119) — and spawn-pool workers share the parent's
            # tracker, so a later unregister would also erase the
            # creator's legitimate registration.  Only the creator may
            # own cleanup: suppress registration for the attach.
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
    except (OSError, ValueError) as exc:
        raise SharedMemoryUnavailable(
            f"cannot attach shared-memory segment {name!r}: {exc}"
        ) from exc


def _view(segment, spec, writeable=False):
    array = np.ndarray(
        spec.shape,
        dtype=np.dtype(spec.dtype),
        buffer=segment.buf,
        offset=spec.offset,
    )
    array.setflags(write=writeable)
    return array


class _Export:
    """Owner of one created segment: close() unlinks, exactly once."""

    def __init__(self, segment, handle):
        self._segment = segment
        self.handle = handle
        self._closed = False
        _LIVE_EXPORTS.add(self)
        _install_cleanup()

    @property
    def closed(self):
        return self._closed

    def close(self):
        """Release the mapping and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:
            # A live view still references the buffer; the mapping
            # stays until those views die, but the name must go now.
            pass
        except Exception:
            pass
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


class RelationExport(_Export):
    """Owns a relation's shared segment; ``.handle`` is the worker key."""


class ArrayExport(_Export):
    """Owns one scratch array's shared segment (e.g. candidate rids)."""


def export_relation(relation):
    """Copy a relation's column arrays into one shared segment.

    One copy total (coordinator memory → shared pages); every attach
    after that is zero-copy.  Returns a :class:`RelationExport` whose
    ``handle`` workers pass to :func:`attach_relation`.

    Raises:
        SharedMemoryUnavailable: when the segment cannot be created
            (callers degrade to the thread backend).
    """
    schema = relation.schema
    layout = []
    offset = 0
    for name in schema.names:
        values, nulls = relation.column_arrays(name)
        values_spec = ArraySpec(
            _aligned(offset), values.dtype.str, values.shape
        )
        offset = values_spec.offset + values.nbytes
        nulls_spec = ArraySpec(_aligned(offset), nulls.dtype.str, nulls.shape)
        offset = nulls_spec.offset + nulls.nbytes
        layout.append((name, values, values_spec, nulls, nulls_spec))

    segment = _create_segment(offset)
    try:
        for _, values, values_spec, nulls, nulls_spec in layout:
            np.copyto(_view(segment, values_spec, writeable=True), values)
            np.copyto(_view(segment, nulls_spec, writeable=True), nulls)
    except Exception:
        segment.close()
        segment.unlink()
        raise
    handle = SharedRelationHandle(
        segment=segment.name,
        name=relation.name,
        schema=schema,
        rows=len(relation),
        columns=tuple(
            (name, values_spec, nulls_spec)
            for name, _, values_spec, _, nulls_spec in layout
        ),
        nbytes=offset,
    )
    return RelationExport(segment, handle)


def export_array(array):
    """Share one numpy array (scratch data: candidate rids, masks)."""
    array = np.ascontiguousarray(array)
    spec = ArraySpec(0, array.dtype.str, array.shape)
    segment = _create_segment(array.nbytes)
    try:
        np.copyto(_view(segment, spec, writeable=True), array)
    except Exception:
        segment.close()
        segment.unlink()
        raise
    return ArrayExport(segment, SharedArrayHandle(segment.name, spec))


def attach_array(handle):
    """``(array, segment)`` zero-copy view of an exported array.

    The caller must keep ``segment`` alive as long as the array is in
    use and ``close()`` it afterwards (never ``unlink`` — the creator
    owns that).
    """
    segment = _attach_segment(handle.segment)
    return _view(segment, handle.spec), segment


class AttachedRelation(Relation):
    """A zero-copy :class:`Relation` view over a shared-memory export.

    Column arrays are numpy views straight into the shared segment —
    ``np.shares_memory`` with the mapping, no copies — pre-seeded into
    the standard ``_column_cache`` so every columnar consumer
    (vectorize kernels, :class:`~repro.relational.sharding.ShardedRelation`
    shard views, ``bulk_aggregate``) runs unchanged.  Row-shaped access
    (``__iter__``, ``row_tuple``, the interpreter fallback) lazily
    materializes tuples from the arrays; the shard-parallel hot paths
    never touch it.
    """

    def __init__(self, handle, segment):
        # Deliberately not Relation.__init__: rows come from the
        # mapped arrays, lazily, instead of an eager row-major copy.
        self._name = handle.name
        self._schema = handle.schema
        self._row_count = handle.rows
        self._segment = segment
        self._handle = handle
        self._packed = None
        self._column_cache = {}
        for name, values_spec, nulls_spec in handle.columns:
            self._column_cache[("arrays", name)] = (
                _view(segment, values_spec),
                _view(segment, nulls_spec),
            )

    def __len__(self):
        return self._row_count

    def column_arrays(self, name):
        column = self._schema[name]  # raises SchemaError on unknown names
        return self._column_cache[("arrays", column.name)]

    def column(self, name):
        values, nulls = self.column_arrays(name)
        cast = self._caster(self._schema[name].type)
        return [
            None if null else cast(value)
            for value, null in zip(values.tolist(), nulls.tolist())
        ]

    @staticmethod
    def _caster(column_type):
        if column_type is ColumnType.INT:
            return lambda value: int(value)
        if column_type is ColumnType.BOOL:
            return lambda value: bool(value)
        if column_type is ColumnType.TEXT:
            return str
        return float

    @property
    def _rows(self):
        # Row-major tuples, built on first row-shaped access only.
        if self._packed is None:
            columns = [self.column(name) for name in self._schema.names]
            self._packed = tuple(zip(*columns)) if columns else ()
        return self._packed

    def detach(self):
        """Release this process's mapping (views become invalid)."""
        self._column_cache = {}
        try:
            self._segment.close()
        except BufferError:
            pass


def attach_relation(handle):
    """Rebuild a zero-copy relation view from a pickled handle."""
    return AttachedRelation(handle, _attach_segment(handle.segment))


def shm_available():
    """Probe whether shared-memory segments work here (16-byte test)."""
    try:
        export = export_array(np.zeros(2, dtype=np.int64))
    except SharedMemoryUnavailable:
        return False
    export.close()
    return True
