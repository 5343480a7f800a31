"""Content hashing for relations: stable, composable column digests.

The durable artifact store (:mod:`repro.core.artifact_store`) keys
cached work by *what the data is*, not which process computed it: two
relations with bit-identical columns hash identically in any process,
on any run, so a restarted server rediscovers its own artifacts — and
a single changed value changes the hash, so stale artifacts can never
be served by accident.

Three levels of identity, built from one canonical serialization:

* :func:`column_digest` / :class:`ColumnHasher` — one column (or any
  contiguous slice of it).  The hasher is **streaming**: feeding a
  column's shards in order produces exactly the whole-column digest,
  which is the merge rule that makes shard digests composable::

      H(column) == H(shard_0 ++ shard_1 ++ ... ++ shard_k)

* :func:`range_fingerprint` — one row range across *all* columns (a
  shard's identity).  Artifacts that are pure functions of one shard's
  content (zone statistics, per-shard WHERE scans) key on this, which
  is what makes invalidation *shard-level*: an append that only grows
  the tail shard leaves every other shard's fingerprint — and
  therefore every other shard's cached artifacts — untouched.

* :func:`relation_fingerprint` — the whole relation (schema, row
  count, per-column digests).  Layout-independent: it never looks at
  shard boundaries, so the same data sharded 4 or 8 ways has the same
  relation hash.

Canonicalization rules (what "bit-identical" means here):

* NULL-ness is hashed as an explicit mask, separately from values —
  a NULL and a NaN *value* never collide.
* Values under NULL entries are zeroed before hashing (their stored
  payload is arbitrary and must not leak into the digest).
* NaN data values are byte-canonicalized: every NaN bit pattern
  (quiet/signaling, any payload, any sign) hashes as the single
  canonical quiet NaN, matching the engine's semantics, which never
  distinguish NaN payloads.
* TEXT values are serialized as length-prefixed UTF-8, so the digest
  is independent of numpy's fixed-width ``<U`` padding (a shard's
  local maximum string length must not change its hash).

This module depends only on numpy and the schema types; the store that
consumes it lives in :mod:`repro.core`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.relational.types import ColumnType

__all__ = [
    "ColumnHasher",
    "column_digest",
    "column_kind",
    "fingerprint_parts",
    "merge_digests",
    "range_fingerprint",
    "relation_fingerprint",
    "rids_fingerprint",
    "schema_signature",
]

#: Digest width (bytes) for every hash this module produces.
DIGEST_SIZE = 16

_NUMERIC = "numeric"
_TEXT = "text"
_KINDS = (_NUMERIC, _TEXT)


def column_kind(column_type):
    """The hashing kind for a schema column type.

    TEXT columns hash through the length-prefixed UTF-8 path; INT,
    FLOAT and BOOL all hash through the float64 path — exactly the
    representation :meth:`Relation.column_arrays` hands the engine, so
    hash equality means the *engine-visible* bytes are identical.
    """
    return _TEXT if column_type is ColumnType.TEXT else _NUMERIC


def _canonical_numeric_bytes(values, nulls):
    """float64 bytes with NULL slots zeroed and NaN byte-canonicalized."""
    canonical = np.array(values, dtype=np.float64, copy=True)
    if canonical.size:
        # Zero the payload under NULLs: it is arbitrary (NaN today,
        # anything tomorrow) and must not distinguish two columns whose
        # visible content is identical.
        canonical[nulls] = 0.0
        # Collapse every NaN bit pattern to the canonical quiet NaN
        # (assigning np.nan writes the default pattern), so two columns
        # the kernels cannot tell apart hash identically.
        nan_data = np.isnan(canonical)
        if nan_data.any():
            canonical[nan_data] = np.nan
    return np.ascontiguousarray(canonical).tobytes()


def _canonical_text_bytes(values, nulls):
    """Length-prefixed UTF-8, with NULL slots as empty strings.

    Length prefixes keep entry boundaries unambiguous (``["ab", "c"]``
    never collides with ``["a", "bc"]``) and make the serialization
    independent of numpy's fixed-width padding, so slices of one
    column concatenate to exactly the whole column's byte stream.
    """
    pieces = []
    for value, null in zip(np.asarray(values).tolist(), nulls.tolist()):
        encoded = b"" if null else str(value).encode("utf-8")
        pieces.append(len(encoded).to_bytes(4, "little"))
        pieces.append(encoded)
    return b"".join(pieces)


class ColumnHasher:
    """Streaming digest of one column's content.

    Feed contiguous chunks in row order with :meth:`update`; the final
    digest is identical whether the column arrives whole or shard by
    shard (the composability property the store's shard-level keying
    relies on, pinned by the property tests).
    """

    def __init__(self, kind=_NUMERIC):
        if kind not in _KINDS:
            raise ValueError(f"unknown column kind {kind!r} (choose from {_KINDS})")
        self._kind = kind
        self._values = hashlib.blake2b(digest_size=DIGEST_SIZE)
        self._nulls = hashlib.blake2b(digest_size=DIGEST_SIZE)
        self._count = 0

    def update(self, values, nulls):
        """Absorb one contiguous chunk of ``(values, nulls)``."""
        nulls = np.ascontiguousarray(np.asarray(nulls, dtype=bool))
        if self._kind == _NUMERIC:
            self._values.update(_canonical_numeric_bytes(values, nulls))
        else:
            self._values.update(_canonical_text_bytes(values, nulls))
        self._nulls.update(nulls.tobytes())
        self._count += int(nulls.size)
        return self

    def hexdigest(self):
        """The column digest over everything absorbed so far."""
        outer = hashlib.blake2b(digest_size=DIGEST_SIZE)
        outer.update(self._kind.encode("ascii"))
        outer.update(self._count.to_bytes(8, "little"))
        outer.update(self._values.digest())
        outer.update(self._nulls.digest())
        return outer.hexdigest()


def column_digest(values, nulls, kind=_NUMERIC):
    """Digest one column (or contiguous slice) in a single call."""
    return ColumnHasher(kind).update(values, nulls).hexdigest()


def merge_digests(digests):
    """Combine an ordered sequence of hex digests into one.

    Order-sensitive and length-framed: swapping two digests or moving
    a boundary changes the result.  Used to fold per-column digests
    into a shard or relation fingerprint.
    """
    outer = hashlib.blake2b(digest_size=DIGEST_SIZE)
    digests = list(digests)
    outer.update(len(digests).to_bytes(8, "little"))
    for digest in digests:
        outer.update(bytes.fromhex(digest))
    return outer.hexdigest()


def rids_fingerprint(rids):
    """``(size, hex digest)`` identifying a candidate rid sequence.

    Length plus a blake2b-128 over the raw int64 bytes: cheap even at
    hundreds of thousands of candidates, and collision-free for all
    practical purposes — a collision could at worst replay an artifact
    for a *different* candidate set, which the engine's oracle gate and
    the parity suites would surface, not silently accept.  The one rid
    digest in the tree: persisted ``bounds``/``facts``/``translations``
    keys and the derived pushdown scope embed this exact pair, so its
    dtype and byte order are part of the store format.
    """
    array = np.ascontiguousarray(np.asarray(rids, dtype=np.int64))
    digest = hashlib.blake2b(array.tobytes(), digest_size=DIGEST_SIZE)
    return (array.size, digest.hexdigest())


def schema_signature(schema):
    """A canonical string naming every column and type, in order."""
    return "|".join(
        f"{column.name}:{column.type.value}" for column in schema
    )


def _schema_digest(schema):
    return hashlib.blake2b(
        schema_signature(schema).encode("utf-8"), digest_size=DIGEST_SIZE
    ).hexdigest()


def fingerprint_parts(schema, row_count, column_digests):
    """Fold schema, cardinality and per-column digests into one hash.

    The single merge rule behind both :func:`range_fingerprint` and
    any *streaming* producer of the same identity: a backend that
    hashed its columns chunk by chunk (one :class:`ColumnHasher` per
    column, e.g. :class:`~repro.relational.sql_relation.SqlRelation`)
    folds the resulting digests here and lands on exactly the hash the
    in-memory path computes for bit-identical data.
    """
    parts = [_schema_digest(schema)]
    row_hash = hashlib.blake2b(digest_size=DIGEST_SIZE)
    row_hash.update(int(row_count).to_bytes(8, "little"))
    parts.append(row_hash.hexdigest())
    parts.extend(column_digests)
    return merge_digests(parts)


def range_fingerprint(relation, start, stop):
    """Content fingerprint of rows ``[start, stop)`` across all columns.

    The identity of one shard: schema, row count, and the per-column
    digests of exactly that row range.  Two shards with bit-identical
    content fingerprint identically regardless of where in the
    relation they sit — which is what lets a delete shift later shards
    without invalidating their cached artifacts.
    """
    digests = []
    for column in relation.schema:
        values, nulls = relation.column_arrays(column.name)
        digests.append(
            column_digest(
                values[start:stop],
                nulls[start:stop],
                kind=column_kind(column.type),
            )
        )
    return fingerprint_parts(relation.schema, stop - start, digests)


def relation_fingerprint(relation):
    """Content fingerprint of the whole relation (layout-independent).

    Cached on the relation (content never changes after construction;
    mutation APIs return new relations), so repeated store operations
    pay the hash once.

    Backends that cannot afford whole-column arrays expose their own
    ``relation_fingerprint()`` method (computed by streaming the same
    canonical bytes through :class:`ColumnHasher` and folding with
    :func:`fingerprint_parts`, so it equals the in-memory hash for
    bit-identical data); delegate to it when present.
    """
    method = getattr(relation, "relation_fingerprint", None)
    if callable(method):
        return method()
    cache = getattr(relation, "_column_cache", None)
    key = ("content-fingerprint",)
    if cache is not None and key in cache:
        return cache[key]
    fingerprint = range_fingerprint(relation, 0, len(relation))
    if cache is not None:
        cache[key] = fingerprint
    return fingerprint
