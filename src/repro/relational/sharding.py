"""Sharded view over a :class:`~repro.relational.relation.Relation`.

A :class:`ShardedRelation` splits a relation into ``K`` contiguous
row-range shards.  Each shard's column data is a zero-copy numpy view
into the parent's cached column arrays (contiguous slices share
storage), and each shard carries **zone statistics** — per-column
``count / null_count / min / max / sum`` — computed once and cached.

Two things fall out of that structure:

* **Data-parallel scans.**  The compiled predicate/scalar kernels
  (:mod:`repro.core.vectorize`) are elementwise, so evaluating a
  kernel shard by shard and concatenating in shard order is
  *bit-identical* to evaluating it over the whole relation — which is
  what lets the engine fan shards out to a worker pool
  (:mod:`repro.core.parallel`) without changing any answer.

* **Zone-map pruning.**  A conservative interval analysis over the
  WHERE AST (:func:`ShardedRelation.skippable_shards`) proves, from
  min/max statistics alone, that some shards cannot contain a single
  satisfying row; those shards are skipped entirely.  The analysis
  only ever *over*-approximates satisfiability ("may be true"), so a
  skipped shard is a proof, never a guess.

This module depends only on the relation layer and the PaQL AST; the
kernel dispatch that consumes shards lives in the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.paql import ast
from repro.relational.types import ColumnType

__all__ = [
    "MutationReport",
    "ShardedRelation",
    "ZoneStats",
    "merge_zone_stats",
    "zone_stats_of",
]


@dataclass(frozen=True)
class ZoneStats:
    """Summary statistics of one column over one shard.

    Attributes:
        count: rows in the shard (including NULLs).
        null_count: NULL entries among them.
        minimum / maximum / total: min / max / sum over the non-NULL
            values; ``None`` when the shard has no non-NULL value or
            the column is not numeric.
    """

    count: int
    null_count: int
    minimum: float | None = None
    maximum: float | None = None
    total: float | None = None

    @property
    def non_null(self):
        return self.count - self.null_count

    @property
    def may_null(self):
        return self.null_count > 0


def zone_stats_of(values, nulls, numeric):
    """:class:`ZoneStats` of one zone's ``(values, nulls)`` arrays.

    The one reduction behind every zone map: in-memory shards pass
    slices of :meth:`Relation.column_arrays`, the sql backend passes
    the same arrays rebuilt while its rows stream in, so both report
    bit-identical min/max/sum.  Non-``numeric`` (TEXT) zones carry only
    the counts and ``values`` is not read.
    """
    count = len(nulls)
    null_count = int(np.count_nonzero(nulls))
    if not numeric or count == null_count:
        return ZoneStats(count, null_count)
    kept = values[~nulls]
    # NaN/±inf are valid FLOAT data and huge finite values may sum past
    # the float64 range; the statistics are then non-finite (consumers
    # handle that), so these warnings are expected noise here.
    with np.errstate(invalid="ignore", over="ignore"):
        return ZoneStats(
            count=count,
            null_count=null_count,
            minimum=float(kept.min()),
            maximum=float(kept.max()),
            total=float(kept.sum()),
        )


def merge_zone_stats(parts):
    """Reduce per-shard :class:`ZoneStats` into one relation-level stat.

    ``min``/``max`` combine exactly; ``total`` is the shard-order sum
    of shard totals (floating-point association differs from a single
    whole-column sum, which is why aggregate *results* on the query
    path are always computed from whole-column reductions — this merge
    serves zone-level reasoning and reporting).
    """
    count = sum(part.count for part in parts)
    null_count = sum(part.null_count for part in parts)
    minimums = [part.minimum for part in parts if part.minimum is not None]
    maximums = [part.maximum for part in parts if part.maximum is not None]
    totals = [part.total for part in parts if part.total is not None]
    # Python's min/max are order-dependent under NaN; numpy's whole-column
    # reductions propagate it unconditionally, and the merged result must
    # match them regardless of which shard the NaN landed in.
    if any(math.isnan(value) for value in minimums + maximums):
        minimums = maximums = [math.nan]
    return ZoneStats(
        count=count,
        null_count=null_count,
        minimum=min(minimums) if minimums else None,
        maximum=max(maximums) if maximums else None,
        total=float(sum(totals)) if totals else None,
    )


@dataclass(frozen=True)
class MutationReport:
    """Which shards a mutation touched.

    Attributes:
        kind: ``"append"`` or ``"delete"``.
        touched: shard indices whose *content* changed (per-shard
            artifacts for these must be recomputed).
        untouched: the complementary shard indices, whose content — and
            therefore content fingerprint — is bit-identical to before,
            so their cached per-shard artifacts remain valid.
        rows_before / rows_after: relation cardinality around the
            mutation.
    """

    kind: str
    touched: tuple
    untouched: tuple
    rows_before: int
    rows_after: int


class ShardedRelation:
    """``K`` contiguous shards of one relation, with zone statistics.

    Args:
        relation: the base relation (held strongly; shard views alias
            its cached column arrays).
        shards: requested shard count; clamped to at least 1.  Shard
            sizes differ by at most one row; with ``shards > len``,
            trailing shards are empty (and always skippable).
        slices: optional explicit shard layout (contiguous ``slice``
            objects covering ``[0, len)`` in order).  The mutation
            APIs use this to keep shard boundaries *aligned* across a
            mutation — rebalancing via ``chunk_slices`` would move
            every boundary and destroy the content-hash stability of
            untouched shards.  When given, ``shards`` is ignored.
    """

    def __init__(self, relation, shards, slices=None):
        from repro.core.parallel import chunk_slices

        self._relation = relation
        if slices is None:
            self._slices = chunk_slices(len(relation), max(1, int(shards)))
        else:
            self._slices = list(slices)
            expected = 0
            for part in self._slices:
                if part.start != expected or part.stop < part.start:
                    raise ValueError(
                        f"shard slices must be contiguous from 0: {slices!r}"
                    )
                expected = part.stop
            if expected != len(relation):
                raise ValueError(
                    f"shard slices cover {expected} rows, relation has "
                    f"{len(relation)}"
                )
        self._zone_cache = {}

    # -- structure -----------------------------------------------------------

    @property
    def relation(self):
        return self._relation

    @property
    def schema(self):
        return self._relation.schema

    @property
    def num_shards(self):
        return len(self._slices)

    def __len__(self):
        return len(self._relation)

    def __repr__(self):
        return (
            f"ShardedRelation({self._relation.name!r}, "
            f"{len(self._relation)} rows, {self.num_shards} shards)"
        )

    def shard_slice(self, index):
        """The contiguous row ``slice`` shard ``index`` covers."""
        return self._slices[index]

    def shard_fingerprint(self, index):
        """Content fingerprint of shard ``index`` (cached).

        Position-independent: a shard with bit-identical rows
        fingerprints the same wherever its slice starts, so artifacts
        keyed on it stay valid when a delete in an earlier shard
        shifts this shard's absolute offsets — and a mutated view
        inherits the untouched shards' fingerprints instead of
        hashing them again.
        """
        key = ("fingerprint", index)
        if key not in self._zone_cache:
            from repro.relational.content_hash import range_fingerprint

            part = self._slices[index]
            self._zone_cache[key] = range_fingerprint(
                self._relation, part.start, part.stop
            )
        return self._zone_cache[key]

    def shard_sizes(self):
        """Row count per shard."""
        return [part.stop - part.start for part in self._slices]

    def split_rids(self, rids):
        """Partition ascending ``rids`` into per-shard sub-arrays.

        Args:
            rids: ascending row indices (any sequence).

        Returns:
            A list of ``num_shards`` intp arrays whose shard-order
            concatenation equals ``rids`` exactly.
        """
        rids = np.asarray(rids, dtype=np.intp)
        edges = [part.stop for part in self._slices]
        cuts = np.searchsorted(rids, edges, side="left")
        out = []
        start = 0
        for cut in cuts:
            out.append(rids[start:cut])
            start = cut
        return out

    def shard_column_arrays(self, index, name):
        """``(values, nulls)`` views of column ``name`` in shard ``index``.

        Zero-copy: slices of the parent relation's cached arrays.
        """
        values, nulls = self._relation.column_arrays(name)
        part = self._slices[index]
        return values[part], nulls[part]

    # -- zone statistics -----------------------------------------------------

    def zone_stats(self, name):
        """Per-shard :class:`ZoneStats` for column ``name`` (cached).

        Numeric and BOOL columns get min/max/sum; TEXT columns carry
        only the counts (enough for IS NULL reasoning).
        """
        if name in self._zone_cache:
            return self._zone_cache[name]
        numeric = self._relation.schema[name].type is not ColumnType.TEXT
        stats = tuple(
            zone_stats_of(*self.shard_column_arrays(index, name), numeric)
            for index in range(self.num_shards)
        )
        self._zone_cache[name] = stats
        return stats

    def column_zone(self, name):
        """Relation-level :class:`ZoneStats` (merged over all shards)."""
        return merge_zone_stats(self.zone_stats(name))

    # -- mutation (persistent: returns new sharded relations) ----------------

    def append(self, rows):
        """Append ``rows``, extending the **last** shard only.

        Returns:
            ``(sharded, report)`` — a new :class:`ShardedRelation`
            over the appended relation, plus the
            :class:`MutationReport` naming the touched shards.

        The shard count and every earlier shard boundary are
        preserved (rebalancing would shift rows across boundaries and
        invalidate every shard's content fingerprint); only the last
        shard's content changes, so per-shard artifacts for shards
        ``0..K-2`` remain valid by content hash.
        """
        rows = list(rows)
        relation = self._relation.append_rows(rows)
        last = self.num_shards - 1
        slices = list(self._slices)
        slices[last] = slice(slices[last].start, len(relation))
        touched = (last,) if rows else ()
        return self._mutated("append", relation, slices, touched)

    def delete(self, rids):
        """Delete the rows at indices ``rids``, shrinking touched shards.

        Returns:
            ``(sharded, report)`` — a new :class:`ShardedRelation`
            plus the :class:`MutationReport`.

        Each shard containing a deleted rid shrinks by its deletion
        count; every other shard keeps its exact row content (its
        absolute offsets shift, but shard fingerprints are
        position-independent, so per-shard artifacts keyed by content
        hash remain valid for the untouched shards).
        """
        rids = sorted({int(rid) for rid in rids})
        relation = self._relation.delete_rows(rids)
        drops = np.zeros(self.num_shards, dtype=np.intp)
        for group_index, group in enumerate(self.split_rids(rids)):
            drops[group_index] = len(group)
        slices = []
        start = 0
        for index, part in enumerate(self._slices):
            size = (part.stop - part.start) - int(drops[index])
            slices.append(slice(start, start + size))
            start += size
        touched = tuple(int(i) for i in np.flatnonzero(drops))
        return self._mutated("delete", relation, slices, touched)

    def _mutated(self, kind, relation, slices, touched):
        """The mutated view and its report.  Untouched shards keep
        their rows, so the new view starts with their fingerprints."""
        sharded = ShardedRelation(relation, self.num_shards, slices=slices)
        untouched = tuple(i for i in range(self.num_shards) if i not in touched)
        for index in untouched:
            key = ("fingerprint", index)
            if key in self._zone_cache:
                sharded._zone_cache[key] = self._zone_cache[key]
        return sharded, MutationReport(
            kind=kind,
            touched=touched,
            untouched=untouched,
            rows_before=len(self._relation),
            rows_after=len(relation),
        )

    # -- zone-map pruning ----------------------------------------------------

    def skippable_shards(self, where):
        """Which shards provably contain no row satisfying ``where``.

        Returns a list of ``num_shards`` booleans; ``True`` means the
        interval analysis proved the predicate cannot evaluate to TRUE
        for any row of the shard (NULL-produced *unknown* folds to
        false at the top level, exactly like the evaluators), so the
        shard may be skipped without changing the candidate set.

        Empty shards are always skippable.  A ``None`` predicate, any
        division (whose by-zero errors must keep firing exactly as the
        unsharded kernels would), shapes outside the analysis, and
        columns whose zone statistics are not finite (NaN or ±inf data
        gives min/max no bounding power) all conservatively keep every
        non-empty shard.

        Memoized per predicate node: zone statistics are immutable for
        the relation's lifetime, so repeated scans of one query pay
        the analysis once.
        """
        key = ("skip", where)
        if key in self._zone_cache:
            return list(self._zone_cache[key])
        sizes = self.shard_sizes()
        skippable = [size == 0 for size in sizes]
        if where is not None and not _contains_division(where):
            for index in range(self.num_shards):
                if skippable[index]:
                    continue
                verdicts = _verdicts(where, self, index)
                if not verdicts & _MAY_TRUE:
                    skippable[index] = True
        self._zone_cache[key] = tuple(skippable)
        return skippable

    # -- shard-parallel aggregation ------------------------------------------

    def bulk_aggregate(self, func, name, rids=None, workers=0):
        """Aggregate column ``name`` by reducing per-shard partials.

        Semantics (and results, bit for bit) match
        :meth:`Relation.bulk_aggregate`: NULLs excluded, ``sum`` of
        nothing is 0, ``avg``/``min``/``max`` of nothing is ``None``,
        non-aggregatable columns raise :class:`SchemaError`.

        ``count``/``min``/``max`` merge per-shard partials exactly —
        full-column straight from the cached zone statistics
        (O(shards), no scan), row subsets via shard-parallel scans
        through the worker pool.  ``sum``/``avg`` delegate to the
        single whole-subset numpy reduction: per-shard float totals
        associate differently (the result would depend on the shard
        count), and a shard-count-dependent ULP is exactly the kind of
        divergence this subsystem promises not to introduce.
        """
        from repro.core.parallel import parallel_map
        from repro.relational.relation import AGGREGATE_FUNCS
        from repro.relational.schema import SchemaError

        if func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate function {func!r}")
        column = self._relation.schema[name]
        if not column.type.is_numeric and column.type is not ColumnType.BOOL:
            raise SchemaError(
                f"column {name!r} is {column.type.value}, not aggregatable"
            )
        if func in ("sum", "avg"):
            return self._relation.bulk_aggregate(func, name, rids=rids)
        if rids is None:
            zone = self.column_zone(name)
            if func == "count":
                return zone.non_null
            if func == "min":
                return zone.minimum
            return zone.maximum

        groups = self.split_rids(rids)
        live = [index for index, group in enumerate(groups) if len(group)]

        def partial(index):
            values, nulls = self._relation.column_arrays(name)
            group = groups[index]
            return zone_stats_of(values[group], nulls[group], numeric=True)

        parts = parallel_map(partial, live, workers=workers)
        zone = merge_zone_stats(parts) if parts else ZoneStats(0, 0)
        if func == "count":
            return zone.non_null
        if func == "min":
            return zone.minimum
        return zone.maximum


# -- the zone-map interval analysis ------------------------------------------
#
# Each Boolean node maps to the *set of verdicts it may produce* over
# the rows of one shard, encoded as a bitmask of {TRUE, FALSE,
# UNKNOWN}.  The set is an over-approximation: a verdict a row could
# actually produce is always in the set (extra members only cost skip
# opportunities, never correctness).  A shard is skippable when TRUE
# is not in the WHERE clause's set.

_MAY_TRUE = 1
_MAY_FALSE = 2
_MAY_UNKNOWN = 4
_ALL = _MAY_TRUE | _MAY_FALSE | _MAY_UNKNOWN


class _Unsupported(Exception):
    """The node has no interval form; assume every verdict."""


@dataclass(frozen=True)
class _Interval:
    """Conservative value range of a scalar expression over one shard.

    Attributes:
        low / high: bounds on the non-NULL values the expression can
            take (any row); meaningless when ``has_values`` is false.
        may_null: some row may evaluate to NULL.
        has_values: some row may evaluate to a non-NULL value.
    """

    low: float
    high: float
    may_null: bool
    has_values: bool


def _contains_division(node):
    for child in ast.walk(node):
        if isinstance(child, ast.BinaryOp) and child.op is ast.BinOp.DIV:
            return True
    return False


def _bounded(low, high, may_null, has_values):
    """Interval constructor that never carries a NaN bound.

    Interval arithmetic over infinite endpoints can produce NaN
    (``inf + -inf``, ``inf - inf``); a NaN bound would silently fail
    every comparison in :func:`_comparison_verdicts`, turning the
    over-approximation into an unsound skip.  Widen each NaN bound to
    unbounded on that side instead.
    """
    if math.isnan(low):
        low = -math.inf
    if math.isnan(high):
        high = math.inf
    return _Interval(low, high, may_null, has_values)


def _interval(node, sharded, index):
    if isinstance(node, ast.Literal):
        value = node.value
        if value is None:
            return _Interval(0.0, 0.0, True, False)
        if isinstance(value, bool):
            value = float(value)
        if isinstance(value, (int, float)):
            if math.isnan(value):
                raise _Unsupported  # NaN compares false to everything
            return _Interval(float(value), float(value), False, True)
        raise _Unsupported  # text literals have no numeric interval
    if isinstance(node, ast.ColumnRef):
        schema = sharded.schema
        if node.name not in schema or schema.type_of(node.name) is ColumnType.TEXT:
            raise _Unsupported
        zone = sharded.zone_stats(node.name)[index]
        if zone.non_null == 0:
            return _Interval(0.0, 0.0, zone.may_null, False)
        if not (math.isfinite(zone.minimum) and math.isfinite(zone.maximum)):
            # NaN data poisons min/max (every NaN comparison is false,
            # so [NaN, NaN] would "prove" any shard empty), and ±inf
            # endpoints feed NaN into downstream interval arithmetic.
            # Non-finite zone statistics carry no usable bound: treat
            # the column as unanalyzable so the shard is always kept.
            raise _Unsupported
        return _Interval(zone.minimum, zone.maximum, zone.may_null, True)
    if isinstance(node, ast.UnaryMinus):
        operand = _interval(node.operand, sharded, index)
        return _bounded(
            -operand.high, -operand.low, operand.may_null, operand.has_values
        )
    if isinstance(node, ast.BinaryOp):
        left = _interval(node.left, sharded, index)
        right = _interval(node.right, sharded, index)
        may_null = left.may_null or right.may_null
        has_values = left.has_values and right.has_values
        if not has_values:
            return _Interval(0.0, 0.0, may_null or not has_values, False)
        if node.op is ast.BinOp.ADD:
            low, high = left.low + right.low, left.high + right.high
        elif node.op is ast.BinOp.SUB:
            low, high = left.low - right.high, left.high - right.low
        elif node.op is ast.BinOp.MUL:
            corners = [
                left.low * right.low,
                left.low * right.high,
                left.high * right.low,
                left.high * right.high,
            ]
            if any(math.isnan(corner) for corner in corners):
                low, high = -math.inf, math.inf
            else:
                low, high = min(corners), max(corners)
        else:
            # Division ranges are unbounded near zero divisors; the
            # skip decision is already vetoed by _contains_division,
            # so this path only feeds enclosing intervals.
            low, high = -math.inf, math.inf
        return _bounded(low, high, may_null, True)
    raise _Unsupported


def _comparison_verdicts(op, left, right):
    """Possible verdicts of ``left <op> right`` from two intervals."""
    flags = 0
    if left.may_null or right.may_null:
        flags |= _MAY_UNKNOWN
    if not (left.has_values and right.has_values):
        return flags or _MAY_UNKNOWN
    if op is ast.CmpOp.EQ:
        if left.low <= right.high and right.low <= left.high:
            flags |= _MAY_TRUE
        if not (left.low == left.high == right.low == right.high):
            flags |= _MAY_FALSE
    elif op is ast.CmpOp.NE:
        if not (left.low == left.high == right.low == right.high):
            flags |= _MAY_TRUE
        if left.low <= right.high and right.low <= left.high:
            flags |= _MAY_FALSE
    elif op is ast.CmpOp.LT:
        if left.low < right.high:
            flags |= _MAY_TRUE
        if left.high >= right.low:
            flags |= _MAY_FALSE
    elif op is ast.CmpOp.LE:
        if left.low <= right.high:
            flags |= _MAY_TRUE
        if left.high > right.low:
            flags |= _MAY_FALSE
    elif op is ast.CmpOp.GT:
        if left.high > right.low:
            flags |= _MAY_TRUE
        if left.low <= right.high:
            flags |= _MAY_FALSE
    elif op is ast.CmpOp.GE:
        if left.high >= right.low:
            flags |= _MAY_TRUE
        if left.low < right.high:
            flags |= _MAY_FALSE
    else:  # pragma: no cover - CmpOp is closed
        return _ALL
    return flags


def _verdicts(node, sharded, index):
    """Over-approximate the verdict set of Boolean ``node`` on one shard."""
    if isinstance(node, ast.Literal):
        if node.value is None:
            return _MAY_UNKNOWN
        if isinstance(node.value, bool):
            return _MAY_TRUE if node.value else _MAY_FALSE
        return _ALL
    if isinstance(node, ast.And):
        parts = [_verdicts(arg, sharded, index) for arg in node.args]
        flags = 0
        if all(part & _MAY_TRUE for part in parts):
            flags |= _MAY_TRUE
        if any(part & _MAY_FALSE for part in parts):
            flags |= _MAY_FALSE
        if any(part & _MAY_UNKNOWN for part in parts):
            flags |= _MAY_UNKNOWN
        return flags
    if isinstance(node, ast.Or):
        parts = [_verdicts(arg, sharded, index) for arg in node.args]
        flags = 0
        if any(part & _MAY_TRUE for part in parts):
            flags |= _MAY_TRUE
        if all(part & _MAY_FALSE for part in parts):
            flags |= _MAY_FALSE
        if any(part & _MAY_UNKNOWN for part in parts):
            flags |= _MAY_UNKNOWN
        return flags
    if isinstance(node, ast.Not):
        inner = _verdicts(node.arg, sharded, index)
        flags = 0
        if inner & _MAY_FALSE:
            flags |= _MAY_TRUE
        if inner & _MAY_TRUE:
            flags |= _MAY_FALSE
        if inner & _MAY_UNKNOWN:
            flags |= _MAY_UNKNOWN
        return flags
    if isinstance(node, ast.Comparison):
        try:
            left = _interval(node.left, sharded, index)
            right = _interval(node.right, sharded, index)
        except _Unsupported:
            return _ALL
        return _comparison_verdicts(node.op, left, right)
    if isinstance(node, ast.Between):
        try:
            value = _interval(node.expr, sharded, index)
            low = _interval(node.low, sharded, index)
            high = _interval(node.high, sharded, index)
        except _Unsupported:
            return _ALL
        lower = _comparison_verdicts(ast.CmpOp.GE, value, low)
        upper = _comparison_verdicts(ast.CmpOp.LE, value, high)
        flags = 0
        if lower & _MAY_TRUE and upper & _MAY_TRUE:
            flags |= _MAY_TRUE
        if lower & _MAY_FALSE or upper & _MAY_FALSE:
            flags |= _MAY_FALSE
        if lower & _MAY_UNKNOWN or upper & _MAY_UNKNOWN:
            flags |= _MAY_UNKNOWN
        if node.negated:
            swapped = 0
            if flags & _MAY_FALSE:
                swapped |= _MAY_TRUE
            if flags & _MAY_TRUE:
                swapped |= _MAY_FALSE
            if flags & _MAY_UNKNOWN:
                swapped |= _MAY_UNKNOWN
            return swapped
        return flags
    if isinstance(node, ast.InList):
        try:
            value = _interval(node.expr, sharded, index)
            members = [_interval(item, sharded, index) for item in node.items]
        except _Unsupported:
            return _ALL
        flags = 0
        if any(
            _comparison_verdicts(ast.CmpOp.EQ, value, member) & _MAY_TRUE
            for member in members
        ):
            flags |= _MAY_TRUE
        if all(
            _comparison_verdicts(ast.CmpOp.EQ, value, member) & _MAY_FALSE
            for member in members
        ):
            flags |= _MAY_FALSE
        if any(
            _comparison_verdicts(ast.CmpOp.EQ, value, member) & _MAY_UNKNOWN
            for member in members
        ):
            flags |= _MAY_UNKNOWN
        if node.negated:
            swapped = flags & _MAY_UNKNOWN
            if flags & _MAY_FALSE:
                swapped |= _MAY_TRUE
            if flags & _MAY_TRUE:
                swapped |= _MAY_FALSE
            return swapped
        return flags
    if isinstance(node, ast.IsNull):
        flags = _null_verdicts(node.expr, sharded, index)
        if node.negated:
            swapped = 0
            if flags & _MAY_FALSE:
                swapped |= _MAY_TRUE
            if flags & _MAY_TRUE:
                swapped |= _MAY_FALSE
            return swapped
        return flags
    return _ALL


def _null_verdicts(expr, sharded, index):
    """Verdict set of ``expr IS NULL`` (always TRUE or FALSE, never unknown)."""
    if isinstance(expr, ast.ColumnRef):
        schema = sharded.schema
        if expr.name not in schema:
            return _ALL
        zone = sharded.zone_stats(expr.name)[index]
        flags = 0
        if zone.may_null:
            flags |= _MAY_TRUE
        if zone.non_null > 0:
            flags |= _MAY_FALSE
        return flags or _MAY_FALSE
    try:
        interval = _interval(expr, sharded, index)
    except _Unsupported:
        return _ALL
    flags = 0
    if interval.may_null or not interval.has_values:
        flags |= _MAY_TRUE
    if interval.has_values:
        flags |= _MAY_FALSE
    return flags
