"""Out-of-core pushdown planning: WHERE, zone maps and fixing in SQL.

This is the execution half of the
:class:`~repro.relational.sql_relation.SqlRelation` backend — given a
query over a sql-backed relation it decides *what runs inside the
database* so only surviving candidate rows ever become numpy arrays:

1. **Prefilter** (:func:`build_prefilter`): each WHERE conjunct that
   renders to SQL faithfully is pushed down, *weakened* just enough to
   stay an over-approximation of the engine's semantics (see below).
2. **Zone skipping** (:func:`zone_keep_ranges`): the same interval
   analysis the sharded in-memory scan uses
   (:mod:`repro.relational.sharding`) runs against the zone statistics
   the file persisted at build time and excludes whole rid ranges the
   predicate provably cannot match.
3. **Exact recheck** (:func:`run_where`): prefilter survivors stream
   out in batches of only the WHERE-referenced columns; each batch is
   rechecked by the *same* compiled kernel (or row interpreter) the
   in-memory path would run.  Kernels are elementwise, so the
   batch-wise masks concatenate to exactly the whole-relation mask —
   the candidate rid set is **bit-identical** to the in-memory path's.
4. **Reduction fixing** (:func:`build_fixing_predicates` +
   :func:`stream_residents`): safe-mode MIN/MAX variable-fixing
   thresholds render to SQL
   (:func:`~repro.core.reduction.minmax_fixing_sql`) and provably
   absent tuples are dropped *during* resident streaming — they never
   reach memory at all.  Soundness is the reducer's own invariant
   (fixed tuples appear in no acceptable package), so feasibility and
   optimal objective are untouched.

Why the prefilter must be weakened, not trusted:

* Python's sqlite3 binds NaN as NULL, so the backend stores FLOAT NaN
  as NULL (with a flag column).  To SQL predicates a NaN therefore
  *looks* NULL, and under ``NOT`` that turns the engine's
  ``NOT (false) = true`` into SQL's ``NOT (unknown) = unknown`` — an
  under-approximation that would drop real candidates.  Every pushed
  conjunct referencing FLOAT columns gets ``OR <col> IS NULL`` per
  such column: rows with NaN (or NULL) there always survive to the
  exact recheck, which restores the true NaN and decides correctly.
* A NaN *literal* renders as SQL NULL, with the same hazard —
  conjuncts containing one are not pushed at all.
* INT values (or literals) at magnitudes past 2**53 compare exactly
  in sqlite but round through float64 in the engine; conjuncts
  touching them are not pushed (the recheck, which rounds identically
  to the in-memory path, decides).
* Division anywhere in the WHERE suppresses the prefilter *and* zone
  skipping entirely: the engine raises on division by zero, SQL
  yields NULL, and a prefilter that hides a poisoned row would hide
  the error — the recheck must see every row, exactly like the
  unsharded in-memory kernels.

True NULLs in non-FLOAT columns need no weakening: the engine's
three-valued logic agrees with sqlite's on them (pinned by the
``to_sql`` parity property test).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.paql import ast
from repro.paql.errors import PaQLSemanticError
from repro.paql.eval import eval_predicate
from repro.paql.to_sql import to_sql
from repro.core.cost import choose_scan_path
from repro.core.formula import conjunctive_leaves, normalize_formula
from repro.core.pruning import match_aggregate_comparison
from repro.core.reduction import minmax_fixing_sql, zones_block_minmax_fixing
from repro.core.translate_ilp import ILPTranslationError, minmax_plan
from repro.core.vectorize import where_positions
from repro.paql.errors import PaQLUnsupportedError
from repro.relational.schema import Schema, quote_ident
# One analysis, two consumers: the zone-interval verdict machinery is
# sharding's, and a SqlRelation is a zone source for it as it stands.
from repro.relational.sharding import _MAY_TRUE, _contains_division, _verdicts
from repro.relational.sql_relation import ColumnBatch
from repro.relational.types import ColumnType

__all__ = [
    "PushdownPlan",
    "StreamOutcome",
    "WhereOutcome",
    "build_fixing_predicates",
    "build_prefilter",
    "run_where",
    "stream_residents",
    "zone_keep_ranges",
]

#: How many times narrower than the kept zones the prefilter's
#: ``COUNT(*)`` must be before the recheck lets sqlite reach rows
#: through the prefilter's index instead of scanning the kept rid
#: ranges.  The count can undercount what the index visits: sqlite
#: drives the scan from one conjunct's index, and the other conjuncts
#: only filter the rows it fetches.  Measured with sqlite 3.40 on the
#: 220k-row ``outofcore_bands`` table (65 536-row zones, indexes on
#: ``ts`` and ``cost``): a 1.5-wide ``ts`` band with ``cost <= 20``
#: (prefilter 647 rows, 101x narrower) took 1.9 ms through the index
#: and 11.5 ms by rowid; the same band without the cost conjunct
#: (3 300 rows, 20x) 6.9 ms against 15.4 ms; a 28-wide band with
#: ``cost <= 20`` (12 258 rows, 5.3x, but 61 600 rows in the band the
#: ``ts`` index walks) 39 ms against 22 ms.
INDEX_ACCESS_FACTOR = 16

#: Largest magnitude at which every integer is exactly a float64; INT
#: data or literals at or past it are compared exactly by sqlite but
#: rounded by the engine's kernels, so such conjuncts never push down.
FLOAT64_EXACT_INT = 2.0**53


@dataclass
class PushdownPlan:
    """What of one WHERE clause runs inside the database.

    Attributes:
        prefilter_sql: the AND of all pushed (weakened) conjuncts, or
            ``None`` when nothing pushed.
        prefilter_params: the values of its ``?`` placeholders.
        pushed: how many conjuncts pushed down.
        total: how many conjuncts the WHERE has.
        skipped: per-conjunct reasons for the ones that stayed home.
        where_columns: columns the WHERE references, in schema order —
            the only columns the recheck stream fetches.
    """

    prefilter_sql: str | None
    pushed: int
    total: int
    skipped: list = field(default_factory=list)
    where_columns: tuple = ()
    prefilter_params: tuple = ()


@dataclass
class WhereOutcome:
    """The WHERE stage's result over a sql-backed relation."""

    candidate_rids: list
    path: str  # "sql-pushdown" | "materialized" | "none"
    decision: str
    estimated_rows: int
    plan: PushdownPlan | None = None
    zones_total: int = 0
    zones_kept: int = 0
    batches: int = 0
    recheck: str | None = None  # "vectorized" | "interpreted" | "constant"
    materialized: object = None  # in-memory Relation on the materialize path
    #: How the recheck SELECT reaches the kept zones' rows: "index"
    #: (the ranges are a residual filter, so sqlite may drive the scan
    #: from the prefilter's index) or "rowid-range" (sqlite walks the
    #: ranges by rowid).  ``None`` when no recheck SELECT ran.
    access: str | None = None
    #: The two row counts the access choice weighed: the prefilter's
    #: ``COUNT(*)`` and the rows in the kept zones.
    prefilter_rows: int = 0
    kept_rows: int = 0

    def access_info(self):
        """The access choice as a stats payload, or ``None``."""
        if self.access is None:
            return None
        return {
            "access": self.access,
            "prefilter_rows": self.prefilter_rows,
            "kept_rows": self.kept_rows,
        }


@dataclass
class StreamOutcome:
    """The resident-streaming stage's result."""

    resident: object  # in-memory Relation of surviving candidate rows
    rid_map: object  # int64 array: resident position -> absolute rid
    sql_fixed: int
    fixing: list  # labels of the fixing predicates applied in SQL
    batches: int


def conjuncts_of(where):
    """Flatten nested ANDs into the top-level conjunct list."""
    if where is None:
        return []
    out = []
    stack = [where]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.And):
            stack.extend(reversed(node.args))
        else:
            out.append(node)
    return out


def referenced_columns(node, schema):
    """Schema columns ``node`` references, in schema order."""
    names = {
        child.name
        for child in ast.walk(node)
        if isinstance(child, ast.ColumnRef)
    }
    return tuple(name for name in schema.names if name in names)


def _unpushable_literal(node):
    """Why a literal in ``node`` forbids pushing it, or ``None``."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Literal):
            continue
        value = child.value
        if isinstance(value, float) and value != value:
            return "NaN literal renders as SQL NULL"
        if (
            isinstance(value, int)
            and not isinstance(value, bool)
            and abs(value) >= FLOAT64_EXACT_INT
        ):
            return "INT literal beyond float64 exactness"
    return None


def _column_bounds_exceed_float64(relation, columns):
    """True when any INT column's values reach the float64 round-off."""
    for name in columns:
        if relation.schema.type_of(name) is not ColumnType.INT:
            continue
        for zone in relation.zone_stats(name):
            if zone.minimum is not None and (
                abs(zone.minimum) >= FLOAT64_EXACT_INT
                or abs(zone.maximum) >= FLOAT64_EXACT_INT
            ):
                return True
    return False


def build_prefilter(where, relation):
    """Render the pushable part of ``where`` as a weakened SQL prefilter.

    Every pushed conjunct is an *over-approximation* of the engine's
    semantics (see module docstring), so the AND of them admits a
    superset of the true candidates; the exact recheck trims it.
    """
    conjuncts = conjuncts_of(where)
    plan = PushdownPlan(
        prefilter_sql=None,
        pushed=0,
        total=len(conjuncts),
        where_columns=referenced_columns(where, relation.schema)
        if where is not None
        else (),
    )
    if where is None:
        return plan
    if _contains_division(where):
        plan.skipped.append(
            "division must evaluate in-engine (by-zero raises there, "
            "yields NULL in SQL)"
        )
        return plan
    pieces = []
    params = []
    for conjunct in conjuncts:
        reason = _unpushable_literal(conjunct)
        if reason is not None:
            plan.skipped.append(reason)
            continue
        refs = referenced_columns(conjunct, relation.schema)
        if _column_bounds_exceed_float64(relation, refs):
            plan.skipped.append("INT column data beyond float64 exactness")
            continue
        try:
            sql, conjunct_params = to_sql(conjunct, quote_idents=True)
        except PaQLSemanticError as exc:
            plan.skipped.append(f"not renderable: {exc}")
            continue
        float_refs = [
            name
            for name in refs
            if relation.schema.type_of(name) is ColumnType.FLOAT
        ]
        if float_refs:
            weaken = " OR ".join(
                f"{quote_ident(name)} IS NULL" for name in float_refs
            )
            sql = f"({sql} OR {weaken})"
        pieces.append(sql)
        params.extend(conjunct_params)
        plan.pushed += 1
    if pieces:
        plan.prefilter_sql = " AND ".join(pieces)
        plan.prefilter_params = tuple(params)
    return plan


def zone_keep_ranges(relation, where):
    """Zone rid ranges that may contain a WHERE match.

    Returns ``(ranges, total_zones)``: contiguous ``(start, stop)``
    rid ranges covering every zone the interval analysis could not
    rule out, merged.  ``ranges is None`` means "keep everything" (no
    analysis possible); an empty list is a proof of zero candidates.
    """
    total = relation.num_zones()
    if where is None or _contains_division(where) or total == 0:
        return None, total
    kept = [
        index
        for index in range(total)
        if _verdicts(where, relation, index) & _MAY_TRUE
    ]
    if len(kept) == total:
        return None, total
    ranges = []
    for index in kept:
        start, stop = relation.zone_slice(index)
        if ranges and ranges[-1][1] == start:
            ranges[-1] = (ranges[-1][0], stop)
        else:
            ranges.append((start, stop))
    return ranges, total


def _ranges_sql(ranges, residual=False):
    """The kept rid ranges as SQL.  ``residual`` writes them as ``+rid``,
    which sqlite cannot search the table's rowid with, so it filters
    the rows an index on the prefilter fetches instead."""
    rid = "+rid" if residual else "rid"
    return " OR ".join(
        f"({rid} >= {start} AND {rid} < {stop})" for start, stop in ranges
    )


def _index_drives(plan_lines):
    """True when a stream's query plan reaches the table only through
    index searches (a ``SCAN`` would read every row)."""
    searches = [line for line in plan_lines if line.startswith(("SEARCH", "SCAN"))]
    return bool(searches) and all(
        line.startswith("SEARCH") and " INDEX " in line for line in searches
    )


def _choose_access(relation, plan, estimated, kept, kept_rows):
    """``"index"`` or ``"rowid-range"``: how the recheck reaches rows.

    The index form only when the prefilter is clearly narrower than the
    kept zones ``kept`` (:data:`INDEX_ACCESS_FACTOR`) and sqlite really
    plans it through an index; otherwise the kept ranges are walked by
    rowid.
    """
    if plan.prefilter_sql is None or estimated * INDEX_ACCESS_FACTOR > kept_rows:
        return "rowid-range"
    where_sql = f"{plan.prefilter_sql} AND ({_ranges_sql(kept, residual=True)})"
    lines = relation.stream_plan(plan.where_columns, where_sql, plan.prefilter_params)
    return "index" if _index_drives(lines) else "rowid-range"


def _recheck_batches(relation, where, plan, where_sql, params,
                     batch_rows=None):
    """Stream prefilter survivors and recheck each batch exactly.

    Yields ``(surviving_rids, label)`` per batch.  The recheck builds a
    throwaway in-memory mini-relation of only the WHERE-referenced
    columns and runs the in-memory path's own WHERE over it
    (:func:`~repro.core.vectorize.where_positions`: the compiled kernel,
    else the row interpreter), so concatenated survivors equal the
    in-memory candidate set bit for bit (kernels are elementwise;
    batching cannot change the mask).
    """
    columns = plan.where_columns
    sub_schema = (
        Schema([relation.schema[name] for name in columns]) if columns else None
    )
    kwargs = {} if batch_rows is None else {"batch_rows": batch_rows}
    for rids, batch in relation.iter_batches(
        columns=columns or None, where_sql=where_sql, params=params, **kwargs
    ):
        if sub_schema is None:
            # WHERE references no columns: the predicate is
            # row-independent, one evaluation decides the whole batch.
            verdict = bool(eval_predicate(where, {}))
            yield (rids if verdict else rids[:0]), "constant"
            continue
        mini = batch.to_relation(relation.name, sub_schema)
        positions, label = where_positions(where, mini)
        yield rids[positions], label


def run_where(relation, query, options, batch_rows=None):
    """Execute the WHERE stage over a sql-backed relation.

    Chooses the scan path from the prefilter's estimated selectivity
    (:func:`~repro.core.cost.choose_scan_path`); on the pushdown path
    the result's ``candidate_rids`` are bit-identical to what the
    in-memory vectorized/interpreted WHERE would produce.
    """
    where = query.where
    rows = len(relation)
    if where is None:
        path, decision = choose_scan_path(rows, rows, options)
        outcome = WhereOutcome(
            candidate_rids=list(range(rows)),
            path="none",
            decision=decision,
            estimated_rows=rows,
        )
        if path == "materialize":
            outcome.materialized = relation.materialize()
        return outcome

    plan = build_prefilter(where, relation)
    estimated = (
        relation.count_where(plan.prefilter_sql, plan.prefilter_params)
        if plan.prefilter_sql is not None
        else rows
    )
    path, decision = choose_scan_path(rows, estimated, options)

    if path == "materialize":
        materialized = relation.materialize()
        rids, recheck = where_positions(where, materialized)
        return WhereOutcome(
            candidate_rids=rids.tolist(),
            path="materialized",
            decision=decision,
            estimated_rows=estimated,
            plan=plan,
            recheck=recheck,
            materialized=materialized,
        )

    if plan.prefilter_sql is not None and plan.where_columns:
        relation.ensure_indexes(plan.where_columns)
    ranges, zones_total = zone_keep_ranges(relation, where)
    if ranges == []:
        return WhereOutcome(
            candidate_rids=[],
            path="sql-pushdown",
            decision=decision,
            estimated_rows=estimated,
            plan=plan,
            zones_total=zones_total,
            zones_kept=0,
        )
    # With no zone skipped the whole table is the kept range: written
    # as rowid bounds it stops sqlite from taking an index for an
    # unselective prefilter, which on an unclustered column sorts and
    # fetches rows at random.
    kept = [(0, rows)] if ranges is None else ranges
    kept_rows = sum(stop - start for start, stop in kept)
    access = _choose_access(relation, plan, estimated, kept, kept_rows)
    clauses = []
    if plan.prefilter_sql is not None:
        clauses.append(plan.prefilter_sql)
    if plan.prefilter_sql is not None or ranges is not None:
        clauses.append(f"({_ranges_sql(kept, residual=access == 'index')})")
    where_sql = " AND ".join(clauses) if clauses else None

    candidates = []
    batches = 0
    recheck = None
    # The zone ranges render as integer text; only the prefilter binds.
    for survivors, label in _recheck_batches(
        relation, where, plan, where_sql, plan.prefilter_params,
        batch_rows=batch_rows,
    ):
        batches += 1
        recheck = label
        candidates.append(survivors)
    rids = (
        np.concatenate(candidates) if candidates else np.empty(0, dtype=np.int64)
    )
    return WhereOutcome(
        candidate_rids=[int(rid) for rid in rids],
        path="sql-pushdown",
        decision=decision,
        estimated_rows=estimated,
        plan=plan,
        zones_total=zones_total,
        zones_kept=zones_total
        if ranges is None
        else sum(
            (stop - start + relation.zone_rows - 1) // relation.zone_rows
            for start, stop in ranges
        ),
        batches=batches,
        recheck=recheck,
        access=access,
        prefilter_rows=estimated,
        kept_rows=kept_rows,
    )


# -- reduction fixing --------------------------------------------------------


def build_fixing_predicates(query, relation, options):
    """SQL fixing predicates for the query's MIN/MAX conjuncts.

    Mirrors the reducer's per-tuple MIN/MAX fixing
    (:meth:`~repro.core.reduction._Reducer._consume_minmax`) exactly:
    same conjunct extraction (normalize, split on AND), same shape
    gate (a bad-set-only plan over a bare column), and the same
    whole-column guards the vector path applies — NaN anywhere, or a
    mirrored ``-inf`` under a tolerance-narrowed threshold, derive
    nothing — answered here from zone statistics instead of a scan.
    FLOAT columns only: INT values compare exactly in sqlite but round
    through float64 in the reducer, and the two must agree bit for bit.

    Returns ``(labels, predicates)``, each predicate an ``(sql,
    params)`` pair; streaming applies ``NOT (predicate)`` so fixed
    tuples never leave the database.
    """
    if getattr(options, "reduce", "safe") == "off" or query.such_that is None:
        return [], []
    try:
        normalized = normalize_formula(query.such_that)
    except PaQLUnsupportedError:
        return [], []
    labels = []
    predicates = []
    for leaf in conjunctive_leaves(normalized):
        if not isinstance(leaf, ast.Comparison):
            continue
        aggregate, op, constant = match_aggregate_comparison(leaf)
        if aggregate is None:
            continue
        if aggregate.func not in (ast.AggFunc.MIN, ast.AggFunc.MAX):
            continue
        argument = aggregate.argument
        if (
            not isinstance(argument, ast.ColumnRef)
            or argument.name not in relation.schema
            or relation.schema.type_of(argument.name) is not ColumnType.FLOAT
        ):
            continue
        try:
            plan = minmax_plan(aggregate.func, op)
        except ILPTranslationError:
            continue
        if plan.witness is not None or plan.bad is None:
            continue
        if zones_block_minmax_fixing(relation.zone_stats(argument.name), plan):
            continue
        predicate = minmax_fixing_sql(
            aggregate.func, op, constant, argument.name
        )
        if predicate is None:
            continue
        labels.append(
            f"{aggregate.func.value}({argument.name}) {op.value} {constant:g}"
        )
        predicates.append(predicate)
    return labels, predicates


def stream_residents(relation, candidate_rids, fixing_labels, fixing,
                     batch_rows=None):
    """Materialize candidate rows as an in-memory resident relation.

    Joins the candidate rid set against the table inside sqlite and
    streams full rows out in batches; rows matching any SQL fixing
    predicate are dropped by the database and never reach memory.  The
    resident relation's positions map back to absolute rids through
    ``rid_map``.  ``fixing`` holds ``(sql, params)`` predicates.
    """
    not_bad = (
        " AND ".join(f"NOT {sql}" for sql, _ in fixing) if fixing else None
    )
    params = tuple(value for _, values in fixing for value in values)
    rid_table = relation.create_temp_rid_table(candidate_rids)
    rid_chunks = []
    kwargs = {} if batch_rows is None else {"batch_rows": batch_rows}

    def batches():
        for rids, batch in relation.iter_batches(
            rid_table=rid_table, where_sql=not_bad, params=params, **kwargs
        ):
            rid_chunks.append(rids)
            yield batch

    try:
        resident = ColumnBatch.concat(batches(), relation.schema).to_relation(
            relation.name, relation.schema
        )
    finally:
        relation.drop_temp_table(rid_table)
    rid_map = (
        np.concatenate(rid_chunks) if rid_chunks else np.empty(0, dtype=np.int64)
    )
    return StreamOutcome(
        resident=resident,
        rid_map=rid_map,
        sql_fixed=len(candidate_rids) - len(resident),
        fixing=list(fixing_labels),
        batches=len(rid_chunks),
    )
