"""Vectorized evaluation of PaQL expressions over relation columns.

The row interpreter (:mod:`repro.paql.eval`) evaluates one AST node on
one row dict at a time; every hot path that touches all ``n`` candidate
tuples — WHERE filtering, bound derivation, package re-validation,
local-search scoring, partition binning, ILP coefficient extraction —
pays ``O(n)`` Python interpretation.  This module compiles the same
ASTs once into numpy kernels that evaluate whole
:class:`~repro.relational.relation.Relation` columns at a time.

Semantics are the interpreter's, exactly:

* **NULL** is tracked with explicit null masks (from
  :meth:`Relation.column_arrays`), never conflated with float NaN
  data.  Arithmetic involving NULL is NULL; comparisons involving NULL
  are *unknown*.
* **Three-valued logic** is carried as ``(true, unknown)`` mask pairs
  (:class:`TriBool`): ``NOT unknown`` stays unknown, ``unknown OR
  true`` is true, ``unknown AND false`` is false — and the top-level
  predicate folds unknown to false, exactly like
  :func:`~repro.paql.eval.eval_predicate`.
* **Division by zero** raises
  :class:`~repro.paql.eval.EvaluationError` whenever any evaluated row
  divides by zero with both operands non-NULL, matching the eager row
  loop (the interpreter evaluates every row of a filter and has no
  Boolean short-circuit).

One deliberate deviation: numeric arithmetic runs in float64.  The row
interpreter inherits Python's arbitrary-precision integers, so INT
expressions whose intermediate values exceed 2**53 can round here.
Package data lives far below that regime; the property tests pin
agreement on it.  Inputs that are already inexact have no kernel at
all — an INT column holding a magnitude of 2**53 or more, or an
integer literal float64 cannot represent — so those predicates run on
the row interpreter.  The remaining deviation is *audited* rather than
silent: when a kernel whose operands are provably integer-exact (INT
columns, integer literals, and +/-/* combinations of them) sees input
magnitudes that could push an intermediate past 2**53, it emits
:class:`OverflowPrecisionWarning` — a cheap magnitude check on the
inputs, so workloads in the safe regime pay almost nothing and
workloads outside it are told instead of silently rounded.

Anything outside the compilable fragment — aggregates in scalar
positions, text arithmetic, ordered comparisons across kinds — raises
:class:`UnsupportedExpression` at compile time, and every caller falls
back to the row interpreter, so vectorization is always a pure
optimization, never a semantics change.  Two functions hold those
fallbacks for the candidate set: :func:`where_positions` for WHERE,
and :class:`CandidateColumns` for the aggregate arguments every
analysis layer reads (gathered once per query).
"""

from __future__ import annotations

import threading
import warnings
import weakref
from typing import NamedTuple

import numpy as np

from repro.paql import ast
from repro.paql.eval import EvaluationError, eval_predicate, eval_scalar
from repro.relational.relation import aggregate_reduce
from repro.relational.types import ColumnType

__all__ = [
    "CandidateColumns",
    "OverflowPrecisionWarning",
    "SHARD_GATHER_MIN_CANDIDATES",
    "TriBool",
    "UnsupportedExpression",
    "VectorEvaluator",
    "aggregate_value",
    "evaluator_for",
    "try_predicate_mask",
    "where_positions",
]


class UnsupportedExpression(Exception):
    """The expression has no vectorized kernel; use the row interpreter."""


class OverflowPrecisionWarning(UserWarning):
    """An integer-exact kernel's intermediate may exceed 2**53.

    float64 represents every integer up to 2**53 exactly; past it,
    compiled INT arithmetic can round where the row interpreter's
    arbitrary-precision integers would not.  This warning is the
    documented signal that a workload has left the exact regime (see
    ``docs/paql-reference.md``); results remain the compiled float64
    values.
    """


#: Largest magnitude below which every integer is exact in float64.
_INT_SAFE_LIMIT = 2.0**53


def _magnitude_peak(values):
    """Largest finite ``|value|`` in a kernel operand (0.0 when none).

    NULL entries are NaN in value arrays and are ignored; scalars
    (literal operands) are handled uniformly.
    """
    array = np.abs(np.atleast_1d(np.asarray(values, dtype=np.float64)))
    finite = array[~np.isnan(array)]
    return float(finite.max()) if finite.size else 0.0


def _exact_in_float64(value):
    """Does the int ``value`` survive the cast to float64 unchanged?"""
    try:
        return float(value) == value
    except OverflowError:
        return False


def _warn_int_overflow(detail):
    warnings.warn(
        "compiled INT arithmetic may exceed 2**53 and round "
        f"({detail}); the row interpreter's exact integers would not",
        OverflowPrecisionWarning,
        stacklevel=3,
    )


class TriBool(NamedTuple):
    """Three-valued verdict vectors: definite-true and unknown masks.

    Components may be numpy arrays or numpy bool scalars (broadcast at
    the evaluation boundary); definite-false is ``~true & ~unknown``.
    """

    true: object
    unknown: object


#: Expression kinds, mirroring the semantic analyzer's coarse types.
_NUMERIC = "numeric"
_TEXT = "text"
_NULL = "null"
_BOOL = "bool"

_FALSE = np.bool_(False)
_TRUE = np.bool_(True)

_CMP_UFUNCS = {
    ast.CmpOp.EQ: np.equal,
    ast.CmpOp.NE: np.not_equal,
    ast.CmpOp.LT: np.less,
    ast.CmpOp.LE: np.less_equal,
    ast.CmpOp.GT: np.greater,
    ast.CmpOp.GE: np.greater_equal,
}

_AGG_NAMES = {
    ast.AggFunc.COUNT: "count",
    ast.AggFunc.SUM: "sum",
    ast.AggFunc.AVG: "avg",
    ast.AggFunc.MIN: "min",
    ast.AggFunc.MAX: "max",
}


def _not3(tri):
    return TriBool(~(tri.true | tri.unknown), tri.unknown)


def _and3(parts):
    any_false = _FALSE
    all_true = _TRUE
    for part in parts:
        any_false = any_false | ~(part.true | part.unknown)
        all_true = all_true & part.true
    return TriBool(all_true, ~(any_false | all_true))


def _or3(parts):
    any_true = _FALSE
    all_false = _TRUE
    for part in parts:
        any_true = any_true | part.true
        all_false = all_false & ~(part.true | part.unknown)
    return TriBool(any_true, ~(any_true | all_false))


class VectorEvaluator:
    """Compiles and runs PaQL kernels over one relation's columns.

    Kernels are bound to the relation's cached column arrays at compile
    time and memoized per AST node, so repeated evaluation (validator
    calls, local-search rounds, refinement steps) pays compilation
    once.  Use :func:`evaluator_for` to share one evaluator per
    relation.
    """

    def __init__(self, relation):
        # Held weakly: evaluators live in a WeakKeyDictionary keyed by
        # their relation (:func:`evaluator_for`); a strong reference
        # here would pin the key and leak every relation ever
        # evaluated.  Callers always hold the relation while using the
        # evaluator, so the dereference cannot observe a dead ref.
        self._relation_ref = weakref.ref(relation)
        self._compiled = {}

    @property
    def _relation(self):
        relation = self._relation_ref()
        if relation is None:  # pragma: no cover - callers own the relation
            raise RuntimeError("relation was garbage-collected")
        return relation

    # -- public entry points -----------------------------------------------

    def supports(self, node, boolean=False):
        """Whether a compiled kernel exists for ``node`` (memoized).

        A compile probe without evaluation: the engine's sharded scan
        asks this once per call before fanning shards out, instead of
        paying an empty evaluation of the whole kernel tree.  With
        ``boolean=True``, also require a predicate-shaped kernel (what
        :meth:`predicate_mask` accepts).
        """
        try:
            kind, _ = self._kernel(node)
        except UnsupportedExpression:
            return False
        return not boolean or kind is _BOOL

    def predicate_mask(self, node, rids=None):
        """Boolean mask of rows where ``node`` is definitely true.

        Args:
            node: an analyzed Boolean formula (WHERE-style; no
                aggregates).
            rids: row indices to evaluate — ``None`` for all rows, a
                ``slice`` for a contiguous range (zero-copy views; the
                sharded scan path), or any index sequence.

        Returns:
            A bool array aligned with ``rids`` (or the full relation),
            with unknown folded to false like
            :func:`~repro.paql.eval.eval_predicate`.

        Raises:
            UnsupportedExpression: no kernel exists for ``node``.
            EvaluationError: a runtime fault the interpreter would also
                raise (division by zero on an evaluated row).
        """
        kind, fn = self._kernel(node)
        if kind is not _BOOL:
            raise UnsupportedExpression(
                f"{type(node).__name__} is not a Boolean formula"
            )
        indices = self._indices(rids)
        tri = fn(indices)
        return self._broadcast(tri.true, indices)

    def scalar_arrays(self, node, rids=None):
        """``(values, nulls)`` of a scalar expression over rows.

        ``values`` is float64 (text expressions return a unicode
        array); ``nulls`` marks rows where the interpreter would return
        ``None``.  Boolean sub-formulas evaluate to 1.0/0.0 with
        unknown as NULL, matching ``eval_scalar``'s True/False/None.
        """
        kind, fn = self._kernel(node)
        indices = self._indices(rids)
        if kind is _BOOL:
            tri = fn(indices)
            values = self._broadcast(tri.true, indices).astype(np.float64)
            return values, self._broadcast(tri.unknown, indices)
        values, nulls = fn(indices)
        return (
            self._broadcast_values(values, indices),
            self._broadcast(nulls, indices),
        )

    def aggregate(self, node, rids, weights=None):
        """Evaluate an :class:`~repro.paql.ast.Aggregate` over a multiset.

        Args:
            node: the aggregate node.
            rids: distinct row indices of the package.
            weights: per-rid multiplicities (defaults to 1 each).

        Returns:
            The aggregate value with package semantics (see
            :mod:`repro.core.package`): weighted, NULL rows excluded,
            SUM of nothing is 0, AVG/MIN/MAX of nothing is ``None``.
        """
        if node.is_count_star:
            if weights is None:
                return len(rids)
            return int(sum(weights))
        values, nulls = self.scalar_arrays(node.argument, rids)
        if node.func in (ast.AggFunc.SUM, ast.AggFunc.AVG) and self._int_exact(
            node.argument
        ):
            # The aggregate itself is an intermediate: a SUM of exact
            # ints can leave float64's exact range even when every
            # operand is safe.  peak * weight-mass bounds it.
            if weights is None:
                mass = float(len(nulls))
            else:
                mass = float(np.abs(np.asarray(weights, dtype=np.float64)).sum())
            peak = _magnitude_peak(values)
            if peak * mass > _INT_SAFE_LIMIT:
                _warn_int_overflow(
                    f"{node.func.value} over magnitudes up to {peak:.4g} "
                    f"across weight {mass:.4g}"
                )
        if values.dtype.kind not in "fiu" and node.func is not ast.AggFunc.COUNT:
            raise UnsupportedExpression(
                f"{node.func.value} over a non-numeric argument"
            )
        if values.dtype.kind not in "fiu":
            values = np.zeros(len(nulls), dtype=np.float64)
        return aggregate_reduce(_AGG_NAMES[node.func], values, nulls, weights)

    # -- plumbing ----------------------------------------------------------

    def _indices(self, rids):
        if rids is None or isinstance(rids, slice):
            # Slices index column arrays as views (no copy), which is
            # what makes per-shard kernel evaluation cheap.
            return rids
        return np.asarray(rids, dtype=np.intp)

    def _length(self, indices):
        if indices is None:
            return len(self._relation)
        if isinstance(indices, slice):
            return len(range(*indices.indices(len(self._relation))))
        return len(indices)

    def _broadcast(self, mask, indices):
        out = np.broadcast_to(np.asarray(mask, dtype=bool), (self._length(indices),))
        return out.copy()

    def _broadcast_values(self, values, indices):
        out = np.broadcast_to(np.asarray(values), (self._length(indices),))
        return out.copy()

    def _kernel(self, node):
        """Memoized compile of ``node`` to ``(kind, fn)``."""
        cached = self._compiled.get(node)
        if cached is None:
            try:
                cached = self._compile(node)
            except UnsupportedExpression as exc:
                cached = (None, str(exc))
            self._compiled[node] = cached
        kind, fn = cached
        if kind is None:
            raise UnsupportedExpression(fn)
        return cached

    # -- compilation -------------------------------------------------------

    def _compile(self, node):
        if isinstance(node, ast.Literal):
            return self._compile_literal(node)
        if isinstance(node, ast.ColumnRef):
            return self._compile_column(node)
        if isinstance(node, ast.UnaryMinus):
            return self._compile_unary_minus(node)
        if isinstance(node, ast.BinaryOp):
            return self._compile_binary_op(node)
        if isinstance(node, ast.Comparison):
            return self._compile_comparison(node)
        if isinstance(node, ast.Between):
            return self._compile_between(node)
        if isinstance(node, ast.InList):
            return self._compile_in_list(node)
        if isinstance(node, ast.IsNull):
            return self._compile_is_null(node)
        if isinstance(node, ast.And):
            return self._compile_junction(node, _and3)
        if isinstance(node, ast.Or):
            return self._compile_junction(node, _or3)
        if isinstance(node, ast.Not):
            return self._compile_not(node)
        raise UnsupportedExpression(
            f"no vectorized kernel for {type(node).__name__}"
        )

    def _compile_literal(self, node):
        value = node.value
        if value is None:
            return _NULL, lambda indices: (np.float64(np.nan), _TRUE)
        if isinstance(value, bool):
            # In a Boolean position this is a constant verdict; in a
            # numeric comparison the Boolean branch converts as 1.0/0.0
            # (Python compares bools as ints, so parity holds).
            tri = TriBool(np.bool_(value), _FALSE)
            return _BOOL, lambda indices: tri
        if isinstance(value, int) and not _exact_in_float64(value):
            # 2**53 + 1 would cast to 2**53 and compare equal to a
            # different integer; the interpreter compares exactly.
            raise UnsupportedExpression(
                f"integer literal {value} is not exact in float64"
            )
        if isinstance(value, (int, float)):
            scalar = np.float64(value)
            return _NUMERIC, lambda indices: (scalar, _FALSE)
        if isinstance(value, str):
            return _TEXT, lambda indices: (value, _FALSE)
        raise UnsupportedExpression(f"literal {value!r} has no columnar form")

    def _int_exact(self, node):
        """Is ``node`` integer-valued under the row interpreter?

        True only for the fragment where the interpreter computes with
        exact Python ints: integer literals, INT columns, and their
        negations / + / - / * combinations.  Division leaves the
        integer domain.
        """
        if isinstance(node, ast.Literal):
            return isinstance(node.value, int) and not isinstance(
                node.value, bool
            )
        if isinstance(node, ast.ColumnRef):
            return (
                node.name in self._relation.schema
                and self._relation.schema.type_of(node.name) is ColumnType.INT
            )
        if isinstance(node, ast.UnaryMinus):
            return self._int_exact(node.operand)
        if isinstance(node, ast.BinaryOp):
            return (
                node.op is not ast.BinOp.DIV
                and self._int_exact(node.left)
                and self._int_exact(node.right)
            )
        return False

    def _compile_column(self, node):
        if node.name not in self._relation.schema:
            raise UnsupportedExpression(
                f"unknown column {node.name!r}"
            )
        values, nulls = self._relation.column_arrays(node.name)
        column_type = self._relation.schema.type_of(node.name)
        kind = _TEXT if column_type is ColumnType.TEXT else _NUMERIC
        if (
            column_type is ColumnType.INT
            and _magnitude_peak(values) >= _INT_SAFE_LIMIT
        ):
            # The float64 cast happened when the array was built: past
            # 2**53 distinct integers share one value (2**53 + 1 reads
            # as 2**53), so only the row interpreter's exact ints can
            # tell them apart.  Arrays are cached and immutable, so one
            # check at compile time covers every scan.
            raise UnsupportedExpression(
                f"INT column {node.name!r} holds magnitudes of 2**53 or "
                "more, which float64 cannot keep exact"
            )

        def fn(indices):
            if indices is None:
                return values, nulls
            return values[indices], nulls[indices]

        return kind, fn

    def _numeric_operand(self, node):
        """Compile a subexpression required to be numeric (or NULL)."""
        kind, fn = self._kernel(node)
        if kind in (_NUMERIC, _NULL):
            return fn
        raise UnsupportedExpression(
            f"{kind} operand in numeric arithmetic"
        )

    def _compile_unary_minus(self, node):
        operand = self._numeric_operand(node.operand)

        def fn(indices):
            values, nulls = operand(indices)
            return -values, nulls

        return _NUMERIC, fn

    def _compile_binary_op(self, node):
        left = self._numeric_operand(node.left)
        right = self._numeric_operand(node.right)
        op = node.op
        int_exact = op is not ast.BinOp.DIV and self._int_exact(node)
        warned = False
        warn_lock = threading.Lock()

        def fn(indices):
            nonlocal warned
            lv, ln = left(indices)
            rv, rn = right(indices)
            nulls = ln | rn
            if int_exact and not warned:
                # Cheap input-magnitude check: |a|+|b| (or |a|*|b|)
                # bounds the intermediate, so exceeding 2**53 here is
                # the documented precision hazard.  At most one warning
                # per compiled kernel: a sharded scan runs this closure
                # once per shard (concurrently under a worker pool)
                # with shard-specific magnitudes, which would defeat
                # the warnings module's dedup.  The lock is taken only
                # on the about-to-warn path, never on clean scans.
                left_peak = _magnitude_peak(lv)
                right_peak = _magnitude_peak(rv)
                bound = (
                    left_peak * right_peak
                    if op is ast.BinOp.MUL
                    else left_peak + right_peak
                )
                if bound > _INT_SAFE_LIMIT:
                    with warn_lock:
                        if not warned:
                            warned = True
                            _warn_int_overflow(
                                f"{op.value} over operand magnitudes "
                                f"{left_peak:.4g} and {right_peak:.4g}"
                            )
            if op is ast.BinOp.DIV:
                # The row loop raises per evaluated row; a literal-only
                # zero divisor over zero rows therefore must not raise.
                if self._length(indices) > 0 and np.any(~nulls & (rv == 0)):
                    raise EvaluationError("division by zero")
            with np.errstate(all="ignore"):
                if op is ast.BinOp.ADD:
                    values = lv + rv
                elif op is ast.BinOp.SUB:
                    values = lv - rv
                elif op is ast.BinOp.MUL:
                    values = lv * rv
                else:
                    values = lv / rv
            return values, nulls

        return _NUMERIC, fn

    def _compare(self, op, left_kind, left_fn, right_kind, right_fn):
        """Build a TriBool kernel for one comparison.

        Kind pairs follow the interpreter: same-kind compares
        elementwise, NULL literals make everything unknown, and
        cross-kind ``=``/``<>`` have Python's constant verdict (equality
        across types is false).  Cross-kind *ordered* comparisons raise
        in the interpreter, so they stay unsupported here.
        """
        if _NULL in (left_kind, right_kind):
            return lambda indices: TriBool(_FALSE, _TRUE)
        comparable = left_kind == right_kind
        if not comparable and op in (ast.CmpOp.EQ, ast.CmpOp.NE):
            constant = op is ast.CmpOp.NE

            def mismatch(indices):
                _, ln = left_fn(indices)
                _, rn = right_fn(indices)
                unknown = ln | rn
                verdict = np.broadcast_to(np.bool_(constant), np.shape(unknown))
                return TriBool(verdict & ~unknown, unknown)

            return mismatch
        if not comparable:
            raise UnsupportedExpression(
                f"ordered comparison between {left_kind} and {right_kind}"
            )
        ufunc = _CMP_UFUNCS[op]

        def fn(indices):
            lv, ln = left_fn(indices)
            rv, rn = right_fn(indices)
            unknown = ln | rn
            with np.errstate(invalid="ignore"):
                verdict = ufunc(lv, rv)
            return TriBool(verdict & ~unknown, unknown)

        return fn

    def _comparison_operand(self, node):
        """Compile a comparison side to ``(kind, scalar_fn)``.

        Boolean sub-results (nested comparisons are not generated by
        the parser, but bool literals and BOOL columns are real) become
        numeric 1.0/0.0 — Python compares bools as ints.
        """
        kind, fn = self._kernel(node)
        if kind is _BOOL:
            def as_numeric(indices, fn=fn):
                tri = fn(indices)
                values = np.asarray(tri.true, dtype=np.float64)
                return values, tri.unknown

            return _NUMERIC, as_numeric
        return kind, fn

    def _compile_comparison(self, node):
        left_kind, left_fn = self._comparison_operand(node.left)
        right_kind, right_fn = self._comparison_operand(node.right)
        fn = self._compare(node.op, left_kind, left_fn, right_kind, right_fn)
        return _BOOL, fn

    def _compile_between(self, node):
        value_kind, value_fn = self._comparison_operand(node.expr)
        low_kind, low_fn = self._comparison_operand(node.low)
        high_kind, high_fn = self._comparison_operand(node.high)
        lower = self._compare(ast.CmpOp.GE, value_kind, value_fn, low_kind, low_fn)
        upper = self._compare(ast.CmpOp.LE, value_kind, value_fn, high_kind, high_fn)
        negated = node.negated

        def fn(indices):
            tri = _and3([lower(indices), upper(indices)])
            return _not3(tri) if negated else tri

        return _BOOL, fn

    def _compile_in_list(self, node):
        value_kind, value_fn = self._comparison_operand(node.expr)
        members = [
            self._compare(
                ast.CmpOp.EQ, value_kind, value_fn, *self._comparison_operand(item)
            )
            for item in node.items
        ]
        negated = node.negated

        def fn(indices):
            tri = _or3([member(indices) for member in members])
            return _not3(tri) if negated else tri

        return _BOOL, fn

    def _compile_is_null(self, node):
        kind, fn = self._kernel(node.expr)
        negated = node.negated
        if kind is _BOOL:
            def bool_fn(indices):
                tri = fn(indices)
                verdict = np.asarray(tri.unknown, dtype=bool)
                return TriBool(~verdict if negated else verdict, _FALSE)

            return _BOOL, bool_fn

        def scalar_fn(indices):
            _, nulls = fn(indices)
            verdict = np.asarray(nulls, dtype=bool)
            return TriBool(~verdict if negated else verdict, _FALSE)

        return _BOOL, scalar_fn

    def _compile_junction(self, node, combine):
        parts = []
        for arg in node.args:
            kind, fn = self._kernel(arg)
            if kind is not _BOOL:
                raise UnsupportedExpression(
                    f"{kind} operand in a Boolean junction"
                )
            parts.append(fn)

        def fn(indices):
            return combine([part(indices) for part in parts])

        return _BOOL, fn

    def _compile_not(self, node):
        kind, fn = self._kernel(node.arg)
        if kind is not _BOOL:
            raise UnsupportedExpression(f"NOT over a {kind} operand")

        def negated(indices):
            return _not3(fn(indices))

        return _BOOL, negated


# -- per-relation evaluator sharing ----------------------------------------

_EVALUATORS = weakref.WeakKeyDictionary()
_EVALUATORS_LOCK = threading.Lock()


def evaluator_for(relation):
    """The shared :class:`VectorEvaluator` for ``relation`` (cached).

    Thread-safe: concurrent serving callers get one evaluator per
    relation (a kernel compiled by any caller is reused by all), not
    racing instances with disjoint kernel caches.
    """
    with _EVALUATORS_LOCK:
        evaluator = _EVALUATORS.get(relation)
        if evaluator is None:
            evaluator = VectorEvaluator(relation)
            _EVALUATORS[relation] = evaluator
        return evaluator


def try_predicate_mask(node, relation, rids=None):
    """Predicate mask, or ``None`` when the expression is unsupported.

    Runtime faults (:class:`~repro.paql.eval.EvaluationError`) still
    propagate — the row interpreter would raise them too.
    """
    try:
        return evaluator_for(relation).predicate_mask(node, rids)
    except UnsupportedExpression:
        return None


def where_positions(where, relation, rids=None):
    """``(positions, path)``: the rows of ``relation`` satisfying ``where``.

    The one in-memory WHERE verdict, for the candidate scan and the
    validator alike: the compiled kernel when one exists
    (``vectorized``), else the per-row interpreter (``interpreted``).
    ``positions`` is an ascending ``intp`` array of row indices, or of
    indices into ``rids`` when only those rows are judged.
    """
    mask = try_predicate_mask(where, relation, rids)
    if mask is not None:
        return np.flatnonzero(mask), "vectorized"
    rows = range(len(relation)) if rids is None else rids
    keep = np.fromiter(
        (bool(eval_predicate(where, relation[rid])) for rid in rows),
        dtype=bool,
        count=len(rows),
    )
    return np.flatnonzero(keep), "interpreted"


#: Below this many candidates one kernel pass beats per-shard dispatch
#: (split + pool overhead exceeds the scan itself), so the shard
#: fan-out of :class:`CandidateColumns` only engages past it.  Either
#: way the gathered arrays are identical.
SHARD_GATHER_MIN_CANDIDATES = 32768


class CandidateColumns:
    """The candidates' aggregate-argument columns, gathered once per query.

    Pruning, reduction, the ILP translation, the seeds, local search,
    partitioning and SQL generation all read the same per-candidate
    values of the same aggregate arguments from one instance.
    :meth:`get` gathers an argument on first request, over the
    *current* candidates, and keeps it; :meth:`narrow` drops
    candidates by indexing what was gathered, so an argument first
    asked for after a reduction round is never gathered over the
    larger set before it.

    A numeric argument comes back as float64 with NULL rows as NaN
    (NaN *data* stays NaN, told apart by ``nulls``); for any other
    argument (text) only ``nulls`` is meaningful.  Each consumer keeps
    its own NULL convention on top.

    Args:
        relation: the relation the rids index.
        rids: candidate rids, in the order every gathered array follows.
        sharded: optional
            :class:`~repro.relational.sharding.ShardedRelation`; past
            :data:`SHARD_GATHER_MIN_CANDIDATES` strictly ascending
            candidates a gather runs per shard through the worker pool
            and concatenates in shard order (bit-identical: kernels
            are elementwise).
        workers: the :func:`~repro.core.parallel.parallel_map` width
            of that fan-out.
    """

    def __init__(self, relation, rids, sharded=None, workers=0):
        self._relation = relation
        self.rids = np.asarray(rids, dtype=np.intp)
        if sharded is not None and np.any(np.diff(self.rids) <= 0):
            sharded = None
        self._sharded = sharded
        self._workers = workers
        self._gathered = {}

    def get(self, node):
        """``(values, nulls)`` of scalar expression ``node`` per candidate.

        Raises:
            EvaluationError: a runtime fault the row interpreter would
                also raise (division by zero on a candidate).
        """
        pair = self._gathered.get(node)
        if pair is None:
            # setdefault: concurrent first requests for one node keep
            # one answer (both gathers are equal anyway).
            pair = self._gathered.setdefault(node, self._gather(node))
        return pair

    def narrow(self, keep):
        """Keep only the candidates the bool mask ``keep`` (over the
        current rids) selects, in their current order."""
        if keep.all():
            return
        self.rids = self.rids[keep]
        self._gathered = {
            node: (values[keep], nulls[keep])
            for node, (values, nulls) in self._gathered.items()
        }

    def _gather(self, node):
        evaluator = evaluator_for(self._relation)
        if not evaluator.supports(node):
            return self._interpret(node)
        if self._sharded is None or len(self.rids) < SHARD_GATHER_MIN_CANDIDATES:
            values, nulls = evaluator.scalar_arrays(node, self.rids)
        else:
            from repro.core.parallel import parallel_map

            groups = [
                group for group in self._sharded.split_rids(self.rids) if len(group)
            ]
            parts = parallel_map(
                lambda group: evaluator.scalar_arrays(node, group),
                groups,
                workers=self._workers,
            )
            values = np.concatenate([part[0] for part in parts])
            nulls = np.concatenate([part[1] for part in parts])
        if values.dtype.kind in "fiu":
            values = np.where(nulls, np.nan, values)
        return values, nulls

    def _interpret(self, node):
        """The row interpreter, for arguments no kernel compiles."""
        raw = [eval_scalar(node, self._relation[rid]) for rid in self.rids.tolist()]
        nulls = np.array([value is None for value in raw], dtype=bool)
        if all(isinstance(value, (int, float)) for value in raw if value is not None):
            values = np.fromiter(
                (np.nan if value is None else float(value) for value in raw),
                dtype=np.float64,
                count=len(raw),
            )
        else:
            values = np.array(["" if value is None else str(value) for value in raw])
        return values, nulls


def aggregate_value(node, relation, rids, weights=None):
    """Vectorized package aggregate (see :meth:`VectorEvaluator.aggregate`).

    Raises:
        UnsupportedExpression: when the argument has no kernel; callers
            fall back to the row loop.
    """
    return evaluator_for(relation).aggregate(node, rids, weights)
