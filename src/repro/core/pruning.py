"""Cardinality-based pruning (Section 4.1 of the paper).

Given a global constraint C, derive a lower bound ``l`` and an upper
bound ``u`` on the cardinality of any package that can satisfy C.  The
paper's examples:

* ``a <= COUNT(*) <= b`` gives ``l = a``, ``u = b`` directly;
* ``2000 <= SUM(calories) <= 2500`` gives
  ``l = ceil(2000 / MAX(calories))`` and
  ``u = floor(2500 / MIN(calories))`` — with at least ``l`` maximal
  recipes the lower summation bound is reachable, and more than ``u``
  minimal recipes necessarily exceed the upper one.

The derivation here generalizes this soundly:

* conjunctions intersect bounds, disjunctions take the convex hull;
* SUM bounds are derived from the min/max of the aggregate argument
  *over the candidate tuples* (after base-constraint filtering), with
  the sign analysis required for mixed-sign or negative data —
  a negative minimum voids the upper bound, etc.;
* ``COUNT(expr) >= a`` implies ``COUNT(*) >= a`` (sound, since
  ``COUNT(expr) <= COUNT(*)``); other aggregates contribute nothing.

Soundness invariant (property-tested): every package that satisfies the
global formula has cardinality within the derived bounds.  With ``n``
candidates and set semantics, pruning shrinks the candidate-package
count from ``2^n`` to ``sum(C(n, k) for k in [l, u])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.paql import ast
from repro.paql.errors import PaQLUnsupportedError
from repro.core.formula import conjunctive_leaves, normalize_formula
from repro.core.vectorize import CandidateColumns
from repro.relational.types import ColumnType


@dataclass(frozen=True)
class CardinalityBounds:
    """An inclusive cardinality interval ``[lower, upper]``.

    ``empty`` indicates a proof that no cardinality can satisfy the
    formula (the constraint system is infeasible).
    """

    lower: int
    upper: int

    @property
    def empty(self):
        return self.lower > self.upper

    def intersect(self, other):
        return CardinalityBounds(
            max(self.lower, other.lower), min(self.upper, other.upper)
        )

    def hull(self, other):
        if self.empty:
            return other
        if other.empty:
            return self
        return CardinalityBounds(
            min(self.lower, other.lower), max(self.upper, other.upper)
        )

    def contains(self, cardinality):
        return self.lower <= cardinality <= self.upper


#: ``search_space_size`` stays exact below this ``n``; approximation
#: needs headroom for its ~1e-12 relative error to be invisible next to
#: the sheer magnitude of the counts it replaces.
_APPROX_MIN_N = 4096

#: ... and whenever the cheaper of (window, complement) has at most
#: this many big-integer terms, which exact summation handles fast.
_APPROX_MIN_TERMS = 256


def _log2_comb(n, k):
    """``log2 C(n, k)`` through ``lgamma`` (no big integers)."""
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2)


def _pow2_int(log2_value):
    """``round(2**log2_value)`` as an arbitrary-size int.

    Floats top out near 2**1024; split into a 52-bit mantissa and an
    integer shift so astronomically large counts still materialize.
    """
    if log2_value < 62:
        return int(round(2.0**log2_value))
    shift = int(log2_value) - 52
    return int(round(2.0 ** (log2_value - shift))) << shift


def _approx_range_sum(n, low, high):
    """Log-space approximation of ``sum(C(n, k) for k in [low, high])``.

    Equivalent to evaluating the regularized incomplete beta
    ``2**n * (I_half(n-low, low+1) - I_half(n-high-1, high+2))`` but
    computed directly: anchor at the window's dominant term (the
    endpoint nearest ``n/2``, or the center when the window straddles
    it), then accumulate the neighboring terms through the pmf ratio
    recurrences ``C(n,k-1)/C(n,k) = k/(n-k+1)`` outward until they stop
    mattering.  All arithmetic is float (terms are *relative* to the
    dominant one, so nothing overflows); only the final
    ``2**log2(total)`` materializes a big integer.  Relative error is
    ~1e-12 — invisible at the magnitudes where the exact big-integer
    summation becomes too slow to use.
    """
    k_star = min(max(n // 2, low), high)
    relative_sum = 1.0
    term = 1.0
    k = k_star
    while k > low:
        term *= k / (n - k + 1)
        k -= 1
        relative_sum += term
        if term < 1e-16 * relative_sum:
            break
    term = 1.0
    k = k_star
    while k < high:
        term *= (n - k) / (k + 1)
        k += 1
        relative_sum += term
        if term < 1e-16 * relative_sum:
            break
    return _pow2_int(_log2_comb(n, k_star) + math.log2(relative_sum))


def search_space_size(n, bounds, limit=None):
    """Number of candidate packages left after pruning (set semantics).

    ``sum(C(n, k))`` over the cardinalities in ``bounds`` clipped to
    ``[0, n]``; compare with the unpruned ``2**n``.

    With ``limit`` set, the count saturates: any return value greater
    than ``limit`` only promises the true count is also greater.  The
    saturating path never materializes astronomically large binomials
    (it bounds each term through ``lgamma`` first), so callers that
    only need "is the space bigger than my budget?" — the cost model —
    stay O(1)-ish even at ``n`` in the hundreds of thousands.

    Without a limit the count is exact while that is affordable: small
    ``n``, or a narrow window, or a narrow complement (summed against
    ``2**n``).  Balanced mid-range windows at huge ``n`` — where exact
    summation would grind through hundreds of thousands of
    thousand-digit integers — switch to the log-space approximation
    (:func:`_approx_range_sum`, ~1e-12 relative); only the display
    paths consume such counts.
    """
    if bounds.empty:
        return 0
    low = max(0, bounds.lower)
    high = min(n, bounds.upper)
    if high < low:
        return 0

    if limit is not None:
        log_cap = math.log(max(float(limit), 1.0)) + 2.0
        total = 0
        for k in range(low, high + 1):
            log_term = (
                math.lgamma(n + 1)
                - math.lgamma(k + 1)
                - math.lgamma(n - k + 1)
            )
            if log_term > log_cap:
                return limit + 1
            total += math.comb(n, k)
            if total > limit:
                return total
        return total

    # Exact count.  When the range covers most cardinalities, summing
    # the narrow complement against 2^n is far cheaper than summing
    # the range itself (the unbounded-bounds case on a large relation
    # is exactly 2^n, computed instantly).
    width = high - low + 1
    complement = low + (n - high)
    if n >= _APPROX_MIN_N and min(width, complement) > _APPROX_MIN_TERMS:
        return _approx_range_sum(n, low, high)
    if complement < width:
        outside = sum(math.comb(n, k) for k in range(0, low))
        outside += sum(math.comb(n, k) for k in range(high + 1, n + 1))
        return 2**n - outside
    return sum(math.comb(n, k) for k in range(low, high + 1))


def derive_bounds(
    query,
    relation,
    candidate_rids,
    sharded=None,
    workers=0,
    columns=None,
):
    """Cardinality bounds implied by ``query``'s SUCH THAT clause.

    Args:
        query: analyzed :class:`~repro.paql.ast.PackageQuery`.
        relation: the base relation.
        candidate_rids: rids surviving the base constraints (ascending).
        sharded: optional
            :class:`~repro.relational.sharding.ShardedRelation` over
            ``relation``; a bare numeric column over full candidate
            coverage then reads its extent straight from the cached
            zone statistics (O(shards), no scan).  The derived bounds
            are bit-identical either way.
        workers: the columns' shard fan-out.
        columns: the query's ``CandidateColumns`` over
            ``candidate_rids`` (built when ``None``).
    """
    if columns is None:
        columns = CandidateColumns(relation, candidate_rids, sharded, workers)
    conjuncts, _ = query_conjuncts(query)
    return conjunct_bounds(conjuncts, query.repeat, relation, columns, sharded)


def query_conjuncts(query):
    """``(conjuncts, unsupported)`` of ``query``'s SUCH THAT clause.

    The clause is normalized once and each top-level conjunct matched
    once, as ``(leaf, aggregate, op, constant)``; ``aggregate`` (and
    ``op``, ``constant``) is ``None`` for a leaf that is not an
    aggregate-versus-constant comparison: an ``Or``, a Boolean
    literal, or richer arithmetic.  ``unsupported`` is why a clause
    has no normal form (then there are no conjuncts), else ``None``.
    The cardinality walk and the reducer
    (:mod:`repro.core.reduction`) both read the list.
    """
    if query.such_that is None:
        return [], None
    try:
        formula = normalize_formula(query.such_that)
    except PaQLUnsupportedError as exc:
        return [], str(exc)
    matched = []
    for leaf in conjunctive_leaves(formula):
        if isinstance(leaf, ast.Comparison):
            matched.append((leaf, *match_aggregate_comparison(leaf)))
        else:
            matched.append((leaf, None, None, None))
    return matched, None


def conjunct_bounds(conjuncts, repeat, relation, columns, sharded=None):
    """Intersect the bounds each matched conjunct implies over the
    candidates ``columns`` holds (see :func:`derive_bounds`)."""
    top = len(columns.rids) * repeat

    def extent(expr):
        return _argument_range(expr, relation, columns, sharded)

    bounds = CardinalityBounds(0, top)
    for leaf, aggregate, op, constant in conjuncts:
        if aggregate is None:
            implied = _bounds_of(leaf, top, extent)
        else:
            implied = _bounds_of_aggregate(aggregate, op, constant, top, extent)
        bounds = bounds.intersect(implied)
    return bounds


# -- data statistics ----------------------------------------------------------


def _argument_range(expr, relation, columns, sharded):
    """``(min, max)`` of an argument's non-NULL candidate values.

    ``None`` when no candidate yields a non-NULL value.  Zone
    statistics answer a bare numeric column when every row is a
    candidate (a shard's zone min/max is over *all* its rows);
    otherwise min/max runs over the candidates' gathered column, where
    a NaN anywhere makes both ends NaN.
    """
    if (
        sharded is not None
        and len(columns.rids) == len(relation)
        and isinstance(expr, ast.ColumnRef)
        and expr.name in relation.schema
        and relation.schema.type_of(expr.name) is not ColumnType.TEXT
    ):
        zone = sharded.column_zone(expr.name)
        if zone.non_null == 0:
            return None
        return (zone.minimum, zone.maximum)
    values, nulls = columns.get(expr)
    present = values[~nulls]
    if present.size == 0:
        return None
    return (float(present.min()), float(present.max()))


# -- recursive derivation -----------------------------------------------------


def _bounds_of(node, top, extent):
    unknown = CardinalityBounds(0, top)

    if isinstance(node, ast.Literal):
        if node.value:
            return unknown
        return CardinalityBounds(1, 0)  # unsatisfiable

    if isinstance(node, ast.And):
        result = unknown
        for arg in node.args:
            result = result.intersect(_bounds_of(arg, top, extent))
        return result

    if isinstance(node, ast.Or):
        result = CardinalityBounds(1, 0)
        for arg in node.args:
            result = result.hull(_bounds_of(arg, top, extent))
        return result

    if isinstance(node, ast.Comparison):
        # Only <aggregate> <op> <constant> patterns (either
        # orientation) yield bounds; richer arithmetic is left to the
        # ILP.
        aggregate, op, constant = match_aggregate_comparison(node)
        if aggregate is not None:
            return _bounds_of_aggregate(aggregate, op, constant, top, extent)

    return unknown


def _bounds_of_aggregate(aggregate, op, constant, top, extent):
    if aggregate.is_count_star:
        return _bounds_of_count(op, constant, top)

    if aggregate.func is ast.AggFunc.COUNT:
        # COUNT(expr) <= COUNT(*): only >= carries over soundly.
        if op in (ast.CmpOp.GE, ast.CmpOp.GT, ast.CmpOp.EQ):
            partial = _bounds_of_count(
                ast.CmpOp.GE if op is not ast.CmpOp.GT else ast.CmpOp.GT,
                constant,
                top,
            )
            return CardinalityBounds(partial.lower, top)
        return CardinalityBounds(0, top)

    if aggregate.func is ast.AggFunc.SUM:
        return _bounds_of_sum(extent(aggregate.argument), op, constant, top)

    return CardinalityBounds(0, top)


def _bounds_of_count(op, constant, top):
    if op is ast.CmpOp.EQ:
        if constant < 0 or constant != int(constant):
            return CardinalityBounds(1, 0)
        return CardinalityBounds(int(constant), int(constant))
    if op is ast.CmpOp.LE:
        return CardinalityBounds(0, math.floor(constant))
    if op is ast.CmpOp.LT:
        return CardinalityBounds(0, math.ceil(constant) - 1)
    if op is ast.CmpOp.GE:
        return CardinalityBounds(max(0, math.ceil(constant)), top)
    if op is ast.CmpOp.GT:
        return CardinalityBounds(max(0, math.floor(constant) + 1), top)
    return CardinalityBounds(0, top)


def _bounds_of_sum(extent, op, constant, top):
    """Bounds from ``SUM(argument) <op> constant``, given the
    argument's candidate ``extent`` (see :func:`_argument_range`).

    A package of cardinality ``k`` has its sum inside the relaxed
    interval ``[k * min_value, k * max_value]`` (the relaxation
    ignores repeat limits and distinctness, which only makes the
    true range narrower, so the derived necessary conditions remain
    sound).  Writing the constraint as ``A <= SUM <= B``,
    feasibility of cardinality ``k`` requires the intervals to
    overlap::

        k * min_value <= B   and   k * max_value >= A

    Solving each inequality for ``k`` (with the sign analysis the
    divisions require) yields the bounds.  With all-positive values
    this reduces to the paper's formulas ``u = floor(B / min)`` and
    ``l = ceil(A / max)``.  Strict comparisons are relaxed to their
    closed forms, which is sound (never excludes a feasible k).
    """
    unknown = CardinalityBounds(0, top)
    empty = CardinalityBounds(1, 0)
    if extent is None:
        # SUM over no non-NULL candidates is 0 for every package.
        satisfied = _compare_const(0.0, op, constant)
        return unknown if satisfied else empty
    minimum, maximum = extent
    if math.isnan(minimum) or math.isnan(maximum):
        # NaN data poisons the extent: every sign test below is
        # false, which would fall through to the negative-extreme
        # branches and wrongly prove infeasibility.  No necessary
        # condition follows from a NaN extent.
        return unknown

    if op in (ast.CmpOp.LE, ast.CmpOp.LT):
        sum_low, sum_high = -math.inf, constant
    elif op in (ast.CmpOp.GE, ast.CmpOp.GT):
        sum_low, sum_high = constant, math.inf
    else:  # EQ
        sum_low, sum_high = constant, constant

    lower, upper = 0, top

    # Quotients can overflow to inf when the extreme value is
    # subnormal; skipping the tightening (keeping the looser
    # bound) stays sound.
    def floor_div(a, b):
        quotient = a / b
        return math.floor(quotient) if math.isfinite(quotient) else None

    def ceil_div(a, b):
        quotient = a / b
        return math.ceil(quotient) if math.isfinite(quotient) else None

    # Require k * minimum <= sum_high.
    if math.isfinite(sum_high):
        if minimum > 0:
            tightened = floor_div(sum_high, minimum)
            if tightened is not None:
                upper = min(upper, tightened)
            if upper < 0:
                return empty
        elif minimum == 0:
            if sum_high < 0:
                return empty
        else:  # minimum < 0: large k drives the floor down; need enough k.
            if sum_high < 0:
                tightened = ceil_div(sum_high, minimum)
                if tightened is not None:
                    lower = max(lower, tightened)

    # Require k * maximum >= sum_low.
    if math.isfinite(sum_low):
        if maximum > 0:
            if sum_low > 0:
                tightened = ceil_div(sum_low, maximum)
                if tightened is not None:
                    lower = max(lower, tightened)
        elif maximum == 0:
            if sum_low > 0:
                return empty
        else:  # maximum < 0: sums only get more negative with k.
            if sum_low > 0:
                return empty
            tightened = floor_div(sum_low, maximum)
            if tightened is not None:
                upper = min(upper, tightened)

    if lower > upper:
        return empty
    return CardinalityBounds(lower, upper)


def match_aggregate_comparison(node):
    """Match ``Aggregate <op> Literal`` in either orientation.

    Returns ``(aggregate, op, constant)`` with the comparison
    normalized to aggregate-on-the-left (the operator is flipped when
    the literal was on the left), or ``(None, None, None)``.  Shared
    by the cardinality pruner and the candidate-space reducer
    (:mod:`repro.core.reduction`).
    """
    left, right = node.left, node.right
    if isinstance(left, ast.Aggregate) and isinstance(right, ast.Literal):
        if isinstance(right.value, (int, float)) and not isinstance(
            right.value, bool
        ):
            return left, node.op, float(right.value)
    if isinstance(right, ast.Aggregate) and isinstance(left, ast.Literal):
        if isinstance(left.value, (int, float)) and not isinstance(
            left.value, bool
        ):
            return right, node.op.flip(), float(left.value)
    return None, None, None


def _compare_const(value, op, constant):
    if op is ast.CmpOp.EQ:
        return value == constant
    if op is ast.CmpOp.LE:
        return value <= constant
    if op is ast.CmpOp.LT:
        return value < constant
    if op is ast.CmpOp.GE:
        return value >= constant
    if op is ast.CmpOp.GT:
        return value > constant
    return value != constant


def unpruned_bounds(candidate_count, repeat=1):
    """The trivial bounds ``[0, n * repeat]`` (pruning disabled)."""
    return CardinalityBounds(0, candidate_count * repeat)


def format_count(count):
    """Human-readable search-space size, safe for astronomically big ints.

    ``2**n`` package counts overflow float formatting well before the
    engine stops caring about them (``format(2**2000, 'g')`` raises
    OverflowError); fall back to a power-of-ten approximation via the
    bit length (``str(count)`` would trip the interpreter's 4300-digit
    int-to-string guard long before that).
    """
    try:
        return f"{float(count):g}"
    except OverflowError:
        return f"~1e+{int(count.bit_length() * 0.3010299956639812)}"
