"""Translation of package queries into integer linear programs.

Section 7 of the paper: "a PaQL query is translated into a linear
program and then solved using existing constraint solvers".  This
module is that translation.

Model shape
-----------
One integer variable ``x_j`` in ``[0, repeat]`` per candidate tuple
(its multiplicity in the package).  Aggregates become linear forms::

    COUNT(*)      ->  sum_j x_j
    COUNT(e)      ->  sum_j [e_j is not NULL] * x_j
    SUM(e)        ->  sum_j e_j * x_j           (NULL contributes 0)

``AVG(e) <op> c`` is linearized by multiplying through by the (always
nonnegative) non-NULL count: ``sum_j (e_j - c) * x_j <op> 0`` — exact
whenever the package contains at least one non-NULL ``e``; a support
constraint enforcing that is added automatically (AVG over an empty
package is NULL, which satisfies no comparison).

``MIN(e) <op> c`` / ``MAX(e) <op> c`` use set encodings over the data
constants (exact, including strict comparisons, because thresholds
split the finite value set):  e.g. ``MIN(e) >= c`` fixes ``x_j = 0``
for every candidate with ``e_j < c`` and requires a non-NULL witness;
``MIN(e) <= c`` requires ``sum_{j: e_j <= c} x_j >= 1``.

Arbitrary Boolean structure (the paper's extension over Tiresias'
conjunctive queries) is encoded after NNF normalization: conjunctions
emit their children directly; disjunctions get one indicator binary per
branch, ``sum z_k >= 1`` (or ``>= z_parent`` when nested), with each
branch's linear constraints big-M-relaxed by its indicator.  Big-M
values are computed exactly from the variable bounds, which are always
finite (``repeat``).

Array-native construction
-------------------------
The coefficients already sit in numpy columns, so the translator never
leaves them: :meth:`VectorEvaluator.scalar_arrays
<repro.core.vectorize.VectorEvaluator.scalar_arrays>` hands back one
``(values, nulls)`` pair per aggregate argument, every linear form is
a dense float64 row over the candidates built with mask arithmetic
(NULL and zero entries are 0 and dropped by
:meth:`Model.add_row <repro.solver.model.Model.add_row>`), MIN/MAX
sets are boolean masks, and :meth:`ILPTranslation.decode` reads the
solution vector back through an index array.  No Python object is
created per candidate; only an argument the column compiler cannot
handle is row-evaluated into the same ``(values, nulls)`` shape.

What cannot translate raises :class:`ILPTranslationError` — objectives
using AVG/MIN/MAX, MIN/MAX compared against non-constants, and products
of aggregates.  The evaluator treats that as "solver limitation"
(Section 5 of the paper) and falls back to search strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.paql import ast
from repro.paql.errors import PaQLUnsupportedError
from repro.paql.eval import eval_scalar
from repro.core.formula import normalize_formula
from repro.core.package import Package
from repro.solver.model import Model, ObjectiveSense, sequential_sum

#: Slack used to encode strict inequalities over continuous sums.
DEFAULT_EPSILON = 1e-6


class ILPTranslationError(Exception):
    """The query (or one clause) has no linear encoding."""


@dataclass(frozen=True)
class MinMaxPlan:
    """The set-encoding shape of one ``MIN/MAX(e) <op> t`` comparison.

    The single normalization that both the ILP translator and the
    candidate-space reducer (:mod:`repro.core.reduction`) apply, so the
    two can never drift: mirror MAX to MIN (negating values and the
    threshold), then read off which tuple sets the comparison
    constrains.

    Attributes:
        negate: evaluate over ``-e`` against ``-t`` (the MAX mirror).
        bad: comparison selecting tuples that must be **absent** from
            every satisfying package (``v <bad> t`` over the possibly
            mirrored values), or ``None``.
        witness: comparison selecting tuples of which at least one
            must be **present**, or ``None``.
        support: whether the package additionally needs a non-NULL
            value of the argument (the aggregate of an all-NULL
            package is NULL, which satisfies no comparison).  Witness
            shapes imply their own support and leave this False.
    """

    negate: bool
    bad: ast.CmpOp | None
    witness: ast.CmpOp | None
    support: bool


#: ``MIN(values) <op> threshold`` set encodings, post-mirror.
_MIN_PLANS = {
    ast.CmpOp.GE: (ast.CmpOp.LT, None, True),
    ast.CmpOp.GT: (ast.CmpOp.LE, None, True),
    ast.CmpOp.LE: (None, ast.CmpOp.LE, False),
    ast.CmpOp.LT: (None, ast.CmpOp.LT, False),
    ast.CmpOp.EQ: (ast.CmpOp.LT, ast.CmpOp.EQ, False),
}


def minmax_plan(func, op):
    """The :class:`MinMaxPlan` for ``func(e) <op> threshold``.

    Raises:
        ILPTranslationError: on ``<>`` (normalization expands it before
            either consumer runs, so seeing one is a shape error).
    """
    negate = func is ast.AggFunc.MAX
    if negate:
        op = op.flip()
    if op not in _MIN_PLANS:
        raise ILPTranslationError(f"unexpected {op.value} on MIN/MAX")
    bad, witness, support = _MIN_PLANS[op]
    return MinMaxPlan(negate=negate, bad=bad, witness=witness, support=support)


#: Predicates for :class:`MinMaxPlan` selections, elementwise over
#: value arrays as well as scalars (shared with the reducer's
#: vectorized forms, which must agree on boundaries).
PLAN_PREDICATES = {
    ast.CmpOp.LT: lambda value, threshold: value < threshold,
    ast.CmpOp.LE: lambda value, threshold: value <= threshold,
    ast.CmpOp.EQ: lambda value, threshold: value == threshold,
}


class _AffineForm:
    """``constant + sum(coef_a * aggregate_a)`` over aggregate nodes."""

    def __init__(self, constant=0.0, terms=None):
        self.constant = float(constant)
        self.terms = dict(terms or {})

    def __add__(self, other):
        merged = dict(self.terms)
        for key, value in other.terms.items():
            merged[key] = merged.get(key, 0.0) + value
        return _AffineForm(self.constant + other.constant, merged)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, factor):
        return _AffineForm(
            self.constant * factor,
            {key: value * factor for key, value in self.terms.items()},
        )

    @property
    def is_constant(self):
        return not self.terms

    def single_aggregate(self):
        """The (aggregate, coef) pair if exactly one term, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None


def _affine_of(node):
    """Decompose an aggregate expression into an :class:`_AffineForm`.

    Raises:
        ILPTranslationError: on products/quotients of aggregates.
    """
    if isinstance(node, ast.Literal):
        value = node.value
        if value is None or isinstance(value, bool) or isinstance(value, str):
            raise ILPTranslationError(
                f"non-numeric literal {value!r} in a linear position"
            )
        return _AffineForm(constant=float(value))

    if isinstance(node, ast.Aggregate):
        return _AffineForm(terms={node: 1.0})

    if isinstance(node, ast.UnaryMinus):
        return _affine_of(node.operand).scaled(-1.0)

    if isinstance(node, ast.BinaryOp):
        left = _affine_of(node.left)
        right = _affine_of(node.right)
        if node.op is ast.BinOp.ADD:
            return left + right
        if node.op is ast.BinOp.SUB:
            return left - right
        if node.op is ast.BinOp.MUL:
            if left.is_constant:
                return right.scaled(left.constant)
            if right.is_constant:
                return left.scaled(right.constant)
            raise ILPTranslationError("product of aggregates is not linear")
        if right.is_constant:
            if right.constant == 0:
                raise ILPTranslationError("division by zero in constraint")
            return left.scaled(1.0 / right.constant)
        raise ILPTranslationError("division by an aggregate is not linear")

    raise ILPTranslationError(
        f"cannot linearize node {type(node).__name__} in a global constraint"
    )


class ILPTranslation:
    """A translated query: the model plus the decoding map.

    Attributes:
        candidate_rids: the candidate row ids (``intp`` array).
        x_vars: model index of each candidate's multiplicity variable
            (``intp`` array aligned with ``candidate_rids``).
    """

    def __init__(self, query, relation, candidate_rids, model, x_vars):
        self.query = query
        self.relation = relation
        self.candidate_rids = _rid_array(candidate_rids)
        self.model = model
        self.x_vars = np.asarray(x_vars, dtype=np.intp)

    @property
    def nbytes(self):
        """Bytes held by the model and the decoding arrays."""
        return self.model.nbytes + self.candidate_rids.nbytes + self.x_vars.nbytes

    def positions(self, rids):
        """Where each of ``rids`` sits in ``candidate_rids`` (-1 when
        it is not a candidate)."""
        rids = np.asarray(rids, dtype=np.intp)
        candidates = self.candidate_rids
        if len(candidates) == 0:
            return np.full(len(rids), -1, dtype=np.intp)
        order = np.argsort(candidates, kind="stable")
        spot = np.searchsorted(candidates, rids, sorter=order)
        found = order[np.minimum(spot, len(order) - 1)]
        return np.where(candidates[found] == rids, found, -1)

    def multiplicities(self, package):
        """``package``'s multiplicity of every candidate (float array
        aligned with ``candidate_rids``; rids outside it are ignored)."""
        out = np.zeros(len(self.candidate_rids))
        if package.counts:
            rids, counts = zip(*package.counts)
            where = self.positions(rids)
            inside = where >= 0
            out[where[inside]] = np.asarray(counts, dtype=np.float64)[inside]
        return out

    def counts(self, solution):
        """``{rid: multiplicity}`` of the tuples ``solution`` selects."""
        values = np.rint(solution.x[self.x_vars])
        chosen = np.flatnonzero(values > 0)
        return dict(
            zip(
                self.candidate_rids[chosen].tolist(),
                values[chosen].astype(np.int64).tolist(),
            )
        )

    def decode(self, solution):
        """Turn a solver :class:`~repro.solver.model.Solution` into a
        :class:`~repro.core.package.Package`."""
        return Package(self.relation, self.counts(solution))

    def exclude_package(self, package):
        """Add a no-good cut removing ``package`` from the feasible set.

        For 0/1 multiplicities this is the classic cut
        ``sum_{j in P} x_j - sum_{j not in P} x_j <= |P| - 1``.  With
        REPEAT > 1 the general form uses two direction binaries per
        candidate — ``up_j = 1`` forces ``x_j >= target_j + 1`` and
        ``down_j = 1`` forces ``x_j <= target_j - 1`` — and requires at
        least one of them to fire, so some multiplicity must actually
        change.
        """
        repeat = self.query.repeat
        target = self.multiplicities(package)
        if repeat == 1:
            inside = target > 0
            self.model.add_row(
                self.x_vars,
                np.where(inside, 1.0, -1.0),
                "<=",
                int(np.count_nonzero(inside)) - 1,
                name="nogood",
            )
            return

        big_m = float(repeat + 1)
        # up_j, down_j interleaved: one block, two rows per candidate.
        deviations = self.model.add_variables(
            2 * len(self.x_vars), 0.0, 1.0, integer=True
        )
        rows = zip(
            self.x_vars.tolist(),
            deviations[0::2].tolist(),
            deviations[1::2].tolist(),
            target.tolist(),
        )
        for variable, up, down, wanted in rows:
            # up = 1  ->  x_j >= target + 1
            self.model.add_row(
                [variable, up], [1.0, -big_m], ">=", wanted + 1.0 - big_m
            )
            # down = 1  ->  x_j <= target - 1
            self.model.add_row(
                [variable, down], [1.0, big_m], "<=", wanted - 1.0 + big_m
            )
        self.model.add_row(
            deviations, np.ones(len(deviations)), ">=", 1.0, name="nogood"
        )


def _rid_array(rids):
    """``rids`` (any iterable of ints) as an ``intp`` vector."""
    if isinstance(rids, np.ndarray):
        return rids.astype(np.intp, copy=False)
    return np.fromiter(rids, dtype=np.intp)


class _Translator:
    def __init__(
        self,
        query,
        relation,
        candidate_rids,
        epsilon,
        upper_bounds=None,
        forced_ones=None,
    ):
        self._query = query
        self._relation = relation
        self._rids = _rid_array(candidate_rids)
        self._epsilon = epsilon
        self._model = Model(name="paql")
        count = len(self._rids)
        lower = 0.0
        if forced_ones:
            lower = np.isin(self._rids, _rid_array(forced_ones)).astype(np.float64)
        upper = repeat = float(query.repeat)
        if upper_bounds:
            upper = np.fromiter(
                (upper_bounds.get(rid, repeat) for rid in self._rids.tolist()),
                dtype=np.float64,
                count=count,
            )
        # The model is fresh, so x_j has index j and every indicator
        # added later has a larger one: rows come out index-ordered.
        self._x = self._model.add_variables(count, lower, upper, integer=True)
        self._x_upper = self._model.upper[self._x]
        self._columns = {}
        self._support_added = []

    # -- data access -------------------------------------------------------

    def _column(self, argument):
        """``(values, nulls)`` of an aggregate argument per candidate.

        ``values`` is float64 with NULL rows zeroed (``None`` for a
        non-numeric argument, which only COUNT may take); ``nulls``
        marks the NULL rows.  Pulled from the relation's cached column
        arrays when the argument compiles
        (:mod:`repro.core.vectorize`); row-evaluated otherwise.
        """
        if argument not in self._columns:
            self._columns[argument] = self._vectorized_column(
                argument
            ) or self._interpreted_column(argument)
        return self._columns[argument]

    def _vectorized_column(self, argument):
        from repro.core.vectorize import UnsupportedExpression, evaluator_for

        if len(self._rids) == 0:
            return None
        try:
            values, nulls = evaluator_for(self._relation).scalar_arrays(
                argument, self._rids
            )
        except UnsupportedExpression:
            return None
        if values.dtype.kind not in "fiu":
            return None
        return np.where(nulls, 0.0, values), nulls

    def _interpreted_column(self, argument):
        raw = [
            eval_scalar(argument, self._relation[rid])
            for rid in self._rids.tolist()
        ]
        nulls = np.fromiter(
            (value is None for value in raw), dtype=bool, count=len(raw)
        )
        try:
            values = np.fromiter(
                (0.0 if value is None else float(value) for value in raw),
                dtype=np.float64,
                count=len(raw),
            )
        except (TypeError, ValueError):
            values = None
        return values, nulls

    # -- linear forms over x ---------------------------------------------------

    def _linear_of_aggregate(self, aggregate):
        """Coefficients of an aggregate as a linear form over x.

        Returns a dense float64 row, one coefficient per candidate
        (callers must not write into it).  AVG/MIN/MAX have no direct
        linear form and are handled at the comparison level.
        """
        if aggregate.is_count_star:
            return np.ones(len(self._rids))
        values, nulls = self._column(aggregate.argument)
        if aggregate.func is ast.AggFunc.COUNT:
            return (~nulls).astype(np.float64)
        if aggregate.func is ast.AggFunc.SUM:
            return values
        raise ILPTranslationError(
            f"{aggregate.func.value} has no direct linear form"
        )

    def _require_nonnull_support(self, argument, indicator):
        """Require at least one selected tuple with non-NULL ``argument``.

        Needed by AVG (and MIN/MAX lower-bound encodings): the
        multiplied-through AVG constraint is vacuous on empty support,
        where the true AVG is NULL and satisfies nothing.

        Deduplicated on the *emitted row* (the set of non-NULL
        variables) rather than the argument AST: ``MIN(e) >= c`` and
        ``MAX(e') <= c`` with differently-spelled but same-support
        arguments used to emit the identical witness constraint twice.
        """
        nonnull = ~self._column(argument)[1]
        for emitted, switch in self._support_added:
            if switch == indicator and np.array_equal(emitted, nonnull):
                return
        self._support_added.append((nonnull, indicator))
        self._emit(nonnull.astype(np.float64), ">=", 1.0, indicator)

    # -- constraint emission -------------------------------------------------------

    def _emit(self, row, sense, rhs, indicator):
        """Add ``row . x <sense> rhs``, big-M-relaxed by ``indicator``.

        The relaxation adds ``M * z`` terms so the constraint is active
        when ``z = 1`` and vacuous when ``z = 0``; M comes from the
        finite variable bounds.
        """
        if indicator is None:
            self._model.add_row(self._x, row, sense, rhs)
            return
        indices = np.append(self._x, indicator)
        if sense in ("<=", "="):
            big_m = max(0.0, self._extreme(row, row > 0) - rhs)
            self._model.add_row(indices, np.append(row, big_m), "<=", rhs + big_m)
        if sense in (">=", "="):
            big_m = max(0.0, rhs - self._extreme(row, row < 0))
            self._model.add_row(indices, np.append(row, -big_m), ">=", rhs - big_m)

    def _extreme(self, row, pulling):
        """Largest (``pulling = row > 0``) or smallest (``row < 0``)
        value ``row . x`` takes over the variable box."""
        return sequential_sum(np.where(pulling, row * self._x_upper, 0.0))

    # -- comparisons --------------------------------------------------------------

    def _encode_comparison(self, node, indicator):
        affine = _affine_of(node.left) - _affine_of(node.right)
        # Pattern dispatch: pure MIN/MAX comparisons get set encodings;
        # an AVG term triggers multiply-through; everything else is a
        # plain linear constraint.
        special = self._match_minmax(affine)
        if special is not None:
            aggregate, coef = special
            self._encode_minmax(aggregate, coef, affine.constant, node.op, indicator)
            return
        if any(term.func is ast.AggFunc.AVG for term in affine.terms):
            self._encode_with_avg(affine, node.op, indicator)
            return
        row, constant = self._linearize(affine)
        self._emit_with_op(row, node.op, -constant, indicator)

    def _match_minmax(self, affine):
        """Detect ``coef * MIN/MAX(e) + const <op> 0`` patterns."""
        single = affine.single_aggregate()
        if single is None:
            if any(
                term.func in (ast.AggFunc.MIN, ast.AggFunc.MAX)
                for term in affine.terms
            ):
                raise ILPTranslationError(
                    "MIN/MAX may only be compared against constants in "
                    "the ILP translation"
                )
            return None
        aggregate, coef = single
        if aggregate.func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
            if coef == 0:
                raise ILPTranslationError("degenerate MIN/MAX comparison")
            return aggregate, coef
        return None

    def _linearize(self, affine):
        """Expand SUM/COUNT terms into one dense coefficient row."""
        row = np.zeros(len(self._rids))
        for aggregate, coef in affine.terms.items():
            row += coef * self._linear_of_aggregate(aggregate)
        return row, affine.constant

    def _emit_with_op(self, row, op, rhs, indicator):
        """Emit ``row . x <op> rhs`` handling strictness exactly or by epsilon."""
        if op is ast.CmpOp.EQ:
            self._emit(row, "=", rhs, indicator)
            return
        if op is ast.CmpOp.LE:
            self._emit(row, "<=", rhs, indicator)
            return
        if op is ast.CmpOp.GE:
            self._emit(row, ">=", rhs, indicator)
            return

        # Every x is an integer variable, so the row's value is
        # integral exactly when all of its coefficients are.
        integral = bool(np.all(row == np.floor(row)))
        if op is ast.CmpOp.LT:
            if integral:
                bound = math.ceil(rhs) - 1 if float(rhs).is_integer() else math.floor(rhs)
                self._emit(row, "<=", float(bound), indicator)
            else:
                self._emit(row, "<=", rhs - self._epsilon, indicator)
            return
        if op is ast.CmpOp.GT:
            if integral:
                bound = math.floor(rhs) + 1 if float(rhs).is_integer() else math.ceil(rhs)
                self._emit(row, ">=", float(bound), indicator)
            else:
                self._emit(row, ">=", rhs + self._epsilon, indicator)
            return
        raise ILPTranslationError(f"unexpected comparison operator {op}")

    def _encode_with_avg(self, affine, op, indicator):
        """Multiply an AVG comparison through by the non-NULL count.

        Only the single-AVG-versus-constant pattern is linear:
        ``coef * AVG(e) + const <op> 0`` becomes
        ``coef * SUM(e) + const * COUNT(e) <op> 0`` (count is
        nonnegative, so the direction is preserved), plus a support
        constraint ``COUNT(e) >= 1``.
        """
        single = affine.single_aggregate()
        if single is None:
            raise ILPTranslationError(
                "AVG may only be combined with constants in a comparison"
            )
        aggregate, coef = single
        argument = aggregate.argument
        values, nulls = self._column(argument)
        row = coef * values + affine.constant * ~nulls
        self._require_nonnull_support(argument, indicator)
        self._emit_with_op(row, op, 0.0, indicator)

    def _encode_minmax(self, aggregate, coef, constant, op, indicator):
        """Set encodings for ``coef * MIN/MAX(e) + constant <op> 0``.

        The which-sets-matter normalization lives in
        :func:`minmax_plan`, shared with the candidate-space reducer
        (:mod:`repro.core.reduction`), which derives its variable
        fixings from the very same ``bad``/``witness`` selections.
        """
        threshold = -constant / coef
        if coef < 0:
            op = op.flip()
        plan = minmax_plan(aggregate.func, op)
        values, nulls = self._column(aggregate.argument)
        if plan.negate:
            values = -values
            threshold = -threshold

        def select(op):
            chosen = ~nulls & PLAN_PREDICATES[op](values, threshold)
            return chosen.astype(np.float64)

        if plan.bad is not None:
            bad = select(plan.bad)
            if bad.any():
                self._emit(bad, "<=", 0.0, indicator)
        if plan.witness is not None:
            self._emit(select(plan.witness), ">=", 1.0, indicator)
        if plan.support:
            self._require_nonnull_support(aggregate.argument, indicator)

    # -- formula tree -----------------------------------------------------------

    def _encode_formula(self, node, indicator=None):
        """Encode ``node``; ``indicator`` is the index of the binary
        that switches it on (``None`` at the top level)."""
        if isinstance(node, ast.Literal):
            if node.value:
                return
            # Unsatisfiable branch.
            if indicator is None:
                self._model.add_constraint({}, ">=", 1.0, name="false")
            else:
                self._model.add_constraint({indicator: 1.0}, "<=", 0.0)
            return

        if isinstance(node, ast.And):
            for arg in node.args:
                self._encode_formula(arg, indicator)
            return

        if isinstance(node, ast.Or):
            branch_vars = []
            for position, arg in enumerate(node.args):
                z = self._model.add_binary(name=f"or_{id(node)}_{position}").index
                branch_vars.append(z)
                self._encode_formula(arg, indicator=z)
            coeffs = {z: 1.0 for z in branch_vars}
            if indicator is None:
                self._model.add_constraint(coeffs, ">=", 1.0)
            else:
                coeffs[indicator] = -1.0
                self._model.add_constraint(coeffs, ">=", 0.0)
            return

        if isinstance(node, ast.Comparison):
            self._encode_comparison(node, indicator)
            return

        raise ILPTranslationError(
            f"cannot encode node {type(node).__name__}"
        )  # pragma: no cover - normalization leaves only the above

    # -- objective -----------------------------------------------------------

    def _encode_objective(self):
        objective = self._query.objective
        if objective is None:
            self._model.set_objective({}, ObjectiveSense.MINIMIZE)
            return
        affine = _affine_of(objective.expr)
        for aggregate in affine.terms:
            if aggregate.func in (ast.AggFunc.AVG, ast.AggFunc.MIN, ast.AggFunc.MAX):
                raise ILPTranslationError(
                    f"{aggregate.func.value} objectives have no linear "
                    "encoding; use a search strategy"
                )
        row, constant = self._linearize(affine)
        sense = (
            ObjectiveSense.MAXIMIZE
            if objective.direction is ast.Direction.MAXIMIZE
            else ObjectiveSense.MINIMIZE
        )
        self._model.set_objective_row(self._x, row, sense, constant=constant)

    # -- driver -----------------------------------------------------------------

    def translate(self):
        if self._query.such_that is not None:
            try:
                normalized = normalize_formula(self._query.such_that)
            except PaQLUnsupportedError as exc:
                raise ILPTranslationError(str(exc)) from exc
            self._encode_formula(normalized)
        self._encode_objective()
        return ILPTranslation(
            self._query, self._relation, self._rids, self._model, self._x
        )


def translate(
    query,
    relation,
    candidate_rids,
    epsilon=DEFAULT_EPSILON,
    upper_bounds=None,
    forced_ones=None,
):
    """Translate an analyzed package query into an ILP.

    Args:
        query: analyzed :class:`~repro.paql.ast.PackageQuery`.
        relation: the base relation.
        candidate_rids: rids that satisfy the base constraints.
        epsilon: strictness slack for non-integral strict comparisons.
        upper_bounds: optional per-rid multiplicity caps overriding
            ``REPEAT`` (``dict rid -> int``).  The ``partition``
            strategy's sketch uses this to let one representative
            variable stand in for its whole partition; the resulting
            model is *not* a faithful encoding of the query, so its
            solutions must be refined before validation.
        forced_ones: rids the candidate-space reducer proved present
            in every valid package (:mod:`repro.core.reduction`);
            their variables get lower bound 1, which presolve turns
            into outright eliminations when ``REPEAT`` is 1.  Sound
            facts only tighten the model — they never cut a feasible
            solution.

    Returns:
        :class:`ILPTranslation`.

    Raises:
        ILPTranslationError: when no linear encoding exists (the
            evaluator falls back to search strategies).
    """
    return _Translator(
        query, relation, candidate_rids, epsilon, upper_bounds, forced_ones
    ).translate()
