"""Heuristic local search over packages (Section 4.2 of the paper).

Two faithful variants:

* **In-memory search** (:class:`LocalSearch`): start from a seed
  package, repair constraint violations by steepest-descent over
  single-tuple replacements (plus add/remove moves that walk the
  pruned cardinality window), escalate to sampled k-tuple replacements
  when single swaps stall, restart on dead ends; then hill-climb the
  objective while staying valid.  As the paper notes, this is a
  heuristic: it can fail on queries that do have answers.

* **SQL replacement queries** (:func:`build_swap_sql`,
  :func:`sql_k_swap`): the paper's formulation — "identify all possible
  k-tuple replacements that can lead to a valid package, by using a
  single SQL query" over the Cartesian product of the current package
  and the base relation.  For ``k`` replacements this becomes a 2k-way
  join, which "quickly becomes intractable" — benchmark E3 measures
  exactly that growth.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from repro.paql import ast
from repro.paql.errors import PaQLUnsupportedError
from repro.paql.eval import EvaluationError, eval_expr
from repro.paql.to_sql import sql_constant, to_sql
from repro.core.formula import conjunctive_leaves, normalize_formula
from repro.core.greedy import greedy_seed, random_seed
from repro.core.package import Package
from repro.core.pruning import derive_bounds
from repro.core.validator import compare_objectives, is_valid, objective_value
from repro.core.vectorize import CandidateColumns, UnsupportedExpression

# ---------------------------------------------------------------------------
# Violation measure (search guidance)
# ---------------------------------------------------------------------------


def violation(package, query, normalized=None):
    """Degree of global-constraint violation of ``package``.

    0.0 exactly when the package satisfies SUCH THAT.  Comparisons
    contribute their relative residual; conjunctions add up,
    disjunctions take their best branch; NULL-valued aggregates (e.g.
    AVG of an empty package) count as a unit violation.
    """
    if query.such_that is None:
        return 0.0
    if normalized is None:
        normalized = normalize_formula(query.such_that)
    return _violation_of(normalized, package)


def _violation_of(node, package):
    if isinstance(node, ast.Literal):
        return 0.0 if node.value else 1.0
    if isinstance(node, ast.And):
        return sum(_violation_of(arg, package) for arg in node.args)
    if isinstance(node, ast.Or):
        return min(_violation_of(arg, package) for arg in node.args)
    if isinstance(node, ast.Comparison):
        left = eval_expr(node.left, None, package.aggregate)
        right = eval_expr(node.right, None, package.aggregate)
        if left is None or right is None:
            return 1.0
        scale = 1.0 + abs(float(right))
        gap = float(left) - float(right)
        if node.op is ast.CmpOp.LE:
            return max(0.0, gap) / scale
        if node.op is ast.CmpOp.LT:
            return max(0.0, gap) / scale if gap >= 0 else 0.0
        if node.op is ast.CmpOp.GE:
            return max(0.0, -gap) / scale
        if node.op is ast.CmpOp.GT:
            return max(0.0, -gap) / scale if gap <= 0 else 0.0
        if node.op is ast.CmpOp.EQ:
            return abs(gap) / scale
        return 0.0 if gap != 0 else 1.0 / scale  # NE
    raise PaQLUnsupportedError(f"cannot score node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Vectorized single-move scoring
# ---------------------------------------------------------------------------


class VectorMoveScorer:
    """Scores every 1-swap / add / remove neighbor with numpy deltas.

    The row path materializes a :class:`~repro.core.package.Package`
    per neighbor and recomputes its aggregates from scratch —
    ``O(package x candidates)`` Python work per search round.  This
    scorer observes that every aggregate the violation measure and the
    objective touch (``COUNT(*)``, ``COUNT(e)``, ``SUM(e)``, and
    ``AVG(e)`` as a sum/count quotient) changes *linearly* under a
    single-tuple move, so one per-candidate contribution vector per
    aggregate prices all neighbors at once:
    ``new = base - contrib[out] + contrib[in]`` broadcast over the
    whole move set.  The vectors are built from ``columns``, the
    candidates' :class:`~repro.core.vectorize.CandidateColumns`.

    Construction raises :class:`UnsupportedExpression` for formulas or
    objectives outside that fragment (MIN/MAX aggregates, non-numeric
    literals), in which case the search keeps the row path.  Moves are
    laid out in exactly the row path's iteration order (replacements,
    then adds, then removes) so first-minimum tie-breaking matches.
    """

    def __init__(self, query, columns, normalized, bounds):
        self._query = query
        self._columns = columns
        self._candidates = columns.rids.tolist()
        self._pos = {rid: i for i, rid in enumerate(self._candidates)}
        self._repeat = query.repeat
        self._bounds = bounds
        self._normalized = normalized
        self._objective = (
            query.objective.expr if query.objective is not None else None
        )
        roots = []
        if normalized is not None:
            self._check_formula(normalized)
            roots.append(normalized)
        if self._objective is not None:
            self._check_value(self._objective)
            roots.append(self._objective)
        self._specs = {}
        for root in roots:
            for aggregate in ast.find_aggregates(root):
                if aggregate not in self._specs:
                    self._specs[aggregate] = self._contribution(aggregate)

    # -- compile-time shape checks ----------------------------------------

    def _check_formula(self, node):
        if isinstance(node, ast.Literal):
            return
        if isinstance(node, (ast.And, ast.Or)):
            for arg in node.args:
                self._check_formula(arg)
            return
        if isinstance(node, ast.Comparison):
            self._check_value(node.left)
            self._check_value(node.right)
            return
        raise UnsupportedExpression(
            f"cannot delta-score formula node {type(node).__name__}"
        )

    def _check_value(self, node):
        if isinstance(node, ast.Literal):
            if node.value is not None and not isinstance(
                node.value, (int, float)
            ):
                raise UnsupportedExpression(
                    f"non-numeric literal {node.value!r} in a scored expression"
                )
            return
        if isinstance(node, ast.Aggregate):
            if node.func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
                raise UnsupportedExpression(
                    f"{node.func.value} does not change linearly under moves"
                )
            return
        if isinstance(node, ast.UnaryMinus):
            self._check_value(node.operand)
            return
        if isinstance(node, ast.BinaryOp):
            self._check_value(node.left)
            self._check_value(node.right)
            return
        raise UnsupportedExpression(
            f"cannot delta-score value node {type(node).__name__}"
        )

    def _contribution(self, aggregate):
        """Per-candidate contribution vectors of one aggregate."""
        if aggregate.is_count_star:
            return ("plain", np.ones(len(self._candidates)))
        values, nulls = self._columns.get(aggregate.argument)
        notnull = (~nulls).astype(np.float64)
        if aggregate.func is ast.AggFunc.COUNT:
            return ("plain", notnull)
        if values.dtype.kind not in "fiu":
            raise UnsupportedExpression(
                f"{aggregate.func.value} over a non-numeric argument"
            )
        summed = np.where(nulls, 0.0, values)
        if aggregate.func is ast.AggFunc.SUM:
            return ("plain", summed)
        return ("avg", summed, notnull)  # AVG = weighted sum / count

    # -- per-package move layout -------------------------------------------

    #: Largest replacement matrix (package rids x incoming candidates)
    #: the scorer will materialize per aggregate; beyond this it hands
    #: the package back to the row path instead of ballooning memory.
    MAX_MOVE_CELLS = 20_000_000

    def _move_state(self, package):
        """Geometry of the neighbor set, or ``None`` off-candidate."""
        if len(package.rids) * len(self._candidates) > self.MAX_MOVE_CELLS:
            return None
        try:
            pkg_pos = np.array(
                [self._pos[rid] for rid in package.rids], dtype=np.intp
            )
        except KeyError:
            return None
        mults = np.array(
            [package.multiplicity(rid) for rid in package.rids],
            dtype=np.float64,
        )
        occupancy = np.zeros(len(self._candidates))
        occupancy[pkg_pos] = mults
        incoming_pos = np.flatnonzero(occupancy < self._repeat)
        cardinality = package.cardinality
        blocks = []
        if len(pkg_pos) and len(incoming_pos):
            blocks.append("replace")
        if len(incoming_pos) and cardinality + 1 <= self._bounds.upper:
            blocks.append("add")
        if len(pkg_pos) and cardinality - 1 >= self._bounds.lower:
            blocks.append("remove")
        return {
            "package": package,
            "pkg_pos": pkg_pos,
            "mults": mults,
            "incoming_pos": incoming_pos,
            "blocks": blocks,
        }

    def _block_values(self, state, block, vector):
        """New primitive value per move in ``block`` for one vector."""
        pkg_pos = state["pkg_pos"]
        incoming_pos = state["incoming_pos"]
        base = float(vector[pkg_pos] @ state["mults"])
        if block == "replace":
            return (
                base
                - vector[pkg_pos][:, None]
                + vector[incoming_pos][None, :]
            )
        if block == "add":
            return base + vector[incoming_pos]
        return base - vector[pkg_pos]

    def _block_aggregates(self, state, block):
        """``aggregate -> (values, nulls)`` arrays for one move block."""
        out = {}
        for aggregate, spec in self._specs.items():
            if spec[0] == "plain":
                values = self._block_values(state, block, spec[1])
                out[aggregate] = (values, np.False_)
            else:
                sums = self._block_values(state, block, spec[1])
                counts = self._block_values(state, block, spec[2])
                empty = counts <= 0.5  # counts are integral floats
                with np.errstate(all="ignore"):
                    values = sums / np.where(empty, 1.0, counts)
                out[aggregate] = (values, empty)
        return out

    def _block_shape(self, state, block):
        if block == "replace":
            return (len(state["pkg_pos"]), len(state["incoming_pos"]))
        if block == "add":
            return (len(state["incoming_pos"]),)
        return (len(state["pkg_pos"]),)

    def _excluded(self, state, block, shape):
        """Mask of skipped moves (replacing a tuple with itself)."""
        if block != "replace":
            return None
        incoming_pos = state["incoming_pos"]
        slot = np.searchsorted(incoming_pos, state["pkg_pos"])
        mask = np.zeros(shape, dtype=bool)
        rows = np.flatnonzero(
            (slot < len(incoming_pos))
            & (incoming_pos[np.minimum(slot, len(incoming_pos) - 1)]
               == state["pkg_pos"])
        )
        mask[rows, slot[rows]] = True
        return mask

    def _decode(self, state, block, flat_index):
        """Apply the move at ``flat_index`` within ``block``."""
        package = state["package"]
        rids = package.rids
        incoming = state["incoming_pos"]
        if block == "replace":
            out_i, in_i = divmod(flat_index, len(incoming))
            return package.replace(
                [rids[out_i]], [self._candidates[incoming[in_i]]]
            )
        if block == "add":
            return package.replace([], [self._candidates[incoming[flat_index]]])
        return package.replace([rids[flat_index]], [])

    # -- expression evaluation over move arrays ----------------------------

    def _value_array(self, node, aggregates):
        if isinstance(node, ast.Literal):
            if node.value is None:
                return np.float64(np.nan), np.True_
            return np.float64(node.value), np.False_
        if isinstance(node, ast.Aggregate):
            return aggregates[node]
        if isinstance(node, ast.UnaryMinus):
            values, nulls = self._value_array(node.operand, aggregates)
            return -values, nulls
        left_v, left_n = self._value_array(node.left, aggregates)
        right_v, right_n = self._value_array(node.right, aggregates)
        nulls = left_n | right_n
        if node.op is ast.BinOp.DIV and np.any(~nulls & (right_v == 0)):
            raise EvaluationError("division by zero")
        with np.errstate(all="ignore"):
            if node.op is ast.BinOp.ADD:
                values = left_v + right_v
            elif node.op is ast.BinOp.SUB:
                values = left_v - right_v
            elif node.op is ast.BinOp.MUL:
                values = left_v * right_v
            else:
                values = left_v / right_v
        return values, nulls

    def _violation_array(self, node, aggregates):
        """Vectorized mirror of :func:`_violation_of`."""
        if isinstance(node, ast.Literal):
            return np.float64(0.0 if node.value else 1.0)
        if isinstance(node, ast.And):
            return sum(
                self._violation_array(arg, aggregates) for arg in node.args
            )
        if isinstance(node, ast.Or):
            return np.minimum.reduce(
                [self._violation_array(arg, aggregates) for arg in node.args]
            )
        left, left_nulls = self._value_array(node.left, aggregates)
        right, right_nulls = self._value_array(node.right, aggregates)
        nulls = left_nulls | right_nulls
        with np.errstate(all="ignore"):
            scale = 1.0 + np.abs(right)
            gap = left - right
            if node.op in (ast.CmpOp.LE, ast.CmpOp.LT):
                residual = np.maximum(0.0, gap) / scale
            elif node.op in (ast.CmpOp.GE, ast.CmpOp.GT):
                residual = np.maximum(0.0, -gap) / scale
            elif node.op is ast.CmpOp.EQ:
                residual = np.abs(gap) / scale
            else:  # NE
                residual = np.where(gap != 0, 0.0, 1.0 / scale)
        return np.where(nulls, 1.0, residual)

    def _violations(self, state, block, aggregates):
        shape = self._block_shape(state, block)
        if self._normalized is None:
            return np.zeros(shape)
        out = self._violation_array(self._normalized, aggregates)
        return np.broadcast_to(out, shape)

    # -- public scoring ----------------------------------------------------

    def best_repair_move(self, package, current):
        """Steepest-descent repair move.

        Returns ``NotImplemented`` when the package strays off the
        candidate set (row fallback), else ``(package, score, moves)``
        with ``package=None`` when no move improves on ``current``.
        """
        state = self._move_state(package)
        if state is None:
            return NotImplemented
        moves = 0
        best_score = current
        best = None
        for block in state["blocks"]:
            aggregates = self._block_aggregates(state, block)
            scores = np.array(self._violations(state, block, aggregates))
            excluded = self._excluded(state, block, scores.shape)
            if excluded is not None:
                scores[excluded] = np.inf
                moves += scores.size - int(excluded.sum())
            else:
                moves += scores.size
            flat = scores.ravel()
            index = int(np.argmin(flat))
            if flat[index] < best_score - 1e-12:
                best_score = float(flat[index])
                best = self._decode(state, block, index)
        return best, best_score if best is not None else current, moves

    def best_improving_move(self, package, current_value):
        """Best valid objective-improving move (hill-climbing step).

        Returns ``NotImplemented`` on row fallback, else
        ``(package, value, moves)`` with ``package=None`` at a local
        optimum.
        """
        state = self._move_state(package)
        if state is None:
            return NotImplemented
        maximize = self._query.objective.direction is ast.Direction.MAXIMIZE
        worst = -np.inf if maximize else np.inf
        moves = 0
        best = None
        best_value = current_value
        for block in state["blocks"]:
            aggregates = self._block_aggregates(state, block)
            shape = self._block_shape(state, block)
            violations = self._violations(state, block, aggregates)
            valid = violations == 0.0
            excluded = self._excluded(state, block, shape)
            if excluded is not None:
                valid &= ~excluded
                moves += violations.size - int(excluded.sum())
            else:
                moves += violations.size
            chosen = np.flatnonzero(valid.ravel())
            if not len(chosen):
                continue
            # Evaluate the objective over the *valid* neighbors only —
            # the row path never computes objectives for violating
            # packages, so e.g. a zero-divisor objective on an invalid
            # neighbor must not raise here either.
            subset = {
                aggregate: (
                    np.broadcast_to(vals, shape).ravel()[chosen],
                    np.broadcast_to(nulls, shape).ravel()[chosen],
                )
                for aggregate, (vals, nulls) in aggregates.items()
            }
            values, nulls = self._value_array(self._objective, subset)
            values = np.array(
                np.broadcast_to(values, chosen.shape), dtype=np.float64
            )
            eligible = ~np.broadcast_to(nulls, chosen.shape) & ~np.isnan(values)
            if not eligible.any():
                continue
            values[~eligible] = worst
            pick = int(np.argmax(values) if maximize else np.argmin(values))
            value = float(values[pick])
            if not np.isfinite(value) or not eligible[pick]:
                continue
            if best_value is None or (
                value > best_value if maximize else value < best_value
            ):
                best_value = value
                best = self._decode(state, block, int(chosen[pick]))
        return best, best_value, moves


# ---------------------------------------------------------------------------
# In-memory local search
# ---------------------------------------------------------------------------


@dataclass
class LocalSearchOptions:
    """Tuning knobs for :class:`LocalSearch`.

    Attributes:
        max_rounds: total move rounds across repair and improvement.
        k_max: largest replacement size tried when 1-swaps stall
            (the paper's k; cost grows combinatorially with it).
        seed: ``"greedy"`` or ``"random"`` starting package.
        improve: run the objective hill-climbing phase after a valid
            package is found.
        restarts: random restarts after a dead end.
        rng_seed: seed for all stochastic choices (reproducibility).
        pair_sample: maximum candidate k-replacements sampled per
            stalled round.
    """

    max_rounds: int = 500
    k_max: int = 2
    seed: str = "greedy"
    improve: bool = True
    restarts: int = 3
    rng_seed: int = 0
    pair_sample: int = 2000


@dataclass
class LocalSearchResult:
    """Outcome of a local-search run."""

    package: Package | None
    valid: bool
    rounds: int = 0
    moves_evaluated: int = 0
    restarts_used: int = 0

    @property
    def objective(self):
        return self._objective

    _objective: float | None = field(default=None, repr=False)


class LocalSearch:
    """Heuristic search for a valid (and locally optimal) package.

    ``columns`` is the candidates'
    :class:`~repro.core.vectorize.CandidateColumns` (built here when
    none is passed); the bounds, the seed and the move scorer read
    their aggregate arguments from it.
    """

    def __init__(self, query, relation, candidate_rids, options=None, columns=None):
        self._query = query
        self._relation = relation
        self._candidates = list(candidate_rids)
        self._options = options or LocalSearchOptions()
        if columns is None:
            columns = CandidateColumns(relation, self._candidates)
        self._columns = columns
        self._bounds = derive_bounds(
            query, relation, self._candidates, columns=columns
        )
        self._normalized = (
            normalize_formula(query.such_that)
            if query.such_that is not None
            else None
        )
        self._rng = random.Random(self._options.rng_seed)
        self._rounds = 0
        self._moves = 0
        try:
            self._scorer = VectorMoveScorer(
                query, columns, self._normalized, self._bounds
            )
        except UnsupportedExpression:
            self._scorer = None  # row-path scoring fallback

    # -- public ------------------------------------------------------------

    def run(self):
        """Search for a valid package; hill-climb the objective if asked."""
        options = self._options
        if self._bounds.empty:
            return LocalSearchResult(None, False)

        restarts_used = 0
        package = self._initial_seed()
        while True:
            package = self._repair(package)
            if package is not None:
                break
            if restarts_used >= options.restarts:
                return LocalSearchResult(
                    None,
                    False,
                    rounds=self._rounds,
                    moves_evaluated=self._moves,
                    restarts_used=restarts_used,
                )
            restarts_used += 1
            package = random_seed(
                self._query,
                self._relation,
                self._candidates,
                self._bounds,
                rng=self._rng,
            )

        if options.improve and self._query.objective is not None:
            package = self._improve(package)

        result = LocalSearchResult(
            package,
            True,
            rounds=self._rounds,
            moves_evaluated=self._moves,
            restarts_used=restarts_used,
        )
        result._objective = objective_value(package, self._query)
        return result

    # -- seeding -------------------------------------------------------------

    def _initial_seed(self):
        maker = greedy_seed if self._options.seed == "greedy" else random_seed
        return maker(
            self._query,
            self._relation,
            self._candidates,
            self._bounds,
            rng=self._rng,
            columns=self._columns,
        )

    # -- repair phase ----------------------------------------------------------

    def _score(self, package):
        return violation(package, self._query, self._normalized)

    def _repair(self, package):
        """Drive the violation to 0, or return None on a dead end."""
        if package is None:
            return None
        current = self._score(package)
        while self._rounds < self._options.max_rounds:
            if current == 0.0:
                return package
            self._rounds += 1
            best_move, best_score = self._best_single_move(package, current)
            if best_move is None and self._options.k_max >= 2:
                best_move, best_score = self._sampled_k_move(package, current)
            if best_move is None:
                return None
            package = best_move
            current = best_score
        return package if current == 0.0 else None

    def _single_moves(self, package):
        """Yield all 1-swap / add / remove neighbors of ``package``."""
        cardinality = package.cardinality
        at_cap = {
            rid
            for rid in self._candidates
            if package.multiplicity(rid) >= self._query.repeat
        }
        incoming = [rid for rid in self._candidates if rid not in at_cap]

        for out_rid in package.rids:
            for in_rid in incoming:
                if in_rid == out_rid:
                    continue
                yield package.replace([out_rid], [in_rid])
        if cardinality + 1 <= self._bounds.upper:
            for in_rid in incoming:
                yield package.replace([], [in_rid])
        if cardinality - 1 >= self._bounds.lower:
            for out_rid in package.rids:
                yield package.replace([out_rid], [])

    def _best_single_move(self, package, current):
        """Steepest-descent choice among single moves (strict improvement)."""
        if self._scorer is not None:
            outcome = self._scorer.best_repair_move(package, current)
            if outcome is not NotImplemented:
                best, best_score, moves = outcome
                self._moves += moves
                return best, best_score
        best = None
        best_score = current
        for neighbor in self._single_moves(package):
            self._moves += 1
            score = self._score(neighbor)
            if score < best_score - 1e-12:
                best = neighbor
                best_score = score
        return best, best_score

    def _sampled_k_move(self, package, current):
        """First-improvement over sampled k-replacements, k = 2..k_max."""
        for k in range(2, self._options.k_max + 1):
            outs = list(package.rids)
            if len(outs) < k:
                continue
            at_cap = {
                rid
                for rid in self._candidates
                if package.multiplicity(rid) >= self._query.repeat
            }
            incoming = [rid for rid in self._candidates if rid not in at_cap]
            if len(incoming) < k:
                continue
            budget = self._options.pair_sample
            for _ in range(budget):
                removal = self._rng.sample(outs, k)
                addition = self._rng.sample(incoming, k)
                if set(removal) & set(addition):
                    continue
                self._moves += 1
                neighbor = package.replace(removal, addition)
                score = self._score(neighbor)
                if score < current - 1e-12:
                    return neighbor, score
        return None, current

    # -- improvement phase ---------------------------------------------------------

    def _improve(self, package):
        """Hill-climb the objective with validity-preserving 1-moves."""
        current_value = objective_value(package, self._query)
        while self._rounds < self._options.max_rounds:
            self._rounds += 1
            best, best_value = self._best_improving_move(package, current_value)
            if best is None:
                return package
            package = best
            current_value = best_value
        return package

    def _best_improving_move(self, package, current_value):
        """One hill-climbing step: the best valid strictly-better move."""
        if self._scorer is not None:
            outcome = self._scorer.best_improving_move(package, current_value)
            if outcome is not NotImplemented:
                best, best_value, moves = outcome
                self._moves += moves
                return best, best_value
        best = None
        best_value = current_value
        for neighbor in self._single_moves(package):
            self._moves += 1
            if self._score(neighbor) != 0.0:
                continue
            value = objective_value(neighbor, self._query)
            if compare_objectives(self._query, value, best_value) < 0:
                best = neighbor
                best_value = value
        return best, best_value


def local_search(query, relation, candidate_rids, options=None):
    """One-call convenience wrapper around :class:`LocalSearch`."""
    return LocalSearch(query, relation, candidate_rids, options).run()


# ---------------------------------------------------------------------------
# The paper's SQL replacement query
# ---------------------------------------------------------------------------


class SwapSQLUnsupported(Exception):
    """The query's global constraints have no swap-SQL rendering.

    The SQL formulation covers conjunctions of linear comparisons over
    SUM / COUNT aggregates (the paper's examples).  MIN/MAX/AVG
    constraints, disjunctions and REPEAT > 1 fall back to the
    in-memory search.
    """


def _delta_sql(aggregate, out_aliases, in_aliases, params):
    """SQL for the change of ``aggregate`` under a k-replacement."""
    if aggregate.is_count_star:
        return None  # cardinality is unchanged by a pure replacement
    if aggregate.func is ast.AggFunc.SUM:
        template = "{sign} COALESCE({expr}, 0)"
    elif aggregate.func is ast.AggFunc.COUNT:
        template = "{sign} (CASE WHEN {expr} IS NULL THEN 0 ELSE 1 END)"
    else:
        raise SwapSQLUnsupported(
            f"{aggregate.func.value} constraints have no swap-SQL form"
        )
    pieces = []
    for sign, aliases in (("-", out_aliases), ("+", in_aliases)):
        for alias in aliases:
            expr, values = to_sql(aggregate.argument, alias + ".")
            params.extend(values)
            pieces.append(template.format(sign=sign, expr=expr))
    return " ".join(pieces)


def _comparison_sql(node, package, out_aliases, in_aliases, params):
    """Render one conjunct as SQL over the post-swap aggregate values."""
    from repro.core.translate_ilp import ILPTranslationError, _affine_of

    try:
        affine = _affine_of(node.left) - _affine_of(node.right)
    except ILPTranslationError as exc:
        raise SwapSQLUnsupported(str(exc)) from exc

    terms = [sql_constant(float(affine.constant), params)]
    for aggregate, coef in affine.terms.items():
        if aggregate.func in (ast.AggFunc.AVG, ast.AggFunc.MIN, ast.AggFunc.MAX):
            raise SwapSQLUnsupported(
                f"{aggregate.func.value} constraints have no swap-SQL form"
            )
        current = package.aggregate(aggregate)
        if current is None:
            current = 0.0
        coef_sql = sql_constant(coef, params)
        current_sql = sql_constant(float(current), params)
        delta = _delta_sql(aggregate, out_aliases, in_aliases, params)
        if delta is None:
            terms.append(f"+ ({coef_sql} * {current_sql})")
        else:
            terms.append(f"+ ({coef_sql} * ({current_sql} {delta}))")
    value_sql = " ".join(terms)
    return f"({value_sql}) {node.op.value} 0"


def build_swap_sql(query, relation, package, k, package_table="pkg"):
    """Build the paper's k-replacement SQL (Section 4.2).

    The query joins ``k`` copies of the package table (via the base
    relation, to reach attribute values) with ``k`` copies of the base
    relation, and selects combinations whose replacement yields a valid
    package.  Returns ``(sql, params)``: SQL producing columns
    ``out_rid_1..k, in_rid_1..k`` and the values of its ``?``
    placeholders.

    Raises:
        SwapSQLUnsupported: for constraint shapes outside the
            conjunctive SUM/COUNT fragment, or REPEAT > 1.
    """
    if query.repeat != 1:
        raise SwapSQLUnsupported("swap SQL assumes set semantics (REPEAT 1)")
    if query.such_that is None:
        raise SwapSQLUnsupported("no global constraints to repair")
    normalized = normalize_formula(query.such_that)
    leaves = conjunctive_leaves(normalized)
    for leaf in leaves:
        if not isinstance(leaf, ast.Comparison):
            raise SwapSQLUnsupported(
                "swap SQL covers conjunctions of comparisons only"
            )

    relation_name = relation.name
    out_aliases = [f"OUT{i}" for i in range(1, k + 1)]
    in_aliases = [f"IN{i}" for i in range(1, k + 1)]

    from_parts = []
    where_parts = []
    params = []
    for i, alias in enumerate(out_aliases):
        pkg_alias = f"P{i + 1}"
        from_parts.append(f"{package_table} {pkg_alias}")
        from_parts.append(f"{relation_name} {alias}")
        where_parts.append(f"{alias}.rid = {pkg_alias}.rid")
        if i > 0:
            where_parts.append(f"P{i}.pid < {pkg_alias}.pid")
    for i, alias in enumerate(in_aliases):
        from_parts.append(f"{relation_name} {alias}")
        where_parts.append(
            f"{alias}.rid NOT IN (SELECT rid FROM {package_table})"
        )
        if i > 0:
            where_parts.append(f"{in_aliases[i - 1]}.rid < {alias}.rid")
        if query.where is not None:
            where_sql, values = to_sql(query.where, alias + ".")
            where_parts.append(where_sql)
            params.extend(values)

    for leaf in leaves:
        where_parts.append(
            _comparison_sql(leaf, package, out_aliases, in_aliases, params)
        )

    select_cols = [
        f"{alias}.rid AS out_rid_{i + 1}" for i, alias in enumerate(out_aliases)
    ] + [f"{alias}.rid AS in_rid_{i + 1}" for i, alias in enumerate(in_aliases)]

    sql = (
        f"SELECT {', '.join(select_cols)}\n"
        f"FROM {', '.join(from_parts)}\n"
        f"WHERE {' AND '.join(where_parts)}"
    )
    return sql, tuple(params)


def sql_k_swap(db, query, relation, package, k, limit=None, package_table="pkg"):
    """Run the paper's replacement query; return replacement packages.

    Materializes ``package`` as a temp table, executes the k-way join,
    and applies each returned replacement.

    Returns:
        List of :class:`~repro.core.package.Package`, each differing
        from ``package`` by exactly ``k`` tuples and satisfying the
        (conjunctive) global constraints.
    """
    sql, params = build_swap_sql(query, relation, package, k, package_table)
    if limit is not None:
        sql += f"\nLIMIT {int(limit)}"
    db.create_temp_package_table(package_table, relation.name, list(package.rids))
    try:
        rows = db.execute(sql, params)
    finally:
        db.drop_table(package_table)
    replacements = []
    for row in rows:
        outs = [row[f"out_rid_{i + 1}"] for i in range(k)]
        ins = [row[f"in_rid_{i + 1}"] for i in range(k)]
        replacements.append(package.replace(outs, ins))
    return replacements
