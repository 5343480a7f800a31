"""Branch-and-bound MILP solver on top of the bounded dual simplex.

This is the "state-of-the-art constraint optimization solver" role from
the paper, built from scratch: best-bound search over LP relaxations,
branching on the most fractional integer variable.  Because the simplex
handles variable bounds natively, a branch costs no extra rows — each
node only tightens one bound.

One :class:`~repro.solver.simplex.LPWorkspace` serves the whole search.
The root LP is solved by the dual simplex from the slack basis; every
child re-solves by the same dual simplex from its parent's optimal
basis, which the bound change leaves dual feasible, so a child costs a
few pivots rather than a solve from scratch.  Once an incumbent exists,
each popped node also fixes integer variables by reduced cost: a
nonbasic variable whose reduced cost times its step exceeds the gap to
the incumbent is bounded to the steps that gap allows, which discards
exactly the subtrees bound pruning would discard.

The search supports a node limit, and reports FEASIBLE (incumbent
without proof) or LIMIT when stopped early.

Unbounded-cardinality knapsack-shaped models — ``MAXIMIZE SUM(gain)
SUCH THAT SUM(cost) <= C`` with 0/1 multiplicities and no other
constraints — get a dedicated fast path (:func:`_solve_knapsack`):
depth-first search in gain/cost ratio order whose first descent *is*
the greedy-rounding incumbent and whose per-node dual bound is the
Dantzig LP optimum read off prefix sums in O(log n), no simplex at
all.  The generic search thrashed on these (50s+ at 20k candidates:
every node pays a dense 20k-variable LP); the fast path solves 100k
candidates in well under a second.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.solver.model import ConstraintSense, ObjectiveSense, Solution
from repro.solver.simplex import TOL, LPWorkspace
from repro.solver.status import Status

#: A value is integral if within this distance of an integer.
INT_TOL = 1e-6

#: Bound-pruning slack of both searches: a node whose bound is not
#: better than the incumbent by more than this is pruned.
_PRUNE_SLACK = 1e-9

#: Relative slack of the knapsack fast path's capacity check, a few
#: ulps: a weight sum that equals the capacity in decimals may round an
#: ulp or two above it and still fits.  For capacities below about 1e9
#: it stays under the translator's strict-comparison epsilon
#: (``SUM(x) < C`` arrives as ``<= C - 1e-6``), so a sum equal to a
#: strict cap does not fit.
_CAPACITY_ULPS = 4 * np.finfo(np.float64).eps


class BranchAndBoundOptions:
    """Tuning knobs for :func:`solve_milp`.

    Attributes:
        node_limit: maximum number of LP relaxations to solve.
        presolve: tighten variable bounds from constraint activities
            before solving, then substitute fixed (zero-width)
            variables out of the arrays entirely
            (see :mod:`repro.solver.presolve`).
        rounding: try rounding the root LP solution into an early
            incumbent, which enables pruning from node one.
        initial_solution: optional full-length variable-value array to
            seed as the incumbent (a *primal warm start*) — typically
            the greedy/local-search package the engine already built.
            Checked against the model before use (an infeasible or
            stale vector is silently dropped), so warm starts can only
            tighten pruning, never change the answer.
    """

    def __init__(
        self,
        node_limit=200000,
        presolve=True,
        rounding=True,
        initial_solution=None,
    ):
        self.node_limit = node_limit
        self.presolve = presolve
        self.rounding = rounding
        self.initial_solution = initial_solution


def _most_fractional(x, integer_indices):
    """Index of the integer variable farthest from integrality, or None.

    Ties go to the first (lowest-index) variable.
    """
    if len(integer_indices) == 0:
        return None
    values = x[integer_indices]
    fractions = np.abs(values - np.rint(values))
    worst = int(np.argmax(fractions))
    if fractions[worst] > INT_TOL:
        return int(integer_indices[worst])
    return None


def _round_integral(x, integer_indices):
    """Snap near-integer values exactly (cleans up LP drift)."""
    cleaned = np.array(x, dtype=np.float64)
    cleaned[integer_indices] = np.rint(cleaned[integer_indices])
    return cleaned


def _solve_knapsack(model, c, A, senses, b, lower, upper, options):
    """Exact 0/1-knapsack fast path; ``None`` when the shape mismatches.

    Applies to models with exactly one ``<=`` constraint with
    nonnegative coefficients, all-binary variables, and a maximize
    objective with nonnegative gains (``c <= 0`` in the minimize
    orientation) — the translation of an unbounded-cardinality
    ``SUM(cost) <= C MAXIMIZE SUM(gain)`` package query.

    Depth-first branch and bound in gain/cost ratio order: the first
    descent takes greedily while capacity lasts (the greedy-rounding
    incumbent), and each node's dual bound is the Dantzig LP optimum of
    its remaining subproblem, computed from prefix sums with one binary
    search instead of a simplex solve.

    A package fits when its weight sum is at most the capacity plus a
    few ulps (:data:`_CAPACITY_ULPS`).  The sum is a compensated running
    sum of the taken weights in ratio order, so it stays within an ulp
    of the exact sum however many items are taken, and a backtrack
    restores the sum saved before the take instead of subtracting.
    """
    n = len(c)
    if n == 0 or len(senses) != 1 or senses[0] is not ConstraintSense.LE:
        return None
    if not model.is_integer.all():
        return None
    if np.any(lower != 0.0) or np.any(upper != 1.0):
        return None
    weights = A[0]
    capacity = float(b[0])
    gains = -c  # minimize orientation; gains >= 0 means MAXIMIZE
    if capacity < 0 or np.any(weights < 0) or np.any(gains < 0):
        return None
    limit = capacity + _CAPACITY_ULPS * max(1.0, capacity)

    x = np.zeros(n)
    base_value = 0.0
    # Zero-cost gains are free: take them outright.  Zero-gain items
    # can never improve the objective: leave them out.
    free = (weights <= 0.0) & (gains > 0.0)
    x[free] = 1.0
    base_value += float(gains[free].sum())
    live = np.flatnonzero((gains > 0.0) & (weights > 0.0) & (weights <= limit))

    order = live[np.argsort(-(gains[live] / weights[live]), kind="stable")]
    item_weights = weights[order]
    item_gains = gains[order]
    m = len(order)
    prefix_weight = np.concatenate([[0.0], np.cumsum(item_weights)])
    prefix_gain = np.concatenate([[0.0], np.cumsum(item_gains)])

    def dual_bound(k, cap_left, value):
        """Dantzig LP optimum of the subproblem over items k..m-1."""
        full = (
            int(np.searchsorted(prefix_weight, prefix_weight[k] + cap_left, "right"))
            - 1
        )
        bound = value + prefix_gain[full] - prefix_gain[k]
        if full < m:
            room = cap_left - (prefix_weight[full] - prefix_weight[k])
            bound += item_gains[full] * room / item_weights[full]
        return bound

    weight_list = item_weights.tolist()
    taken = np.zeros(m, dtype=bool)
    # Stack of (position, weight sum, its rounding error, value) before
    # each take, for O(1) backtracking that restores the sums exactly.
    takes = []
    best_value = -math.inf
    best_taken = None
    j = 0
    used = 0.0
    drift = 0.0  # accumulated rounding error of ``used``
    value = 0.0
    nodes = 0  # branch points (backtrack flips), comparable across solvers
    steps = 0
    # One forward step costs O(log m) — roughly three orders of
    # magnitude less than the dense-simplex node the generic search
    # budgets for — and a single descent alone scans up to m items, so
    # the shared node_limit must not meter steps 1:1 (it would exhaust
    # on the first descents at large n, silently degrading OPTIMAL to
    # FEASIBLE).  Scale it, and never below one full descent.
    step_limit = max(options.node_limit * 16, 4 * m)
    limited = False

    while True:
        # Forward: descend greedily until pruned or at a leaf.
        pruned = False
        while j < m:
            if steps >= step_limit or nodes >= options.node_limit:
                limited = True
                break
            steps += 1
            if dual_bound(j, limit - used - drift, value) <= best_value + _PRUNE_SLACK:
                pruned = True
                break
            weight = weight_list[j]
            total = used + weight
            # TwoSum: the exact rounding error of ``used + weight``.
            back = total - used
            error = (used - (total - back)) + (weight - back)
            if total + (drift + error) <= limit:
                taken[j] = True
                takes.append((j, used, drift, value))
                used = total
                drift += error
                value += item_gains[j]
            j += 1
        if limited:
            break
        if not pruned and value > best_value:
            best_value = value
            best_taken = taken.copy()
        # Backtrack: flip the deepest take to a skip, re-bound, repeat.
        while True:
            if not takes:
                break
            if nodes >= options.node_limit:
                limited = True
                break
            i, used, drift, value = takes.pop()
            taken[i] = False
            j = i + 1
            nodes += 1
            if dual_bound(j, limit - used - drift, value) > best_value + _PRUNE_SLACK:
                break  # the skip branch is still promising
        if limited:
            break
        if not takes and (
            j > m
            or dual_bound(j, limit - used - drift, value)
            <= best_value + _PRUNE_SLACK
        ):
            break

    if best_taken is None:
        # Even the greedy descent never completed (tiny node limits).
        best_value = 0.0
        best_taken = np.zeros(m, dtype=bool)
    x[order[best_taken]] = 1.0
    status = Status.FEASIBLE if limited else Status.OPTIMAL
    return Solution(
        status,
        x=x,
        objective=model.objective_value(x),
        iterations=0,
        nodes=nodes,
    )


def solve_milp(model, options=None):
    """Solve ``model`` exactly by branch and bound.

    Returns:
        :class:`repro.solver.model.Solution`.  ``status`` is OPTIMAL /
        INFEASIBLE / UNBOUNDED for completed searches; FEASIBLE when a
        node limit stopped the search with an incumbent in hand; LIMIT
        when it stopped with none.
    """
    options = options or BranchAndBoundOptions()
    c, A, senses, b, lower, upper = model.lp_arrays()
    integer_indices = model.integer_indices()

    knapsack = _solve_knapsack(model, c, A, senses, b, lower, upper, options)
    if knapsack is not None:
        return knapsack

    total_iterations = 0
    nodes = 0

    elimination = None
    if options.presolve:
        from repro.solver.presolve import eliminate_fixed, tighten_bounds

        presolved = tighten_bounds(model)
        if presolved.infeasible:
            return Solution(Status.INFEASIBLE, nodes=0)
        lower = presolved.lower
        upper = presolved.upper

        # Zero-width variables (MIN/MAX bad sets, reducer-forced tuples
        # under REPEAT 1) are substituted out of the arrays once, so
        # neither the simplex nor the activity rounds carry them.
        elimination = eliminate_fixed(
            c, A, senses, b, lower, upper, integer_indices
        )
        if elimination is not None:
            if elimination.infeasible:
                return Solution(Status.INFEASIBLE, nodes=0)
            c, A, senses, b = (
                elimination.c,
                elimination.A,
                elimination.senses,
                elimination.b,
            )
            lower, upper = elimination.lower, elimination.upper
            integer_indices = elimination.integer_indices

    def restore(x):
        return elimination.restore(x) if elimination is not None else x

    workspace = LPWorkspace(c, A, senses, b)
    root = workspace.solve(lower, upper)
    total_iterations += root.iterations
    nodes += 1
    if root.status is Status.INFEASIBLE:
        return Solution(Status.INFEASIBLE, iterations=total_iterations, nodes=nodes)
    if root.status is Status.UNBOUNDED:
        # The LP relaxation being unbounded does not always mean the
        # MILP is (it could be infeasible), but for the bounded models
        # package queries generate this cannot occur; report honestly.
        return Solution(Status.UNBOUNDED, iterations=total_iterations, nodes=nodes)

    if len(integer_indices) == 0:
        full = restore(root.x)
        return Solution(
            Status.OPTIMAL,
            x=full,
            objective=model.objective_value(full),
            iterations=total_iterations,
            nodes=nodes,
        )

    incumbent_x = None
    incumbent_value = math.inf  # in minimize orientation
    tie_breaker = itertools.count()

    if options.initial_solution is not None:
        # Primal warm start: adopt the caller's incumbent when it
        # checks out against the model (and against presolve's
        # fixings), so best-bound search prunes from node one.
        warm = np.asarray(options.initial_solution, dtype=np.float64)
        if len(warm) == model.num_variables and model.is_feasible(warm):
            projected = (
                elimination.project(warm) if elimination is not None else warm
            )
            if projected is not None:
                incumbent_x = projected
                incumbent_value = float(c @ projected)

    if options.rounding:
        for rounder in (np.rint, np.floor, np.ceil):
            candidate = np.array(root.x, dtype=np.float64)
            candidate[integer_indices] = rounder(candidate[integer_indices])
            candidate = np.clip(candidate, lower, upper)
            if model.is_feasible(restore(candidate)):
                value = float(c @ candidate)
                if value < incumbent_value:
                    incumbent_x = candidate
                    incumbent_value = value

    # Heap of (lp_bound, tiebreak, lower, upper, lp_result); best-bound first.
    heap = []

    def push(bound, lo, hi, lp_result):
        heapq.heappush(heap, (bound, next(tie_breaker), lo, hi, lp_result))

    push(root.objective, lower, upper, root)
    limited = False

    while heap:
        bound, _, node_lower, node_upper, lp_result = heapq.heappop(heap)

        if incumbent_x is not None:
            if bound >= incumbent_value - _PRUNE_SLACK:
                continue  # pruned by bound
            node_lower, node_upper = _fix_by_reduced_costs(
                lp_result,
                node_lower,
                node_upper,
                integer_indices,
                incumbent_value - _PRUNE_SLACK - bound,
            )

        branch_var = _most_fractional(lp_result.x, integer_indices)
        if branch_var is None:
            value = float(lp_result.objective)
            if value < incumbent_value - 1e-12:
                incumbent_value = value
                incumbent_x = _round_integral(lp_result.x, integer_indices)
            continue

        if nodes >= options.node_limit:
            limited = True
            break

        fractional_value = float(lp_result.x[branch_var])
        for direction in ("down", "up"):
            child_lower = node_lower
            child_upper = node_upper
            if direction == "down":
                child_upper = node_upper.copy()
                child_upper[branch_var] = math.floor(fractional_value)
            else:
                child_lower = node_lower.copy()
                child_lower[branch_var] = math.ceil(fractional_value)
            if child_lower[branch_var] > child_upper[branch_var]:
                continue
            child = workspace.resolve(child_lower, child_upper, lp_result)
            total_iterations += child.iterations
            nodes += 1
            if child.status is not Status.OPTIMAL:
                continue  # infeasible child is pruned
            if (
                incumbent_x is not None
                and child.objective >= incumbent_value - _PRUNE_SLACK
            ):
                continue
            push(child.objective, child_lower, child_upper, child)

    # A node-limit break that happened to empty the heap is still a
    # truncated search: the popped node's children were never pushed,
    # so an empty heap alone is not an exhaustion proof.
    exhausted = not heap and not limited
    if incumbent_x is None:
        status = Status.INFEASIBLE if exhausted else Status.LIMIT
        return Solution(status, iterations=total_iterations, nodes=nodes)

    status = Status.OPTIMAL if exhausted else Status.FEASIBLE
    full = restore(incumbent_x)
    objective = model.objective_value(full)
    return Solution(
        status,
        x=full,
        objective=objective,
        iterations=total_iterations,
        nodes=nodes,
    )


def _fix_by_reduced_costs(lp_result, lower, upper, integer_indices, gap):
    """Tighten integer bounds that no improving solution can use.

    Moving a nonbasic variable ``k`` steps off its bound raises the LP
    bound by at least ``k * |d_j|``; past ``floor(gap / |d_j|)`` steps
    the node's bound would reach the incumbent and be pruned.  Returns
    ``(lower, upper)``, copied only when something tightened.
    """
    j = np.asarray(integer_indices)
    d = lp_result.reduced_costs[j]
    nonbasic = np.ones(len(lp_result.at_upper), dtype=bool)
    nonbasic[lp_result.basis] = False
    nonbasic = nonbasic[j]
    at_upper = lp_result.at_upper[j]
    with np.errstate(divide="ignore"):
        steps = np.floor(gap / np.abs(d))
    down = nonbasic & ~at_upper & (d > TOL) & (lower[j] + steps < upper[j])
    up = nonbasic & at_upper & (d < -TOL) & (upper[j] - steps > lower[j])
    if down.any():
        upper = upper.copy()
        upper[j[down]] = lower[j[down]] + steps[down]
    if up.any():
        lower = lower.copy()
        lower[j[up]] = upper[j[up]] - steps[up]
    return lower, upper

