"""Multiple and diverse package results (Section 5 of the paper).

The paper lists two solver limitations it plans to address: solvers
"are typically limited to returning a single package solution at a
time, and retrieving more packages requires modifying and re-evaluating
the query", and result spaces can be so large that users need "the most
diverse and potentially interesting packages".  This module implements
both:

* :func:`enumerate_top` — repeated solving with *no-good cuts*: after
  each solution the ILP is extended with a constraint excluding exactly
  that package, so the next solve returns the next-best distinct one.
  This yields packages in objective order (ties broken arbitrarily).
* :func:`diverse_subset` — greedy max-min selection over a pool of
  packages using multiset Jaccard distance, the standard 2-approximate
  dispersion heuristic.
"""

from __future__ import annotations

from repro.core.brute_force import iter_valid_packages
from repro.core.strategies.base import solve_model
from repro.core.translate_ilp import ILPTranslationError, translate
from repro.core.validator import compare_objectives, objective_value
from repro.solver.branch_and_bound import BranchAndBoundOptions


def enumerate_top(
    query,
    relation,
    candidate_rids,
    limit,
    backend="builtin",
    node_limit=200000,
):
    """Return up to ``limit`` distinct valid packages, best first.

    Uses the ILP translation plus no-good cuts.  Falls back to pruned
    brute-force enumeration (then objective-sorting) when the query has
    no linear encoding.

    Args:
        query: analyzed query.
        candidate_rids: rids satisfying the base constraints.
        limit: maximum number of packages.
        backend: ``builtin`` | ``scipy`` | ``auto``.

    Returns:
        List of :class:`~repro.core.package.Package`, length <= limit.
    """
    if limit <= 0:
        return []
    try:
        translation = translate(query, relation, candidate_rids)
    except ILPTranslationError:
        return _enumerate_by_search(query, relation, candidate_rids, limit)

    bb_options = BranchAndBoundOptions(node_limit=node_limit)
    packages = []
    for _ in range(limit):
        package = solve_model(translation, backend, bb_options).package
        if package is None:
            break
        packages.append(package)
        translation.exclude_package(package)
    return packages


def _enumerate_by_search(query, relation, candidate_rids, limit):
    """Brute-force fallback: collect valid packages, sort by objective."""
    pool = []
    for package in iter_valid_packages(query, relation, candidate_rids):
        pool.append(package)
        # Keep a generous pool so sorting by objective is meaningful,
        # but stay bounded on adversarial inputs.
        if len(pool) >= max(limit * 50, 1000):
            break
    if query.objective is not None:
        pool.sort(
            key=lambda package: _sort_key(query, package),
        )
    return pool[:limit]


def _sort_key(query, package):
    value = objective_value(package, query)
    if value is None:
        return float("inf")
    from repro.paql import ast

    if query.objective.direction is ast.Direction.MAXIMIZE:
        return -value
    return value


def diverse_subset(packages, count, anchor=None):
    """Greedy max-min diverse selection of ``count`` packages.

    Starts from ``anchor`` (default: the first package, which for
    pools from :func:`enumerate_top` is the objective-best one) and
    repeatedly adds the package maximizing the minimum Jaccard
    distance to the already-selected set.

    Returns:
        List of packages, length ``min(count, len(packages))``.
    """
    pool = list(packages)
    if not pool or count <= 0:
        return []
    selected = [anchor if anchor is not None else pool[0]]
    remaining = [package for package in pool if package != selected[0]]

    while len(selected) < count and remaining:
        best_index = 0
        best_distance = -1.0
        for index, candidate in enumerate(remaining):
            distance = min(
                candidate.jaccard_distance(chosen) for chosen in selected
            )
            if distance > best_distance:
                best_distance = distance
                best_index = index
        selected.append(remaining.pop(best_index))
    return selected


def enumerate_diverse(
    query,
    relation,
    candidate_rids,
    count,
    pool_factor=5,
    backend="builtin",
):
    """Top-``count`` *diverse* packages: enumerate a pool, then disperse.

    Enumerates ``count * pool_factor`` packages by objective and picks
    a diverse subset — the paper's "most diverse and potentially
    interesting packages" presented to the user.
    """
    pool = enumerate_top(
        query, relation, candidate_rids, count * pool_factor, backend=backend
    )
    return diverse_subset(pool, count)
