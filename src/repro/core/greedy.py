"""Seed-package construction for the local search.

The paper's local search starts from "a starting package P0 (which can
be constructed, for example, at random)".  Two constructors are
provided and ablated in benchmark E2/E6:

* :func:`random_seed` — uniform sample at a cardinality inside the
  pruned bounds (the paper's suggestion);
* :func:`greedy_seed` — rank candidates by their per-tuple objective
  contribution (when the objective is a linear SUM form) and take the
  top ones, which tends to start the search closer to both feasibility
  and optimality.
"""

from __future__ import annotations

import random

import numpy as np

from repro.paql import ast
from repro.core.package import Package
from repro.core.pruning import derive_bounds
from repro.core.vectorize import CandidateColumns


def _target_cardinality(bounds, n_candidates, repeat, rng):
    """Pick a starting cardinality inside the pruned window."""
    low = max(0, bounds.lower)
    high = min(n_candidates * repeat, bounds.upper)
    if low > high:
        return None
    midpoint = (low + high) // 2
    return max(low, min(high, midpoint))


def _per_tuple_scores(query, columns):
    """Objective contribution of each candidate, if linearly scorable.

    Returns a float array aligned with ``columns.rids`` or ``None``
    when the objective is missing or has no per-tuple linear
    decomposition (AVG/MIN/MAX objectives).
    """
    if query.objective is None:
        return None
    from repro.core.translate_ilp import ILPTranslationError, _affine_of

    try:
        affine = _affine_of(query.objective.expr)
    except ILPTranslationError:
        return None
    nonlinear = (ast.AggFunc.AVG, ast.AggFunc.MIN, ast.AggFunc.MAX)
    if any(aggregate.func in nonlinear for aggregate in affine.terms):
        return None
    total = np.full(len(columns.rids), 0.0)
    for aggregate, coef in affine.terms.items():
        if aggregate.is_count_star:
            total += coef
            continue
        values, nulls = columns.get(aggregate.argument)
        if aggregate.func is ast.AggFunc.COUNT:
            total += coef * ~nulls
        elif values.dtype.kind not in "fiu":
            return None
        else:  # SUM
            total += coef * np.where(nulls, 0.0, values)
    if query.objective.direction is ast.Direction.MINIMIZE:
        total = -total
    return total


def random_seed(
    query, relation, candidate_rids, bounds=None, rng=None, columns=None
):
    """A uniformly random package at a cardinality inside the bounds.

    Returns ``None`` when the bounds are provably empty.
    """
    rng = rng or random.Random(0)
    candidates = list(candidate_rids)
    if bounds is None:
        bounds = derive_bounds(query, relation, candidates, columns=columns)
    target = _target_cardinality(bounds, len(candidates), query.repeat, rng)
    if target is None:
        return None
    pool = candidates * query.repeat
    picks = rng.sample(pool, min(target, len(pool)))
    return Package(relation, picks)


def greedy_seed(
    query, relation, candidate_rids, bounds=None, rng=None, columns=None
):
    """A package of the objective-best candidates inside the bounds.

    Falls back to :func:`random_seed` when the objective cannot be
    decomposed per tuple.  Returns ``None`` on provably empty bounds.
    Scores read the candidates' ``CandidateColumns`` (built here when
    ``columns`` is ``None``).
    """
    rng = rng or random.Random(0)
    candidates = list(candidate_rids)
    if columns is None:
        columns = CandidateColumns(relation, candidates)
    if bounds is None:
        bounds = derive_bounds(query, relation, candidates, columns=columns)
    scores = _per_tuple_scores(query, columns)
    if scores is None:
        return random_seed(query, relation, candidates, bounds, rng)
    target = _target_cardinality(bounds, len(candidates), query.repeat, rng)
    if target is None:
        return None
    # Best score first, ties in candidate order; each pick is taken
    # REPEAT times until the target cardinality is filled.
    ranked = np.argsort(-scores, kind="stable")
    full, rest = divmod(target, query.repeat)
    counts = {candidates[spot]: query.repeat for spot in ranked[:full].tolist()}
    if rest:
        counts[candidates[ranked[full]]] = rest
    return Package(relation, counts)
