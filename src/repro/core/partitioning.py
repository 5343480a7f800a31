"""Offline k-partitioning of candidate tuples (sketch-refine support).

The ``partition`` strategy scales package evaluation by solving a
small *sketch* problem over one representative tuple per partition,
then *refining* partition by partition.  For the sketch to be a good
stand-in, tuples inside a partition must look alike on exactly the
attributes the query aggregates over — so the partitioner:

1. collects the aggregate-argument expressions from the objective and
   the SUCH THAT clause (:func:`partition_attributes`);
2. quantile-bins the candidates on those expressions (equi-depth, so
   skewed data still spreads across partitions);
3. picks as representative the tuple nearest the partition centroid
   in normalized feature space.

Queries whose global constraints mention no attribute (pure
``COUNT(*)`` queries) fall back to equal-size chunking — any split is
as good as any other when tuples are interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.paql import ast
from repro.core.vectorize import CandidateColumns


@dataclass
class PartitionOptions:
    """Tuning knobs for the ``partition`` strategy.

    Attributes:
        num_partitions: partitions to build; 0 means auto
            (``~sqrt(n)`` capped at ``max_partitions``).
        max_partitions: cap for the auto partition count.
        auto_threshold: ``auto`` strategy selection considers
            ``partition`` only at or above this many candidates
            (below it the exact ILP is fast enough to prefer).
        max_package_cardinality: ``auto`` eligibility also requires the
            derived cardinality upper bound to be at most this —
            sketch-refine is built for the paper's regime of small
            packages out of huge candidate sets; with unbounded
            package sizes the refinement sub-problems degenerate into
            the very large-scale ILPs the strategy exists to avoid.
            (Knapsack-shaped unbounded-cardinality queries are still
            declined here, and deliberately so: the builtin solver's
            dedicated knapsack fast path handles them exactly.  Since
            the refine-step ILPs ride that same solver, the cap can sit
            far higher than the original 64.)
        max_attributes: at most this many binning attributes (extra
            aggregate arguments are ignored for binning; refinement
            still uses real values, so this only affects sketch
            quality, not correctness).
        fallback: when the sketch or a refine step comes up infeasible,
            fall back to the cost model's next-best strategy over the
            full candidate set (otherwise report UNKNOWN).
    """

    num_partitions: int = 0
    max_partitions: int = 256
    auto_threshold: int = 20000
    max_package_cardinality: int = 256
    max_attributes: int = 3
    fallback: bool = True

    def resolved_count(self, n):
        """The actual partition count to build for ``n`` candidates."""
        if self.num_partitions > 0:
            return max(1, min(self.num_partitions, n))
        if n <= 1:
            return max(1, n)
        return max(2, min(self.max_partitions, int(round(n**0.5))))


@dataclass
class Partitioning:
    """A k-partition of candidate rids with per-group representatives.

    Attributes:
        groups: rids per partition (disjoint, covering all candidates).
        representatives: one rid per group, nearest the group centroid.
        attributes: the expressions the binning used (possibly empty).
    """

    groups: list
    representatives: list
    attributes: list = field(default_factory=list)

    def __len__(self):
        return len(self.groups)


def partition_attributes(query):
    """Aggregate-argument expressions the query's package-level logic uses.

    Deduplicated, in first-appearance order (objective first — it
    drives the refinement quality the most), excluding ``COUNT(*)``.
    """
    roots = []
    if query.objective is not None:
        roots.append(query.objective.expr)
    if query.such_that is not None:
        roots.append(query.such_that)
    seen = []
    for root in roots:
        for aggregate in ast.find_aggregates(root):
            if aggregate.argument is not None and aggregate.argument not in seen:
                seen.append(aggregate.argument)
    return seen


def _bin_counts(k, dims):
    """Per-dimension quantile-bin counts whose product is in ``[2, k]``.

    Uses only as many dimensions as ``k`` can meaningfully split
    (``2^m <= k``) so small ``k`` never collapses a multi-attribute
    binning into a single all-candidates group, and the first (most
    important — the objective's) dimension absorbs the leftover budget.
    """
    if dims == 0 or k <= 1:
        return [1] * dims
    split_dims = max(1, min(dims, int(math.log2(k))))
    base = int(k ** (1.0 / split_dims))
    counts = [base] * split_dims + [1] * (dims - split_dims)
    counts[0] = max(counts[0], k // base ** (split_dims - 1))
    return counts


def build_partitioning(
    query, relation, candidate_rids, k, max_attributes=3, workers=0, columns=None
):
    """Quantile-bin ``candidate_rids`` into (at most) ``k`` partitions.

    Args:
        query: analyzed package query (supplies the binning attributes).
        relation: the base relation.
        candidate_rids: rids surviving the base constraints.
        k: requested partition count; the result has between 1 and
            ``k`` non-empty groups (bin collisions merge).
        max_attributes: cap on binning dimensions.
        workers: binning-attribute feature columns are independent
            scans and evaluate concurrently through the worker pool
            (0 = one worker per CPU); the binning itself is unchanged.
        columns: the candidates' ``CandidateColumns`` (built when
            ``None``); a numeric feature is NULL as NaN, a text one
            (only ``COUNT`` takes it) its non-NULL indicator.

    Returns:
        :class:`Partitioning`.
    """
    rids = list(candidate_rids)
    n = len(rids)
    if n == 0:
        return Partitioning(groups=[], representatives=[], attributes=[])
    k = max(1, min(k, n))

    attributes = partition_attributes(query)[:max_attributes]
    if not attributes:
        # COUNT(*)-only query: tuples are interchangeable; chunk evenly.
        chunk = -(-n // k)
        groups = [rids[i : i + chunk] for i in range(0, n, chunk)]
        representatives = [group[len(group) // 2] for group in groups]
        return Partitioning(groups, representatives, [])

    from repro.core.parallel import parallel_map

    if columns is None:
        columns = CandidateColumns(relation, rids)
    gathered = parallel_map(columns.get, attributes, workers=workers)
    features = np.empty((n, len(attributes)), dtype=float)
    for column, (values, nulls) in enumerate(gathered):
        features[:, column] = values if values.dtype.kind in "fiu" else ~nulls
    # NULLs bin with the column median so they do not distort spreads.
    for column in range(features.shape[1]):
        values = features[:, column]
        if np.isnan(values).any():
            finite = values[~np.isnan(values)]
            fill = float(np.median(finite)) if finite.size else 0.0
            values[np.isnan(values)] = fill

    bin_counts = _bin_counts(k, len(attributes))
    codes = np.zeros(n, dtype=np.int64)
    for column in range(features.shape[1]):
        bins = bin_counts[column]
        values = features[:, column]
        if bins > 1 and np.unique(values).size > 1:
            quantiles = np.quantile(
                values, np.linspace(0, 1, bins + 1)[1:-1]
            )
            assignment = np.searchsorted(quantiles, values, side="right")
        else:
            assignment = np.zeros(n, dtype=np.int64)
        codes = codes * bins + assignment

    groups = []
    representatives = []
    scale = features.std(axis=0)
    scale[scale == 0] = 1.0
    for code in np.unique(codes):
        member_index = np.flatnonzero(codes == code)
        group = [rids[i] for i in member_index]
        member_features = features[member_index] / scale
        centroid = member_features.mean(axis=0)
        nearest = int(
            np.argmin(((member_features - centroid) ** 2).sum(axis=1))
        )
        groups.append(group)
        representatives.append(group[nearest])
    return Partitioning(groups, representatives, attributes)
