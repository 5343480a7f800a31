"""Strategy interface and the evaluation context threaded through it.

The engine's staged pipeline (:mod:`repro.core.pipeline`) is
rewrite -> where-filter -> zone-skip -> [prune-bounds -> reduction]*
-> strategy-dispatch -> validate.  Everything the dispatch and run
stages need is carried by one :class:`EvaluationContext`, so strategies stop
re-deriving state (candidate rids, cardinality bounds, the ILP
translation) that an earlier stage already computed.

A strategy is a class with four responsibilities:

* ``name`` — the registry key (also the ``EngineOptions.strategy``
  spelling and the CLI ``--strategy`` choice);
* ``applicable(query, ctx)`` — can this strategy run at all on this
  query (hard capability check, e.g. "the query has a linear
  encoding");
* ``estimate(ctx)`` — a :class:`StrategyEstimate` used by the shared
  cost model (:mod:`repro.core.cost`) to pick the ``auto`` strategy;
* ``run(ctx)`` — evaluate, returning an
  :class:`~repro.core.result.EvaluationResult`.

Strategies never validate their own output: the engine re-validates
every returned package against the original query (the oracle gate).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.pruning import search_space_size
from repro.core.translate_ilp import ILPTranslationError, translate
from repro.solver.branch_and_bound import BranchAndBoundOptions, solve_milp
from repro.solver.scipy_backend import available as scipy_available
from repro.solver.scipy_backend import solve_milp_scipy


@dataclass
class EvaluationContext:
    """Everything a strategy needs to evaluate one query.

    Attributes:
        query: analyzed (and possibly rewritten)
            :class:`~repro.paql.ast.PackageQuery`.
        relation: the base relation.
        candidate_rids: rids surviving the base constraints.
        bounds: derived :class:`~repro.core.pruning.CardinalityBounds`.
        options: the :class:`~repro.core.engine.EngineOptions` in force.
        where_path: which WHERE evaluation engine produced
            ``candidate_rids`` — ``none`` | ``vectorized`` |
            ``vectorized-sharded`` (per-shard kernels with zone-map
            skipping) | ``interpreted`` (the row-interpreter
            fallback) | ``sql-pushdown`` (a sql-backed relation's
            weakened SQL prefilter, every batch rechecked by the same
            kernels) | ``materialized`` (a sql-backed relation loaded
            whole, then filtered in memory); surfaced in result stats
            so tests and paqlbench can assert the columnar path ran.
        sharded: the :class:`~repro.relational.sharding.ShardedRelation`
            in force when ``options.shards > 1`` (``None`` otherwise);
            scan-shaped strategy work may fan out over it.
        shard_info: the ``stats["shards"]`` payload of the sharded
            WHERE pass (shard/skip/worker counts), when it ran.
        reduction: the :class:`~repro.core.reduction.Reduction` that
            produced ``candidate_rids`` (``None`` with ``reduce="off"``
            or nothing to reduce).  ``candidate_rids`` is already the
            *kept* set, so every strategy estimate and run is
            reduction-aware for free; the base (pre-reduction) count
            stays available as :attr:`base_candidate_count` for
            user-facing reporting.  One record covers every round of
            the prune/reduce fixpoint
            (:func:`~repro.core.reduction.analyze_constraints`).
        columns: the :class:`~repro.core.vectorize.CandidateColumns`
            over ``candidate_rids`` that pruning and reduction
            gathered; the strategies read it instead of re-gathering.

    The ILP translation is computed lazily and kept on the context for
    this one query (never across queries): the cost model, the planner
    and the ``ilp``/``partition`` strategies all share one translation
    attempt instead of re-translating.  It consumes the reduction's
    forced-tuple facts (variable lower bounds) when any exist.
    """

    query: object
    relation: object
    candidate_rids: list
    bounds: object
    options: object
    where_path: str = "none"
    sharded: object = None
    shard_info: dict | None = None
    reduction: object = None
    columns: object = None
    _translation: object = field(default=None, init=False, repr=False)
    _translation_error: str | None = field(default=None, init=False, repr=False)
    _translation_tried: bool = field(default=False, init=False, repr=False)
    _translatability: tuple | None = field(default=None, init=False, repr=False)

    @property
    def candidate_count(self):
        return len(self.candidate_rids)

    @property
    def base_candidate_count(self):
        """Candidates after the base constraints, before reduction."""
        if self.reduction is not None:
            return self.reduction.input_count
        return len(self.candidate_rids)

    @property
    def forced_rids(self):
        """Rids reduction proved present in every valid package."""
        if self.reduction is None:
            return ()
        return self.reduction.forced_rids

    @property
    def parallelism(self):
        """Effective data-parallel width for scan-shaped work.

        1 without sharding; otherwise the worker count the parallel
        executor would actually use across the shards.  Cost-model
        estimates divide their scan terms by this, which is what makes
        ``plan()`` predict the parallel path.
        """
        from repro.core.parallel import effective_workers

        shards = getattr(self.options, "shards", 1)
        if self.sharded is None or shards <= 1:
            return 1
        return effective_workers(
            getattr(self.options, "workers", 0), shards
        )

    @property
    def space_unpruned(self):
        """``2^n`` candidate packages (set semantics)."""
        return 2 ** len(self.candidate_rids)

    @property
    def space_pruned(self):
        """Candidate packages inside the cardinality bounds."""
        return search_space_size(len(self.candidate_rids), self.bounds)

    def try_translation(self):
        """``(translation, error)`` — exactly one is not None (cached).

        Builds the *full* model over every candidate; strategy
        selection should use :attr:`translatable` /
        :attr:`translation_error` instead, which probe translatability
        without paying for ``n`` variables.
        """
        if not self._translation_tried:
            self._translation_tried = True
            try:
                self._translation = translate(
                    self.query,
                    self.relation,
                    self.candidate_rids,
                    forced_ones=frozenset(self.forced_rids),
                    columns=self.columns,
                )
            except ILPTranslationError as exc:
                self._translation_error = str(exc)
        return self._translation, self._translation_error

    def _probe_translatability(self):
        """Cheap cached ``(translatable, error)`` check.

        Every :class:`~repro.core.translate_ilp.ILPTranslationError`
        cause is query-shape-driven (unsupported aggregate positions,
        nonlinear arithmetic), so translating over a single candidate
        answers "does a linear encoding exist?" without building the
        O(n)-variable model the cost model would then throw away.
        """
        if self._translatability is None:
            if self._translation_tried:
                self._translatability = (
                    self._translation is not None,
                    self._translation_error,
                )
            else:
                try:
                    translate(self.query, self.relation, self.candidate_rids[:1])
                    self._translatability = (True, None)
                except ILPTranslationError as exc:
                    self._translatability = (False, str(exc))
        return self._translatability

    @property
    def translatable(self):
        return self._probe_translatability()[0]

    @property
    def translation_error(self):
        return self._probe_translatability()[1]

    def translation(self):
        """The cached ILP translation; raises when none exists."""
        translation, error = self.try_translation()
        if translation is None:
            raise ILPTranslationError(error)
        return translation



@dataclass(frozen=True)
class StrategyEstimate:
    """One strategy's bid in the ``auto`` selection.

    Attributes:
        eligible: whether ``auto`` may pick this strategy here.
        tier: preference rank among eligible strategies — lower wins.
            Ties break on ``cost``, then name.  Tiers keep the choice
            lexicographic (exactness and scalability dominate raw work
            units), which is what the old hand-coded auto logic did.
        cost: rough predicted work units (used for tie-breaks and shown
            in the decision trail; not wall-clock).
        reason: one line of human-readable justification.
    """

    eligible: bool
    tier: int
    cost: float
    reason: str


class Strategy(abc.ABC):
    """Base class for evaluation strategies (see module docstring)."""

    #: Registry key; also the user-facing spelling.
    name: str = ""
    #: Whether the strategy proves optimality/infeasibility.
    exact: bool = False
    #: Whether ``auto`` may select it (``sql`` is dispatch-only).
    auto_eligible: bool = True
    #: One-line description for docs and ``repro strategies``.
    summary: str = ""

    @abc.abstractmethod
    def applicable(self, query, ctx):
        """Can this strategy produce a meaningful result here?

        The cost model consults this before asking for an estimate, so
        ``auto`` never dispatches an inapplicable strategy.  Explicit
        dispatch (``EngineOptions.strategy = name``) is deliberately
        permissive — the user asked for this strategy, the strategy
        reports its own failure (exception or UNKNOWN), and the
        engine's oracle gate re-validates whatever comes back.
        """

    @abc.abstractmethod
    def estimate(self, ctx):
        """A :class:`StrategyEstimate` for the shared cost model."""

    @abc.abstractmethod
    def run(self, ctx):
        """Evaluate and return an
        :class:`~repro.core.result.EvaluationResult`."""


def resolved_backend(options):
    """The backend ``solve_model`` will actually run for ``options``."""
    return _resolve(options.solver_backend)


def _resolve(backend):
    if backend == "auto":
        return "scipy" if scipy_available() else "builtin"
    return backend


def solve_on_backend(model, backend, bb_options=None):
    """Solve an ILP model on ``backend`` (``builtin`` | ``scipy`` |
    ``auto``, which means scipy when it is installed).

    ``bb_options`` configure the builtin branch and bound (default
    :class:`~repro.solver.branch_and_bound.BranchAndBoundOptions`);
    the scipy backend ignores them.
    """
    if _resolve(backend) == "scipy":
        return solve_milp_scipy(model)
    return solve_milp(model, bb_options or BranchAndBoundOptions())


def solve_model(model, options, initial_solution=None):
    """Solve an ILP model honoring ``EngineOptions`` backend settings.

    Returns ``(solution, backend_name)``.  Shared by the ``ilp`` and
    ``partition`` strategies.  ``initial_solution`` (a full-length
    variable-value array) warm-starts the builtin branch and bound as
    its incumbent so it prunes from node one; the scipy backend
    ignores it (check :func:`resolved_backend` before paying to build
    one).
    """
    backend = resolved_backend(options)
    bb_options = BranchAndBoundOptions(
        node_limit=options.node_limit, initial_solution=initial_solution
    )
    return solve_on_backend(model, backend, bb_options), backend
