"""Adaptive exploration (Section 3.3 of the paper).

"PACKAGEBUILDER initially presents a sample package that satisfies a
few basic constraints.  Users can then select good tuples within the
sample, and request a new sample that replaces the unselected tuples.
Users can repeat this process until they reach the ideal package."

:class:`ExplorationSession` is the headless engine behind that loop:

* it produces an initial sample package;
* :meth:`pin` records the tuples the user wants to keep;
* :meth:`resample` solves the query again with the pinned tuples
  forced into the package and the previous package excluded (so the
  unselected tuples actually change), narrowing the search space
  exactly as the paper describes.
"""

from __future__ import annotations

from repro.core.local_search import LocalSearch, LocalSearchOptions
from repro.core.strategies.base import solve_on_backend
from repro.core.translate_ilp import ILPTranslationError, translate
from repro.core.validator import is_valid
from repro.solver.status import Status


class ExplorationError(Exception):
    """Raised on invalid session operations (pinning foreign tuples...)."""


class ExplorationSession:
    """One user's adaptive-exploration loop over a package query.

    Args:
        query: analyzed :class:`~repro.paql.ast.PackageQuery`.
        relation: the base relation.
        candidate_rids: rids satisfying the base constraints.
        backend: ``builtin`` | ``scipy`` | ``auto`` ILP backend.
    """

    def __init__(self, query, relation, candidate_rids, backend="builtin"):
        self._query = query
        self._relation = relation
        self._candidates = list(candidate_rids)
        self._backend = backend
        self._pinned = {}
        self._history = []
        self._current = None

    # -- state ---------------------------------------------------------------

    @property
    def current(self):
        """The package currently shown to the user (None before start)."""
        return self._current

    @property
    def history(self):
        """All packages shown so far, oldest first."""
        return list(self._history)

    @property
    def pinned(self):
        """Mapping rid -> pinned multiplicity."""
        return dict(self._pinned)

    # -- user actions ------------------------------------------------------------

    def start(self):
        """Produce the initial sample package.

        Returns:
            The sample :class:`~repro.core.package.Package`, or ``None``
            when the query has no valid package at all.
        """
        package = self._solve(exclusions=[])
        self._set_current(package)
        return package

    def pin(self, rids):
        """Mark tuples of the current package to keep on the next sample.

        Raises:
            ExplorationError: when a rid is not in the current package.
        """
        if self._current is None:
            raise ExplorationError("no current package; call start() first")
        for rid in rids:
            multiplicity = self._current.multiplicity(rid)
            if multiplicity == 0:
                raise ExplorationError(
                    f"rid {rid} is not in the current package"
                )
            self._pinned[rid] = multiplicity

    def unpin(self, rids=None):
        """Forget pins (all of them when ``rids`` is None)."""
        if rids is None:
            self._pinned.clear()
            return
        for rid in rids:
            self._pinned.pop(rid, None)

    def resample(self):
        """Produce a new package keeping pins, avoiding shown packages.

        Returns:
            The new package, or ``None`` when no different valid
            package exists under the current pins (the session keeps
            its current package in that case).
        """
        if self._current is None:
            raise ExplorationError("no current package; call start() first")
        package = self._solve(exclusions=self._history)
        if package is None:
            return None
        self._set_current(package)
        return package

    # -- internals -----------------------------------------------------------------

    def _set_current(self, package):
        if package is not None:
            self._current = package
            self._history.append(package)

    def _solve(self, exclusions):
        try:
            return self._solve_ilp(exclusions)
        except ILPTranslationError:
            return self._solve_search(exclusions)

    def _solve_ilp(self, exclusions):
        translation = translate(self._query, self._relation, self._candidates)
        positions = translation.positions(list(self._pinned))
        for (rid, multiplicity), position in zip(
            self._pinned.items(), positions.tolist()
        ):
            if position < 0:
                raise ExplorationError(
                    f"pinned rid {rid} no longer satisfies the base constraints"
                )
            translation.model.add_constraint(
                {int(translation.x_vars[position]): 1.0},
                ">=",
                float(multiplicity),
                name=f"pin_{rid}",
            )
        for package in exclusions:
            translation.exclude_package(package)

        solution = solve_on_backend(translation.model, self._backend)
        if not solution.status.has_solution:
            return None
        return translation.decode(solution)

    def _solve_search(self, exclusions):
        """Local-search fallback for queries without a linear encoding."""
        shown = set(exclusions)
        for attempt in range(8):
            options = LocalSearchOptions(rng_seed=attempt, seed="random")
            outcome = LocalSearch(
                self._query, self._relation, self._candidates, options
            ).run()
            package = outcome.package
            if package is None or package in shown:
                continue
            if all(
                package.multiplicity(rid) >= multiplicity
                for rid, multiplicity in self._pinned.items()
            ):
                return package
        return None
