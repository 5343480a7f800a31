"""Per-relation session pooling for the package-query server.

The server (:mod:`repro.core.server`) holds exactly one
:class:`~repro.core.session.EvaluationSession` per served relation.
That is the whole point of serving: every artifact layer the session
carries — WHERE scans and validated result replays — amortizes
across *all*
clients instead of one caller's stream.  The pool owns those sessions:
it builds them lazily on first use, binds each to a durable
:class:`~repro.core.artifact_store.ArtifactStore` directory when a
store root is configured (so a restarted server comes back with its
scans and validated results), and closes them as one unit on drain.

Sessions are concurrency-safe (see docs/pipeline.md, "Session locking
contract"), so the pool hands the *same* session to every worker
thread; the only pool-level lock guards the name→session map itself.
"""

from __future__ import annotations

import threading

from repro.core.engine import EngineOptions
from repro.core.session import EvaluationSession

__all__ = ["RelationSpec", "SessionPool", "parse_relation_specs"]

#: Dataset generators a relation spec may name (kind → factory taking
#: ``(rows, seed, name)``).  Kept lazy so importing the pool does not
#: import every dataset module.
_GENERATORS = {
    "clustered": "clustered_relation",
    "uniform": "uniform_relation",
    "ints": "integer_relation",
    "recipes": "generate_recipes",
    "stocks": "generate_stocks",
    "travel": "generate_travel_products",
}


class RelationSpec:
    """A named relation the server offers, built on first use.

    Either wraps an already-built relation (in-process harnesses,
    benchmarks) or a ``kind:rows[:seed]`` generator recipe parsed from
    the CLI.
    """

    def __init__(self, name, relation=None, kind=None, rows=0, seed=13):
        self.name = name
        self._relation = relation
        self.kind = kind
        self.rows = rows
        self.seed = seed

    def build(self):
        if self._relation is not None:
            return self._relation
        import repro.datasets as datasets

        factory = getattr(datasets, _GENERATORS[self.kind])
        self._relation = factory(self.rows, seed=self.seed, name=self.name)
        return self._relation


def parse_relation_specs(text):
    """Parse the CLI's ``--relations`` value into :class:`RelationSpec`\\ s.

    Grammar: comma-separated ``NAME=KIND:ROWS[:SEED]`` items, e.g.
    ``Readings=clustered:100000:13,Recipes=recipes:500``.  Raises
    ``ValueError`` with the offending item on any malformed spec.
    """
    specs = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        try:
            name, recipe = item.split("=", 1)
            pieces = recipe.split(":")
            kind = pieces[0]
            rows = int(pieces[1])
            seed = int(pieces[2]) if len(pieces) > 2 else 13
        except (ValueError, IndexError):
            raise ValueError(f"malformed relation spec {item!r}") from None
        if kind not in _GENERATORS:
            raise ValueError(
                f"unknown dataset kind {kind!r} in {item!r} "
                f"(choose from {', '.join(sorted(_GENERATORS))})"
            )
        if rows <= 0:
            raise ValueError(f"relation {name!r} needs a positive row count")
        specs[name] = RelationSpec(name, kind=kind, rows=rows, seed=seed)
    if not specs:
        raise ValueError("no relations specified")
    return specs


class SessionPool:
    """One lazily-built, shared :class:`EvaluationSession` per relation.

    Args:
        specs: mapping of relation name → :class:`RelationSpec`.
        options: :class:`EngineOptions` every session evaluates with
            (per-request overrides are the server's concern).
        store_root: directory for durable artifact stores; each
            relation gets ``store_root/<name>`` as its ``store_path``,
            so a restarted server re-reads WHERE scans and validated
            results from disk instead of recomputing.
        store_max_bytes: per-relation store size bound (LRU eviction);
            only meaningful with ``store_root``.
    """

    def __init__(self, specs, options=None, store_root=None,
                 store_max_bytes=None):
        self._specs = dict(specs)
        self._options = options or EngineOptions()
        self._store_root = store_root
        self._store_max_bytes = store_max_bytes
        self._sessions = {}
        self._lock = threading.Lock()
        self._closed = False

    @classmethod
    def for_relations(cls, relations, options=None, store_root=None,
                      store_max_bytes=None):
        """Build a pool over already-constructed relations."""
        specs = {
            relation.name: RelationSpec(relation.name, relation=relation)
            for relation in relations
        }
        return cls(
            specs,
            options=options,
            store_root=store_root,
            store_max_bytes=store_max_bytes,
        )

    @property
    def relation_names(self):
        return sorted(self._specs)

    @property
    def options(self):
        return self._options

    def session(self, name):
        """The shared session for ``name``; built on first request.

        Raises:
            KeyError: the relation is not served (the server turns
                this into a 404, never a 500).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("session pool is closed")
            session = self._sessions.get(name)
            if session is None:
                spec = self._specs[name]  # KeyError -> 404 upstream
                store_path = None
                if self._store_root is not None:
                    import os

                    store_path = os.path.join(self._store_root, name)
                session = EvaluationSession(
                    spec.build(),
                    options=self._options,
                    store_path=store_path,
                    store_max_bytes=(
                        self._store_max_bytes
                        if store_path is not None
                        else None
                    ),
                )
                self._sessions[name] = session
            return session

    def degraded_stores(self):
        """``{relation: reason}`` for sessions whose durable store has
        tripped memory-only degradation (the server's ``/stats`` faults
        block surfaces this)."""
        with self._lock:
            sessions = dict(self._sessions)
        out = {}
        for name, session in sorted(sessions.items()):
            store = session.store
            if store is not None and store.degraded is not None:
                out[name] = store.degraded
        return out

    def stats(self):
        """Per-relation cache counters for the ``/stats`` endpoint."""
        with self._lock:
            sessions = dict(self._sessions)
        return {
            name: {
                "queries_run": session.queries_run,
                "cache": session.cache_stats(),
            }
            for name, session in sorted(sessions.items())
        }

    def close(self):
        """Close every pooled session (store flushes)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
