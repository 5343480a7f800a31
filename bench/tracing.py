"""Spans recorded from the benchmark's side of each layer boundary.

No file under ``src/`` knows about tracing.  The tracer installs
timing wrappers *from here* on the program's public seams (class
methods and the module-level functions the pipeline looks up by name),
keeps every span in memory, and the run writes them out once at the
end.  Stage timings the engine already publishes as
``stats["stages"]`` are read as data and laid out as spans between the
wrapped calls that bracket them.

A seam that a later refactor renamed is reported once on stderr and
its layer reads 0; the benchmark keeps running, because per-layer
metrics carry no bound and a missing one must not block a change.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

from harness import log

#: ``(module, attribute path, span name)`` — where the wrappers go.
#: Functions imported by name into a module are patched in *that*
#: module, since that is the binding the pipeline calls through.
SEAMS = (
    ("repro.core.engine", "PackageQueryEvaluator.evaluate", "engine.evaluate"),
    ("repro.core.engine", "PackageQueryEvaluator.prepare", "paql.prepare"),
    ("repro.core.engine", "PackageQueryEvaluator.sharded_relation", "sharding.build"),
    ("repro.core.engine", "validate", "validator.validate"),
    ("repro.core.strategies.base", "translate", "translate"),
    ("repro.core.strategies.ilp", "solve_model", "solver.solve"),
    ("repro.core.strategies.partition", "solve_model", "solver.solve"),
    ("repro.core.translate_ilp", "ILPTranslation.decode", "solver.decode"),
    ("repro.core.artifact_store", "ArtifactStore.get", "store.get"),
    ("repro.core.artifact_store", "ArtifactStore.put", "store.put"),
    ("repro.relational.content_hash", "relation_fingerprint", "content_hash.fingerprint"),
    ("repro.relational.sql_relation", "SqlRelation.zone_stats", "sql_relation.zone_stats"),
    ("repro.relational.sql_relation", "SqlRelation.ensure_indexes", "sql_relation.index"),
)

#: ``stats["stages"]`` name -> span name (sql-backed runs rename the
#: WHERE stage, since there it is the pushdown planner's work).
STAGE_SPANS = {
    "rewrite": "paql.rewrite",
    "where-filter": "engine.where",
    "stream-residents": "pushdown.stream_residents",
    "prune-bounds": "pruning.derive_bounds",
    "reduction": "reduction.apply",
    "strategy-dispatch": "strategy.dispatch",
}


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans = []  # dicts: id, name, op_id, parent, start, end
        self.counters = defaultdict(int)
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, op_id=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": None,
            "name": name,
            "op_id": op_id if op_id is not None else (parent or {}).get("op_id"),
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def add(self, name, op_id, parent, start, end):
        """Record a span whose interval is already known."""
        with self._lock:
            span = {
                "id": len(self.spans),
                "name": name,
                "op_id": op_id,
                "parent": parent,
                "start": start,
                "end": end,
            }
            self.spans.append(span)
        return span

    def op(self, name, op_id):
        """Context manager: the root span of one operation."""
        return _SpanContext(self, name, op_id)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, function, name):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        """Install every wrapper; undo with :meth:`uninstall`."""
        for module_name, path, name in SEAMS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                log(f"trace: seam {module_name}:{path} not found; {name} reads 0")
                continue
            self._patch(owner, attribute, self._wrap(original, name))
        self._install_counters()

    def _install_counters(self):
        """Count what the store hands the device and sqlite hands Python."""
        import os

        tracer = self
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            if tracer.active:
                tracer.counters["fsync"] += 1
            return real_fsync(fd)

        def replace(source, target, **kwargs):
            if tracer.active:
                try:
                    tracer.counters["bytes_written"] += os.stat(source).st_size
                except OSError:
                    pass
            return real_replace(source, target, **kwargs)

        self._patch(os, "fsync", fsync)
        self._patch(os, "replace", replace)
        try:
            from repro.relational.sql_relation import SqlRelation

            real_iter = SqlRelation.iter_batches
        except (ImportError, AttributeError):
            log("trace: seam SqlRelation.iter_batches not found")
            return

        @functools.wraps(real_iter)
        def iter_batches(relation, *args, **kwargs):
            for start, rows in real_iter(relation, *args, **kwargs):
                if tracer.active:
                    tracer.counters["rows_fetched"] += len(rows)
                yield start, rows

        self._patch(SqlRelation, "iter_batches", iter_batches)

    def uninstall(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- stages published by the engine ---------------------------------------

    def add_stage_spans(self, root, stages, sql_backed=False):
        """Lay ``stats["stages"]`` out as spans under one evaluation.

        The engine publishes each stage's duration but not its start.
        Stages run back to back after ``prepare``, so they are placed
        in order from the end of the ``paql.prepare`` span inside the
        ``engine.evaluate`` span of ``root``'s operation; wrapped
        calls whose midpoint falls inside a stage become its children.
        ``validate`` is left to its wrapper, which also sees replays.
        """
        # Traced in-process workloads have one caller, so everything
        # recorded since the root span belongs to its operation.
        mine = self.spans[root["id"]:]
        evaluate = next(
            (s for s in reversed(mine) if s["name"] == "engine.evaluate"), None
        )
        if evaluate is None:
            return
        inside = [s for s in mine if s["parent"] == evaluate["id"]]
        cursor = max(
            (s["end"] for s in inside if s["name"] == "paql.prepare"),
            default=evaluate["start"],
        )
        for stage in stages:
            if stage.get("skipped") is not None or stage.get("mode") != "executed":
                continue
            name = STAGE_SPANS.get(stage["name"])
            start, cursor = cursor, cursor + stage["seconds"]
            if name is None:
                continue
            if sql_backed and name == "engine.where":
                name = "pushdown.run_where"
            span = self.add(name, root["op_id"], evaluate["id"], start, cursor)
            for child in inside:
                middle = (child["start"] + child["end"]) / 2.0
                if start <= middle < cursor and child["name"] != "paql.prepare":
                    child["parent"] = span["id"]

    # -- reading --------------------------------------------------------------

    def self_times(self):
        """``{op_id: {span name: self seconds}}`` over finished spans.

        A span's self time is its duration minus the part of it its
        child spans cover.
        """
        children = defaultdict(float)
        for span in self.spans:
            if span["end"] is not None and span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        per_op = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span["end"] is None or span["op_id"] is None:
                continue
            own = span["end"] - span["start"] - children[span["id"]]
            per_op[span["op_id"]][span["name"]] += max(own, 0.0)
        return per_op

    def durations(self, name):
        """Full durations of every finished span called ``name``."""
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        ]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span["end"] is not None:
                    handle.write(json.dumps(span) + "\n")


class _SpanContext:
    def __init__(self, tracer, name, op_id):
        self._tracer, self._name, self._op_id = tracer, name, op_id
        self.span = None

    def __enter__(self):
        self._tracer.active = True
        self.span = self._tracer.begin(self._name, self._op_id)
        return self.span

    def __exit__(self, *exc_info):
        self._tracer.end(self.span)
        self._tracer.active = False
        return False
