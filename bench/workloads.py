"""The five paqlbench workloads and their seeded input generators.

Everything random is derived here from ``--seed``: data seeds,
parameter draws, Zipf order, the hit/miss/mutation mix.  The program
under test receives only the generated relations and PaQL texts.

A workload is a *cycle* repeated until the measuring window closes.
Every cycle has the same composition (the same shares of query
families, hits, misses, mutations), with parameters drawn afresh from
``(seed, cycle)``; counts that must repeat exactly are read from
cycle 0 alone.  Query families are mixed in shares that put the
reported percentiles inside one family's latency cluster, not on the
cliff between two, and parameters are jittered in narrow bands so
that different seeds give different inputs of the same difficulty.

Sizes are chosen so one cycle takes 1-4 s on a 2-core box and a run
(three set-ups, the window, verification) stays near 20 s; they are
smaller than the sizes the legacy ``benchmarks/`` records used, which
is the price of 114 driver runs inside an hour.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
from harness import Op, OpResult, median, peak_rss_mb, percentile, ratio, timed

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def derive(seed, *labels):
    """A dedicated RNG for one purpose of one run.  Warm-up queries use
    the fixed seed ``"warm-up"``: their cost is part of ``setup_s`` and
    must not change with the run's seed."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def data_seed(seed, label):
    return derive(seed, "data", label).randrange(1, 2**31 - 1)


def scaled(count, scale, floor=1):
    return max(floor, int(round(count * scale)))


def stratified(rng, low, high, count):
    """``count`` draws from ``[low, high)``, one per equal-width
    stratum, in random order.  The parameter that drives a family's
    cost is drawn this way, so every cycle (and every seed) holds the
    same spread of cheap and dear queries instead of a lucky or an
    unlucky handful."""
    width = (high - low) / count
    values = [low + (index + rng.random()) * width for index in range(count)]
    rng.shuffle(values)
    return values


# -- PaQL text generators -----------------------------------------------------


def meal_query(rng):
    """Meal planner (paper scenario 1): k meals inside a calorie window."""
    count = rng.choice((2, 3, 4))
    low = count * rng.randint(350, 550)
    high = low + rng.randint(150, 350)
    where = rng.choice(
        ("WHERE R.gluten = 'free' ", "WHERE R.calories <= 900 ", "")
    )
    objective = rng.choice(("MAXIMIZE SUM(P.protein)", "MINIMIZE SUM(P.fat)"))
    return (
        f"SELECT PACKAGE(R) AS P FROM Recipes R {where}"
        f"SUCH THAT COUNT(*) = {count} AND "
        f"SUM(P.calories) BETWEEN {low} AND {high} {objective}"
    )


def vacation_query(rng):
    """Vacation planner (scenario 2): flights + hotel under a budget."""
    budget = rng.randint(1200, 3000)
    beach = rng.choice((200, 400, 800))
    return (
        "SELECT PACKAGE(T) AS P FROM Travel T SUCH THAT "
        "SUM(P.is_flight) = 2 AND SUM(P.is_hotel) = 1 AND "
        f"SUM(P.price) <= {budget} AND "
        f"(MAX(P.beach_meters) <= {beach} OR SUM(P.is_car) >= 1) "
        "MINIMIZE SUM(P.price)"
    )


def portfolio_query(rng):
    """Investment portfolio (scenario 3): budget, risk cap, tech share."""
    budget = rng.randint(25000, 60000)
    risk = rng.choice((0.6, 0.7, 0.8, 0.9))
    tech = rng.choice((0.2, 0.3, 0.4))
    return (
        f"SELECT PACKAGE(S) AS P FROM Stocks S WHERE S.risk <= {risk} "
        f"SUCH THAT SUM(P.price) <= {budget} AND "
        f"SUM(P.tech_value) >= {tech} * SUM(P.price) AND "
        "SUM(P.is_short) >= 2 AND SUM(P.is_long) >= 2 "
        "MAXIMIZE SUM(P.expected_return)"
    )


def maxfix_query(rng, threshold=None):
    """MAX-fixing (the E13/E14 shape): reduction keeps ~25% of the rows."""
    cap = rng.randint(8, 12)
    threshold = round(rng.uniform(23.0, 27.0) if threshold is None else threshold, 2)
    objective = rng.choice(("MAXIMIZE SUM(R.gain)", "MINIMIZE SUM(R.cost)"))
    return (
        "SELECT PACKAGE(R) FROM Readings R "
        f"SUCH THAT COUNT(*) <= {cap} AND MAX(R.ts) <= {threshold} {objective}"
    )


def band_query(rng, start=None):
    """Selective ``ts`` band (the E12 shape): zone maps skip most shards."""
    start = round(rng.uniform(5.0, 85.0) if start is None else start, 2)
    stop = round(start + rng.uniform(6.0, 8.0), 2)
    weight = rng.randint(60, 80)
    count = rng.randint(4, 6)
    return (
        f"SELECT PACKAGE(R) FROM Readings R WHERE R.ts BETWEEN {start} AND {stop} "
        f"AND R.cost + R.weight <= {weight} "
        f"SUCH THAT COUNT(*) = {count} AND SUM(R.cost) <= {count * 30} "
        "MAXIMIZE SUM(R.gain)"
    )


def nonselective_where(rng, weight=None):
    if weight is None:
        weight = rng.uniform(57.0, 63.0)
    return (
        f"R.cost + R.weight <= {round(weight, 1)} "
        f"AND R.gain >= {rng.randint(18, 22)}"
    )


def nonselective_query(rng, where=None):
    """A WHERE with no ``ts`` term: every shard is scanned."""
    if where is None:
        where = nonselective_where(rng)
    count = rng.randint(4, 6)
    return (
        f"SELECT PACKAGE(R) FROM Readings R WHERE {where} "
        f"SUCH THAT COUNT(*) = {count} AND SUM(R.cost) <= {count * rng.randint(28, 32)} "
        "MAXIMIZE SUM(R.gain)"
    )


def shared_artifact_pool(rng, size):
    """``size`` distinct Readings queries that share WHERE clauses,
    MAX thresholds and conjuncts — a session's warm misses: half
    MAX-fixing, a quarter each selective band and non-selective WHERE
    (the shares that keep the miss-tail percentile inside the
    MAX-fixing cluster)."""
    thresholds = [round(value, 2) for value in stratified(rng, 23.0, 27.0, 2)]
    starts = [round(value, 2) for value in stratified(rng, 5.0, 85.0, 2)]
    where = nonselective_where(rng, rng.uniform(59.0, 61.0))
    makers = (
        ("maxfix", lambda: maxfix_query(rng, rng.choice(thresholds))),
        ("maxfix", lambda: maxfix_query(rng, rng.choice(thresholds))),
        ("band", lambda: band_query(rng, rng.choice(starts))),
        ("nonselective", lambda: nonselective_query(rng, where)),
    )
    pool, texts = [], set()
    while len(pool) < size:
        family, make = makers[len(pool) % len(makers)]
        text = make()
        if text not in texts:
            texts.add(text)
            pool.append((family, text))
    return pool


def outofcore_query(rng):
    """E19's band shape: a 1.5-wide ``ts`` band, MIN fixing in SQL."""
    start = round(rng.uniform(2.0, 96.0), 1)
    return (
        "SELECT PACKAGE(R) FROM Readings R "
        f"WHERE R.ts BETWEEN {start} AND {round(start + 1.5, 1)} AND R.cost <= 20 "
        "SUCH THAT COUNT(*) BETWEEN 2 AND 4 AND MIN(R.gain) >= 60 "
        "MAXIMIZE SUM(R.gain)"
    )


def maximizes(op):
    return "MAXIMIZE" in op.text


# -- running one operation ----------------------------------------------------


def _stage_facts(stats):
    """The counts a traced row keeps from one result's published stats."""
    facts = {}
    for key in ("variables", "nodes", "iterations"):
        if key in stats:
            facts[key] = stats[key]
    reductions = []
    for stage in stats.get("stages", ()):
        if stage.get("skipped") is not None or stage.get("mode") != "executed":
            continue
        if stage["name"] == "where-filter":
            facts["where"] = (stage["rows_in"], stage["rows_out"], stage["seconds"])
        elif stage["name"] == "reduction":
            reductions.append((stage["rows_in"], stage["rows_out"]))
    if reductions:
        facts["reduction"] = (reductions[0][0], reductions[-1][1], len(reductions))
    for key in ("shards", "pushdown"):
        if stats.get(key):
            facts[key] = dict(stats[key])
    facts["parallel_events"] = len(stats.get("parallel", ()))
    return facts


def failed_row(op, op_id, cycle, started, exc):
    """An operation that raised is a failed operation, timed to the raise."""
    row = OpResult(op, op_id, cycle, time.perf_counter() - started)
    row.fail(f"{type(exc).__name__}: {exc}")
    return row


def run_query(call, op, op_id, cycle, tracer, checker=None):
    """Time ``call(op.text)`` -> ``EvaluationResult`` as one operation.

    The returned package is re-validated here, after the clock has
    stopped; with a tracer the engine's published stage timings become
    spans under the operation's root.  ``checker`` is an open
    sql-backed relation to validate against when the one the operation
    evaluated over is closed by the time it returns.
    """
    root = None
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.op("op", op_id) as root:
                result = call(op.text)
        else:
            result = call(op.text)
    except Exception as exc:
        return failed_row(op, op_id, cycle, started, exc)
    row = OpResult(op, op_id, cycle, time.perf_counter() - started)
    row.status = result.status.value
    row.cached = (result.stats.get("session") or {}).get("result_cache") == "hit"
    package = result.package
    if package is not None and checker is not None:
        from repro.core.package import Package

        package = Package(checker, dict(package.counts))
    valid, objective = oracle.validate_package(package, result.query)
    row.objective = objective
    if not valid:
        row.fail("validator rejected the returned package")
    elif not oracle.same(objective, result.objective):
        row.fail(f"reported objective {result.objective!r} != validated {objective!r}")
    if tracer is not None:
        if not row.cached:
            tracer.add_stage_spans(
                root, result.stats.get("stages", ()), sql_backed=checker is not None
            )
        row.facts = _stage_facts(result.stats) if not row.cached else {}
        row.facts["candidates"] = result.candidate_count
    return row


def cold_call(relation, options):
    """One-shot cold evaluation: a fresh evaluator per operation."""
    from repro.core.engine import PackageQueryEvaluator

    def call(text):
        evaluator = PackageQueryEvaluator(relation)
        try:
            return evaluator.evaluate(text, options)
        finally:
            evaluator.close()

    return call


#: Families whose models have thousands of variables.  HiGHS, as
#: ``solve_milp_scipy`` drives it, needs 4-20 s for one of them, so a
#: live cross-check of these uses the builtin solver on the unsharded,
#: unreduced path instead — independent of every layer above the
#: solver — while the solver itself is held to HiGHS on the small
#: models of the other families and, for seed 0, on all of them by the
#: expected file.
BIG_MODEL_FAMILIES = frozenset({"maxfix", "nonselective"})


def reference_options(op, exact, **overrides):
    """Options of the independent path for ``op``: one shard, no
    reduction, HiGHS (always when ``exact``, else for small models)."""
    from repro.core.engine import EngineOptions

    backend = (
        "builtin" if op.family in BIG_MODEL_FAMILIES and not exact else "scipy"
    )
    fields = dict(strategy="ilp", solver_backend=backend, shards=1, reduce="off")
    fields.update(overrides)
    return EngineOptions(**fields)


def reference_call(relation, exact):
    """``op -> (status, objective)`` over ``relation`` by the independent path."""

    def reference(op):
        result = cold_call(relation, reference_options(op, exact))(op.text)
        return result.status.value, result.objective

    return reference


# -- per-layer metrics shared by the in-process workloads ---------------------

#: span name -> the metric its per-operation self time feeds.
SPAN_METRICS = {
    "paql.prepare": "paql.prepare_ms",
    "paql.rewrite": "paql.rewrite_ms",
    "sharding.build": "sharding.build_ms",
    "engine.where": "engine.where_ms",
    "pruning.derive_bounds": "pruning.derive_bounds_ms",
    "reduction.apply": "reduction.apply_ms",
    "strategy.dispatch": "strategy.dispatch_self_ms",
    "translate": "translate.ms",
    "solver.solve": "solver.solve_ms",
    "solver.decode": "solver.decode_ms",
    "validator.validate": "validator.validate_ms",
    "pushdown.run_where": "pushdown.run_where_ms",
    "pushdown.stream_residents": "pushdown.stream_residents_ms",
    "sql_relation.zone_stats": "sql_relation.zone_stats_ms",
}


def pipeline_layer_metrics(tracer, rows, root_metric=None):
    """Layer metrics every in-process workload reads the same way.

    ``root_metric`` names the layer an operation's root span itself is
    (the session, where the operation *is* ``session.evaluate``); its
    self time then feeds that metric instead of counting as
    unattributed.

    Timings are the median, over the operations in which the layer
    ran, of its self time in that operation.  Counts that must repeat
    exactly (nodes, variables, kept ratio, rounds) come from cycle 0
    only, so they do not depend on how many cycles fitted the window.
    """
    metrics = {}
    per_op = tracer.self_times()
    samples = {}
    unattributed = []
    for row in rows:
        own = per_op.get(row.op_id)
        if not own or row.op.kind != "query":
            continue
        for span_name, seconds in own.items():
            samples.setdefault(span_name, []).append(seconds)
        if row.seconds > 0:
            loose = own.get("engine.evaluate", 0.0)
            if root_metric is None:
                loose += own.get("op", 0.0)
            unattributed.append(loose / row.seconds)
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = median(samples.get(span_name, ())) * 1e3
    if root_metric is not None:
        metrics[root_metric] = median(samples.get("op", ())) * 1e3
    metrics["trace.unattributed_ratio"] = median(unattributed)

    solved = [r for r in rows if "variables" in r.facts]
    first = [r for r in solved if r.cycle == 0]
    metrics["translate.variables"] = ratio(
        sum(r.facts["variables"] for r in first), len(first)
    )
    metrics["solver.nodes"] = ratio(sum(r.facts.get("nodes", 0) for r in first), len(first))
    metrics["solver.iterations"] = ratio(
        sum(r.facts.get("iterations", 0) for r in first), len(first)
    )
    translate = sum(samples.get("translate", ()))
    solve = sum(samples.get("solver.solve", ()))
    metrics["translate.us_per_variable"] = ratio(
        translate * 1e6, sum(r.facts["variables"] for r in solved)
    )
    metrics["solver.ms_per_node"] = ratio(
        solve * 1e3, sum(r.facts.get("nodes", 0) for r in solved)
    )

    reduced = [r.facts["reduction"] for r in rows if r.cycle == 0 and "reduction" in r.facts]
    metrics["reduction.kept_ratio"] = ratio(
        sum(kept for _, kept, _ in reduced), sum(seen for seen, _, _ in reduced)
    )
    metrics["reduction.rounds"] = ratio(sum(n for _, _, n in reduced), len(reduced))

    scans = [r.facts["where"] for r in rows if "where" in r.facts and "pushdown" not in r.facts]
    metrics["engine.where_rows_per_s"] = median(
        ratio(seen, seconds) for seen, _, seconds in scans
    )
    metrics["engine.where_selectivity"] = median(
        ratio(kept, seen) for seen, kept, _ in scans
    )
    shards = [r.facts["shards"] for r in rows if "shards" in r.facts]
    metrics["sharding.zone_skipped_ratio"] = ratio(
        sum(s.get("skipped", 0) for s in shards), sum(s.get("count", 0) for s in shards)
    )
    metrics["parallel.fallback_events"] = sum(
        r.facts.get("parallel_events", 0) for r in rows
    )
    return metrics


# -- workloads ----------------------------------------------------------------


class Context:
    """What a set-up leaves behind for the measured cycles."""

    def __init__(self, **fields):
        self.facts = {}  # set-up timings by per-layer metric name
        self.closers = []
        self.next_op_id = 0
        self.__dict__.update(fields)

    def op_id(self):
        self.next_op_id += 1
        return self.next_op_id

    def close(self):
        while self.closers:
            self.closers.pop()()


class Workload:
    """Base class: a seeded set-up and a cycle of fixed composition."""

    name = ""
    #: The percentile ``latency_ms_tail`` reports: the highest one that
    #: keeps >= 10 samples beyond it in a full window and sits inside
    #: one latency cluster of this workload's mix.
    tail_percentile = 0.9

    def setup(self, seed, scale, work):
        raise NotImplementedError

    def run_cycle(self, context, cycle, tracer):
        raise NotImplementedError

    def busy_seconds(self, rows, wall_seconds):
        """Seconds the program spent serving one cycle's ``rows``: with
        one caller, the sum of the operation latencies (harness
        bookkeeping between operations is not the program's time)."""
        return sum(row.seconds for row in rows)

    def peak_rss_mb(self, context):
        """Peak resident set of the process that evaluates queries,
        read when the measured cycles end."""
        return peak_rss_mb()

    def validate_rows(self, context, rows):
        """Validate answers that could not be checked as they arrived
        (in-process workloads validate inside :func:`run_query`)."""

    def reference(self, context, exact):
        """``op -> (status, objective)`` by the independent path;
        ``exact`` forces HiGHS for every model size (recording)."""
        raise NotImplementedError

    def layer_metrics(self, context, tracer, rows, plain_rows):
        return pipeline_layer_metrics(tracer, rows)


class ScenarioCold(Workload):
    """The paper's three demo scenarios, one-shot and cold.

    Why it exists: this is PackageBuilder's use case — a user types a
    meal-planner, vacation or portfolio query over a small relation
    and waits for the package.  Each operation builds a fresh
    ``PackageQueryEvaluator`` and runs ``strategy="auto"``.

    Loads: ``paql`` (parse, analyze, rewrite), ``pruning`` and above
    all the builtin **branch and bound** (tens to hundreds of nodes per
    query over a few hundred variables).  Bypasses: sharding,
    reduction at scale, session, store, server, sqlite — the relations
    are a few hundred rows, so scans cost nothing.

    Cycle: 24 operations — 6 vacation, 12 meal, 6 portfolio, shuffled,
    parameters drawn afresh every cycle, so a window holds a few
    hundred *distinct* queries (branch-and-bound cost is heavy-tailed;
    only many distinct draws make the totals steady across seeds).

    The three relations are the demo data sets themselves (the
    generators' default seeds) in every run; the seed draws the
    queries.  A freshly drawn 20-row stock table or 300-flight
    catalogue shifts the cost of *every* query of its family by up to
    2x (7 ms against 40 ms per vacation query), which no number of
    operations averages out within one run.
    """

    name = "scenario_cold"
    #: Inside the bulk of the portfolio cluster; beyond ~p85 the mix is
    #: the heavy branch-and-bound tail, which no window steadies.
    tail_percentile = 0.75
    recipes = 300
    flights = 300
    stocks = 20
    #: (family, query generator, operations per cycle)
    families = (
        ("vacation", vacation_query, 6),
        ("meal", meal_query, 12),
        ("portfolio", portfolio_query, 6),
    )

    def setup(self, seed, scale, work):
        from repro.core.engine import EngineOptions
        from repro.datasets import (
            generate_recipes,
            generate_stocks,
            generate_travel_products,
        )

        started = time.perf_counter()
        # The generators' own default seeds: these are the paper's demo
        # data sets, the same in every run (see the class docstring).
        relations = {
            "meal": generate_recipes(scaled(self.recipes, scale, 60)),
            "vacation": generate_travel_products(
                n_flights=scaled(self.flights, scale, 30)
            ),
            "portfolio": generate_stocks(scaled(self.stocks, scale, 16)),
        }
        context = Context(
            seed=seed,
            relations=relations,
            options=EngineOptions(strategy="auto"),
        )
        context.facts["relation.build_s"] = time.perf_counter() - started
        rng = derive("warm-up", self.name)
        for family, make, _ in self.families:
            cold_call(relations[family], context.options)(make(rng))
        return context

    def run_cycle(self, context, cycle, tracer):
        rng = derive(context.seed, self.name, cycle)
        ops = []
        for family, make, share in self.families:
            ops += [Op("query", family, make(rng)) for _ in range(share)]
        rng.shuffle(ops)
        rows = []
        for op in ops:
            call = cold_call(context.relations[op.family], context.options)
            rows.append(run_query(call, op, context.op_id(), cycle, tracer))
        return rows

    def reference(self, context, exact):
        calls = {
            family: reference_call(relation, exact)
            for family, relation in context.relations.items()
        }
        return lambda op: calls[op.family](op)


class ScanCold(Workload):
    """Cold ILP queries over one large in-memory relation.

    Why it exists: the in-memory cold path is the one ROADMAP says no
    PR has moved.  ``clustered_relation`` (append-ordered ``ts``),
    ``EngineOptions(strategy="ilp", shards=8)``, a fresh evaluator per
    operation, three families in equal shares: MAX-fixing (reduction
    keeps ~25% of the rows, one LP over ~10k variables), selective
    ``ts`` band (zone maps skip 6-7 of 8 shards) and a non-selective
    WHERE (every shard scanned).

    Loads: ``vectorize``/``sharding`` (WHERE kernels, zone skipping),
    ``reduction``, ``translate_ilp`` and a **single big LP solve** —
    branch and bound is all but absent (about one node), the
    complement of ``scenario_cold``.  Bypasses: session, store,
    server, sqlite.

    The unfiltered 100k knapsack (``SUM(R.cost) <= 100``, seconds per
    query) is left out: one such operation would own the tail.
    """

    name = "scan_cold"
    #: Equal thirds: p50 is the middle (non-selective) family's median
    #: and p80 sits inside the most expensive (MAX-fixing) third.
    tail_percentile = 0.8
    rows = 40000
    shards = 8

    def setup(self, seed, scale, work):
        from repro.core.engine import EngineOptions
        from repro.datasets import clustered_relation

        relation, seconds = timed(
            clustered_relation,
            scaled(self.rows, scale, 400),
            seed=data_seed(seed, "readings"),
        )
        context = Context(
            seed=seed,
            relation=relation,
            options=EngineOptions(strategy="ilp", shards=self.shards),
        )
        context.facts["relation.build_s"] = seconds
        rng = derive("warm-up", self.name)
        for make in (maxfix_query, band_query, nonselective_query):
            cold_call(relation, context.options)(make(rng))
        return context

    def run_cycle(self, context, cycle, tracer):
        rng = derive(context.seed, self.name, cycle)
        ops = [
            Op("query", "maxfix", maxfix_query(rng, threshold))
            for threshold in stratified(rng, 23.0, 27.0, 4)
        ] + [
            Op("query", "band", band_query(rng, start))
            for start in stratified(rng, 5.0, 85.0, 4)
        ] + [
            Op("query", "nonselective",
               nonselective_query(rng, nonselective_where(rng, weight)))
            for weight in stratified(rng, 57.0, 63.0, 4)
        ]
        rng.shuffle(ops)
        call = cold_call(context.relation, context.options)
        return [
            run_query(call, op, context.op_id(), cycle, tracer) for op in ops
        ]

    def reference(self, context, exact):
        return reference_call(context.relation, exact)


class SessionMixed(Workload):
    """One durable session, one caller: replays, warm misses, writes, restarts.

    Why it exists: it is the workload a cache/stats consolidation PR
    must hold flat.  One ``EvaluationSession(relation, options,
    store_path=...)`` per cycle answers 95 operations from a seeded
    script: 63 exact repeats (validated replays), 18 first asks
    from a pool of 18 distinct queries that share WHERE clauses and
    conjuncts (warm misses; 18 is more than the 16-entry translation
    cache and far fewer than the 256-entry result cache), three
    mutations (``append_rows`` / ``delete_rows``) each followed by
    re-asking three earlier queries over the new content, and two
    restarts (close, reopen on the same store, continue).

    Loads: ``session`` (result cache, artifact cache), the durable
    ``artifact_store`` (get/put/fsync — writes beside reads),
    ``content_hash``, shard-level invalidation, and the miss path
    ``scan_cold`` loads.  Bypasses: server, sqlite.  Single-threaded,
    so every cache counter repeats exactly.
    """

    name = "session_mixed"
    #: 27 of a cycle's 95 operations are misses and 13 of those
    #: MAX-fixing, the dearest cluster (p86-p100): p92 sits in its
    #: middle; p50 is a replay.
    tail_percentile = 0.92
    rows = 20000
    shards = 8
    pool_size = 18
    slots = 90
    mutation_rows = 100
    mutate_after = {31: "append", 51: "delete", 71: "append"}
    restart_after = (41, 81)

    def setup(self, seed, scale, work):
        from repro.core.engine import EngineOptions
        from repro.core.session import EvaluationSession
        from repro.datasets import clustered_relation

        relation, seconds = timed(
            clustered_relation,
            scaled(self.rows, scale, 400),
            seed=data_seed(seed, "readings"),
        )
        context = Context(
            seed=seed,
            scale=scale,
            work=work,
            relation=relation,
            options=EngineOptions(strategy="ilp", shards=self.shards),
            cycle_facts={},
            scripts={},
        )
        context.facts["relation.build_s"] = seconds
        rng = derive("warm-up", self.name)
        with EvaluationSession(
            relation, options=context.options, store_path=str(work.fresh("warm-store"))
        ) as session:
            for _, text in shared_artifact_pool(rng, 4):
                session.evaluate(text)
        return context

    def script(self, context, cycle):
        """The cycle's operation list (cached: both passes of a traced
        cycle and the reference replay must see the same one).

        The composition is fixed — every fifth slot is a first ask
        (pool order), every mutation is followed by re-asking the first
        query of each family, every other slot repeats a known query
        of the family whose turn it is — and only the texts, the
        mutation payloads and the choice among equals are drawn.
        Replays cost 0.45-0.7 ms depending on the family, so a free
        draw of *which* queries repeat would move the median operation
        from one family's replay cluster to another's.
        """
        if cycle in context.scripts:
            return context.scripts[cycle]
        rng = derive(context.seed, self.name, cycle)
        pool = shared_artifact_pool(rng, self.pool_size)
        size = len(context.relation)
        batch = scaled(self.mutation_rows, context.scale, 2)
        ops, state, scope = [], 0, f"cycle{cycle}"
        known, asked, queued = [], [], []
        unseen = list(range(len(pool)))[::-1]
        repeats = 0
        for slot in range(self.slots):
            if queued:
                pick = queued.pop()
            elif unseen and (slot % 5 == 0 or not known):
                pick = unseen.pop()
            else:
                turn = pool[repeats % 4][0]
                repeats += 1
                pick = rng.choice([k for k in known if pool[k][0] == turn] or known)
            family, text = pool[pick]
            ops.append(Op("query", family, text, state, scope=scope))
            if pick not in known:
                known.append(pick)
            if pick not in asked:
                asked.append(pick)
            kind = self.mutate_after.get(slot)
            if kind == "append":
                rows = [
                    {
                        "label": f"a{state}-{i}",
                        "ts": round(100.0 + state + i / (batch + 1.0), 6),
                        "cost": round(rng.uniform(0, 100), 3),
                        "gain": round(rng.uniform(0, 100), 3),
                        "weight": round(rng.uniform(0, 100), 3),
                    }
                    for i in range(batch)
                ]
                ops.append(Op("append", "mutation", state=state, payload=rows))
            elif kind == "delete":
                # One shard's worth of rids, clear of the appended tail.
                shard = rng.randrange(self.shards - 1)
                low = shard * (size // self.shards)
                rids = rng.sample(range(low, low + size // self.shards), batch)
                ops.append(Op("delete", "mutation", state=state, payload=sorted(rids)))
            if kind:
                state += 1
                known = []
                first_of = {}
                for index in asked:
                    first_of.setdefault(pool[index][0], index)
                queued = list(first_of.values())
            if slot in self.restart_after:
                ops.append(Op("restart", "restart", state=state))
        context.scripts[cycle] = ops
        return ops

    def run_cycle(self, context, cycle, tracer):
        from repro.core.session import EvaluationSession

        store_path = str(context.work.fresh("store"))

        def open_session(relation):
            return EvaluationSession(
                relation, options=context.options, store_path=store_path
            )

        # A mutation replaces the artifact caches (counters restart at
        # zero) but keeps the result cache; a restart replaces both.
        # Hit/miss totals for the cycle are therefore summed as deltas
        # against a baseline that is re-read after each such event.
        totals, baseline = {}, {}

        def counters(session):
            return {
                (layer, field): stats.get(field, 0)
                for layer, stats in session.cache_stats().items()
                if isinstance(stats, dict) and layer != "store"
                for field in ("hits", "misses")
            }

        def harvest(session):
            for key, value in counters(session).items():
                totals[key] = totals.get(key, 0) + value - baseline.get(key, 0)

        session = open_session(context.relation)
        rows = []
        rescanned = 0
        reasks = 0
        try:
            for op in self.script(context, cycle):
                op_id = context.op_id()
                if op.kind == "query":
                    row = run_query(session.evaluate, op, op_id, cycle, tracer)
                    if reasks and not row.cached:
                        rescanned += (row.facts.get("shards") or {}).get("scanned", 0)
                        reasks -= 1
                    rows.append(row)
                    continue
                harvest(session)
                if op.kind == "restart":
                    relation = session.relation

                    def act():
                        session.close()
                        return open_session(relation)
                elif op.kind == "append":
                    def act():
                        return session.append_rows(op.payload)
                else:
                    def act():
                        return session.delete_rows(op.payload)
                started = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.op("op", op_id):
                            outcome = act()
                    else:
                        outcome = act()
                except Exception as exc:
                    rows.append(failed_row(op, op_id, cycle, started, exc))
                    continue
                rows.append(OpResult(op, op_id, cycle, time.perf_counter() - started))
                if op.kind == "restart":
                    session = outcome
                else:
                    reasks = 3
                baseline = counters(session)
            harvest(session)
            if tracer is not None:
                store = session.store
                context.cycle_facts[cycle] = {
                    "device": dict(tracer.counters),
                    "caches": totals,
                    "store": store.lifetime_counters(),
                    "disk_bytes": store.disk_stats()["bytes"],
                    "post_mutation_shards": rescanned,
                }
        finally:
            session.close()
        return rows

    def reference(self, context, exact):
        """Replay the cycle's mutations on a store-less scratch session
        on the independent path, then ask the question there."""
        from repro.core.session import EvaluationSession

        cycle_of = {}

        def reference(op):
            if not cycle_of:
                for cycle, ops in context.scripts.items():
                    for candidate in ops:
                        cycle_of.setdefault(id(candidate), cycle)
            session = EvaluationSession(
                context.relation,
                options=reference_options(op, exact, shards=self.shards),
                reuse_results=False,
            )
            try:
                for earlier in context.scripts[cycle_of[id(op)]]:
                    if earlier is op or earlier.state >= op.state:
                        break
                    if earlier.kind == "append":
                        session.append_rows(earlier.payload)
                    elif earlier.kind == "delete":
                        session.delete_rows(earlier.payload)
                result = session.evaluate(op.text)
            finally:
                session.close()
            return result.status.value, result.objective

        return reference

    def layer_metrics(self, context, tracer, rows, plain_rows):
        metrics = pipeline_layer_metrics(tracer, rows, root_metric="session.self_ms")
        metrics.update(session_latency_metrics(rows))
        facts = context.cycle_facts.get(0, {})
        caches = facts.get("caches", {})
        metrics.update(hit_ratio_metrics(
            lambda layer: (caches.get((layer, "hits"), 0), caches.get((layer, "misses"), 0))
        ))
        metrics["session.post_mutation_shards_rescanned"] = facts.get(
            "post_mutation_shards", 0
        )
        restarts = [
            nxt.seconds
            for row, nxt in zip(rows, rows[1:])
            if row.op.kind == "restart" and nxt.op.kind == "query"
        ]
        metrics["session.restart_first_op_ms"] = median(restarts) * 1e3
        metrics["session.mutate_ms_p50"] = (
            median(r.seconds for r in rows if r.op.family == "mutation") * 1e3
        )

        store = facts.get("store", {})
        hits = sum(layer.get("hits", 0) for layer in store.values())
        misses = sum(layer.get("misses", 0) for layer in store.values())
        metrics["store.hit_ratio"] = ratio(hits, hits + misses)
        metrics["store.rejected"] = sum(l.get("rejected", 0) for l in store.values())
        metrics["store.bytes_on_disk"] = facts.get("disk_bytes", 0)
        metrics["store.get_ms_p50"] = median(tracer.durations("store.get")) * 1e3
        metrics["store.put_ms_p50"] = median(tracer.durations("store.put")) * 1e3
        # Device counters as they stood when traced cycle 0 ended.
        device = facts.get("device", {})
        metrics["store.bytes_written"] = device.get("bytes_written", 0)
        metrics["store.fsync_count"] = device.get("fsync", 0)
        first_misses = sum(
            1 for r in rows if r.cycle == 0 and r.op.kind == "query" and not r.cached
        )
        metrics["store.bytes_written_per_miss"] = ratio(
            metrics["store.bytes_written"], first_misses
        )
        metrics["content_hash.fingerprint_ms"] = (
            median(tracer.durations("content_hash.fingerprint")) * 1e3
        )

        # What a miss costs relative to asking the same question cold.
        call = cold_call(context.relation, context.options)
        cold, warm = [], []
        for row in rows:
            if row.cycle == 0 and row.op.kind == "query" and row.op.state == 0 \
                    and not row.cached and len(cold) < 8:
                cold.append(timed(call, row.op.text)[1])
                warm.append(row.seconds)
        metrics["session.miss_over_cold_ratio"] = ratio(median(warm), median(cold))
        return metrics


def hit_ratio_metrics(counts_of):
    """The ``session.*_hit_ratio`` metrics; ``counts_of(layer)`` gives
    that cache layer's ``(hits, misses)``."""
    metrics = {}
    for layer, metric in (
        ("results", "session.result_hit_ratio"),
        ("where", "session.where_hit_ratio"),
        ("bounds", "session.bounds_hit_ratio"),
        ("reduction_facts", "session.facts_hit_ratio"),
        ("translations", "session.translation_hit_ratio"),
    ):
        hits, misses = counts_of(layer)
        metrics[metric] = ratio(hits, hits + misses)
    return metrics


def session_latency_metrics(rows):
    queries = [r for r in rows if r.op.kind == "query" and r.ok]
    return {
        "session.hit_ms_p50": median(r.seconds for r in queries if r.cached) * 1e3,
        "session.miss_ms_p50": median(r.seconds for r in queries if not r.cached) * 1e3,
    }


class ServedZipf(Workload):
    """``python -m repro serve`` under two closed-loop HTTP clients.

    Why it exists: it is the only workload where ``server`` queueing,
    HTTP framing and session locking under two concurrent evaluators
    matter.  The server is a **subprocess** (``--workers 2
    --queue-depth 8 --strategy ilp --shards 8``, no store); two
    clients, one keep-alive ``ServerClient`` each, send the next
    request only after the previous answer arrived — a PackageBuilder
    user waits for the package before refining it.  Closed loop, 2
    clients (= ``nproc``).

    Cycle (an epoch): 360 requests drawn Zipf(1) from a fresh pool of
    12 distinct queries; first occurrences are misses solved under
    concurrency, the rest validated replays.  Read-only: a store change
    that moves ``session_mixed`` must *not* move this workload.

    Loads: ``server`` (admission queue, handler threads, JSON),
    ``session`` replay under a shared GIL, and the ``scan_cold`` miss
    path.  Bypasses: store, mutation, sqlite.
    """

    name = "served_zipf"
    #: 12 misses in 360 requests (3.3%), half of them MAX-fixing: p99
    #: sits inside that cluster.
    tail_percentile = 0.99
    rows = 20000
    shards = 8
    pool_size = 12
    requests = 360
    clients = 2
    relation_name = "Readings"

    def setup(self, seed, scale, work):
        from repro.core.server import ServerClient

        rows = scaled(self.rows, scale, 400)
        relation_seed = data_seed(seed, "readings")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC_DIR), environment.get("PYTHONPATH", "")) if part
        )
        errors = open(work.fresh("server-stderr"), "w", encoding="utf-8")
        started = time.perf_counter()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--relations", f"{self.relation_name}=clustered:{rows}:{relation_seed}",
                "--port", "0", "--workers", "2", "--queue-depth", "8",
                "--strategy", "ilp", "--shards", str(self.shards),
            ],
            stdout=subprocess.PIPE,
            stderr=errors,
            text=True,
            env=environment,
            cwd=str(REPO_ROOT),
        )
        context = Context(
            seed=seed,
            rows=rows,
            relation_seed=relation_seed,
            process=process,
            server_stats={},
        )
        context.closers.append(errors.close)
        context.closers.append(lambda: stop_server(context))
        try:
            line = process.stdout.readline()
            if "serving" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            context.facts["server.startup_s"] = time.perf_counter() - started
            context.clients = [
                ServerClient("127.0.0.1", port, timeout=120.0)
                for _ in range(self.clients)
            ]
            context.closers.append(
                lambda: [client.close() for client in context.clients]
            )
            rng = derive("warm-up", self.name)
            first = True
            for _, text in shared_artifact_pool(rng, 4):
                (code, payload), seconds = timed(
                    context.clients[0].query, self.relation_name, text
                )
                if code != 200:
                    raise RuntimeError(f"warm-up answered {code}: {payload}")
                if first:
                    # The pool builds the relation lazily on first use.
                    context.facts["server.first_op_s"] = seconds
                    first = False
        except Exception:
            context.close()
            raise
        return context

    def run_cycle(self, context, cycle, tracer):
        # A traced cycle needs its own never-seen pool, or the plain
        # pass would have turned all of its misses into replays.
        epoch = 2 * cycle + (1 if tracer is not None else 0)
        rng = derive(context.seed, self.name, epoch)
        pool = shared_artifact_pool(rng, self.pool_size)
        weights = [1.0 / (rank + 1) for rank in range(len(pool))]
        picks = rng.choices(range(len(pool)), weights, k=self.requests - len(pool))
        picks += range(len(pool))  # every pool member is asked at least once
        rng.shuffle(picks)
        ops = [(context.op_id(), Op("query", *pool[pick])) for pick in picks]
        lanes = [ops[lane::self.clients] for lane in range(self.clients)]
        rows = [[] for _ in lanes]

        def lane(index):
            client = context.clients[index]
            for op_id, op in lanes[index]:
                started = time.perf_counter()
                try:
                    code, payload = client.query(self.relation_name, op.text)
                except Exception as exc:
                    rows[index].append(failed_row(op, op_id, cycle, started, exc))
                    continue
                ended = time.perf_counter()
                row = OpResult(op, op_id, cycle, ended - started)
                if code != 200:
                    row.fail(f"HTTP {code}: {payload.get('error', payload)}")
                    row.facts["code"] = code
                else:
                    row.status = payload["status"]
                    row.objective = payload["objective"]
                    row.cached = bool(payload["cached"])
                    row.facts["package"] = payload["package"]
                if tracer is not None:
                    tracer.add("http.query", op_id, None, started, ended)
                rows[index].append(row)

        threads = [
            threading.Thread(target=lane, args=(index,)) for index in range(len(lanes))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [row for lane_rows in rows for row in lane_rows]

    def busy_seconds(self, rows, wall_seconds):
        """Two clients overlap, so throughput is over the wall clock."""
        return wall_seconds

    def peak_rss_mb(self, context):
        """The server subprocess's ``VmHWM``; also the moment to keep
        its ``/stats``, which the per-layer metrics read."""
        code, stats = context.clients[0].request("GET", "/stats")
        context.server_stats = stats if code == 200 else {}
        return peak_rss_mb(context.process.pid)

    def local_relation(self, context):
        from repro.datasets import clustered_relation

        if getattr(context, "relation", None) is None:
            context.relation = clustered_relation(
                context.rows, seed=context.relation_seed, name=self.relation_name
            )
        return context.relation

    def validate_rows(self, context, rows):
        """Re-validate every distinct served package against its query
        over a relation the benchmark generated itself."""
        from repro.core.engine import PackageQueryEvaluator
        from repro.core.package import Package

        relation = self.local_relation(context)
        evaluator = PackageQueryEvaluator(relation)
        queries, verdicts = {}, {}
        for row in rows:
            if not row.ok:
                continue
            package = row.facts.pop("package", None)
            signature = (row.op.text, tuple(sorted((package or {}).items())))
            if signature not in verdicts:
                if row.op.text not in queries:
                    queries[row.op.text] = evaluator.prepare(row.op.text)
                built = (
                    Package(relation, {int(rid): n for rid, n in package.items()})
                    if package is not None
                    else None
                )
                verdicts[signature] = oracle.validate_package(built, queries[row.op.text])
            valid, objective = verdicts[signature]
            if not valid:
                row.fail("validator rejected the served package")
            elif not oracle.same(objective, row.objective):
                row.fail(f"served objective {row.objective!r} != validated {objective!r}")

    def reference(self, context, exact):
        return reference_call(self.local_relation(context), exact)

    def layer_metrics(self, context, tracer, rows, plain_rows):
        metrics = session_latency_metrics(rows)
        stats = context.server_stats or {}
        endpoint = stats.get("endpoints", {}).get("/query", {})
        everything = rows + plain_rows
        client_p50 = percentile([r.seconds for r in everything], 0.5) * 1e3
        metrics["server.overhead_ms_p50"] = client_p50 - endpoint.get("p50_ms", 0.0)
        metrics["server.rejected_429"] = stats.get("admission", {}).get("rejected_full", 0)
        caches = (
            stats.get("relations", {}).get(self.relation_name, {}).get("cache", {})
        )
        metrics.update(hit_ratio_metrics(
            lambda layer: (
                caches.get(layer, {}).get("hits", 0),
                caches.get(layer, {}).get("misses", 0),
            )
        ))
        # Two clients missing on the same text at once both solve it.
        distinct = len({row.op.text for row in everything}) + 4  # + warm-up
        metrics["server.duplicate_misses"] = max(
            0, caches.get("results", {}).get("misses", 0) - distinct
        )
        return metrics


def stop_server(context):
    """SIGTERM drains the server; wait until it has gone."""
    process = context.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


class OutOfCoreBands(Workload):
    """Band queries over a sqlite table too big to be worth materializing.

    Why it exists: the data set larger than the program's in-memory
    budget.  ``SqlRelation.from_row_batches(clustered_row_batches(n))``
    with ``n`` = 220k rows, above ``MATERIALIZE_MAX_ROWS`` (200k), so
    ``pushdown="auto"`` must choose streaming by itself; one
    index-building warm-up query in set-up; then every operation is a
    1.5-wide ``ts`` band query (``R.cost <= 20``, ``MIN(R.gain) >=
    60``, E19's shape) on a fresh ``SqlRelation.open`` and a fresh
    evaluator, so the evaluator's scan/stream LRUs never hit.

    Loads: ``sql_relation`` + ``pushdown`` (prefilter, zone statistics,
    exact recheck, resident streaming, SQL fixing) — ~98% of the time;
    the solver sees a few hundred variables.  Bypasses: sharding,
    session, store, server, and nearly all of translate/solve.  It
    evaluates the same kind of WHERE as ``scan_cold`` through sqlite
    instead of numpy.

    Cycle: 4 band queries at fresh offsets.
    """

    name = "outofcore_bands"
    #: One latency cluster; p75 keeps >= 10 of ~45 samples beyond it.
    tail_percentile = 0.75
    rows = 220000

    def setup(self, seed, scale, work):
        from repro.core.cost import MATERIALIZE_MAX_ROWS
        from repro.core.engine import EngineOptions
        from repro.datasets.synthetic import clustered_row_batches, clustered_schema
        from repro.relational.sql_relation import SqlRelation

        rows = scaled(self.rows, scale, 2000)
        path = str(work.fresh("readings")) + ".db"
        started = time.perf_counter()
        sql = SqlRelation.from_row_batches(
            "Readings",
            clustered_schema(),
            clustered_row_batches(rows, seed=data_seed(seed, "readings")),
            path=path,
            validate=False,
        )
        sql.close()
        build = time.perf_counter() - started
        # Scaled-down smoke runs would legitimately materialize; they
        # force the streaming path to keep exercising it.
        mode = "auto" if rows > MATERIALIZE_MAX_ROWS else "always"
        context = Context(
            seed=seed, path=path, rows=rows, options=EngineOptions(pushdown=mode)
        )
        context.closers.append(lambda: _remove(path))
        # Operations close their relation before returning; packages are
        # validated against this connection, which no operation uses.
        context.checker = SqlRelation.open(path)
        context.closers.append(context.checker.close)
        context.facts["sql_relation.build_rows_per_s"] = ratio(rows, build)
        # The first band query creates the pushdown indexes.
        rng = derive("warm-up", self.name)
        _, context.facts["sql_relation.index_s"] = timed(
            self._call(context), outofcore_query(rng)
        )
        context.facts["sql_relation.bytes_per_row"] = ratio(os.path.getsize(path), rows)
        return context

    @staticmethod
    def _call(context, options=None):
        from repro.core.engine import PackageQueryEvaluator
        from repro.relational.sql_relation import SqlRelation

        def call(text):
            with SqlRelation.open(context.path) as relation:
                evaluator = PackageQueryEvaluator(relation)
                try:
                    return evaluator.evaluate(text, options or context.options)
                finally:
                    evaluator.close()

        return call

    def run_cycle(self, context, cycle, tracer):
        rng = derive(context.seed, self.name, cycle)
        call = self._call(context)
        rows = []
        for _ in range(4):
            op = Op("query", "band", outofcore_query(rng))
            row = run_query(
                call, op, context.op_id(), cycle, tracer, checker=context.checker
            )
            if row.ok and tracer is not None and \
                    (row.facts.get("pushdown") or {}).get("path") != "stream":
                row.fail("the scan did not take the streaming pushdown path")
            rows.append(row)
        return rows

    def reference(self, context, exact):
        """The materialize path solved by HiGHS: numpy kernels over the
        whole table instead of sqlite prefilter + recheck."""
        from repro.core.engine import EngineOptions, PackageQueryEvaluator
        from repro.relational.sql_relation import SqlRelation

        options = EngineOptions(pushdown="materialize", solver_backend="scipy")
        holder = {}

        def reference(op):
            if not holder:
                holder["relation"] = SqlRelation.open(context.path)
                holder["evaluator"] = PackageQueryEvaluator(holder["relation"])
                context.closers.append(holder["relation"].close)
            result = holder["evaluator"].evaluate(op.text, options)
            return result.status.value, result.objective

        return reference

    def layer_metrics(self, context, tracer, rows, plain_rows):
        metrics = pipeline_layer_metrics(tracer, rows)
        streamed = [r for r in rows if "pushdown" in r.facts]
        candidates = sum(r.facts.get("candidates") or 0 for r in streamed)
        metrics["pushdown.rows_fetched_per_candidate"] = ratio(
            tracer.counters["rows_fetched"], candidates
        )
        metrics["pushdown.sql_fixed_ratio"] = ratio(
            sum(r.facts["pushdown"].get("sql_fixed", 0) for r in streamed), candidates
        )
        return metrics


def _remove(path):
    for suffix in ("", "-journal", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except OSError:
            pass


WORKLOADS = {
    workload.name: workload
    for workload in (
        ScenarioCold(),
        ScanCold(),
        SessionMixed(),
        ServedZipf(),
        OutOfCoreBands(),
    )
}
