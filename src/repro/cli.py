"""Command-line interface: run PaQL queries against CSV data.

Usage::

    python -m repro query --csv recipes.csv --query "SELECT PACKAGE(...)..."
    python -m repro query --csv recipes.csv --query-file q.paql --top 3
    python -m repro explain --csv recipes.csv --query "..."   # stage table
    python -m repro repl --csv recipes.csv                    # session REPL
    python -m repro repl --csv recipes.csv --file queries.paql  # batch mode
    python -m repro repl --csv recipes.csv --store .cache     # durable session
    python -m repro cache stats --store .cache    # per-layer entries/hit rates
    python -m repro cache verify --store .cache --csv recipes.csv
    python -m repro cache clear --store .cache --all
    python -m repro demo meal        # built-in scenario on synthetic data
    python -m repro describe --query "SELECT PACKAGE(...)"
    python -m repro strategies       # list the registered strategies

``query --strategy`` accepts ``auto`` or any registered evaluation
strategy — ``brute-force``, ``ilp``, ``local-search``, ``partition``,
``sql`` (see ``repro strategies`` for one-line descriptions).

The relation name in the FROM clause must match the CSV's relation
name, which defaults to the file's stem (``recipes.csv`` ->
``recipes``) and can be overridden with ``--relation``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core.engine import EngineError, EngineOptions, PackageQueryEvaluator
from repro.core.enumeration import diverse_subset, enumerate_top
from repro.core.strategies import all_strategies, strategy_names
from repro.core.translate_ilp import ILPTranslationError
from repro.core.validator import objective_value
from repro.paql.describe import describe_text
from repro.paql.errors import PaQLError
from repro.paql.parser import parse
from repro.relational.csvio import read_csv
from repro.relational.schema import SchemaError


class CliError(Exception):
    """User-facing CLI failure (bad arguments, bad data, bad query)."""


def _load_relation(args):
    path = pathlib.Path(args.csv)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    name = args.relation or path.stem
    try:
        return read_csv(path, name)
    except (SchemaError, ValueError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_query_text(args):
    if args.query and args.query_file:
        raise CliError("pass --query or --query-file, not both")
    if args.query:
        return args.query
    if args.query_file:
        path = pathlib.Path(args.query_file)
        if not path.exists():
            raise CliError(f"no such file: {path}")
        return path.read_text(encoding="utf-8")
    raise CliError("a query is required (--query or --query-file)")


def _format_package(package, query, out):
    columns = package.relation.schema.names
    rows = package.rows()
    if not rows:
        print("(the empty package)", file=out)
        return
    widths = {
        column: max(len(column), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in rows:
        print(
            "  ".join(str(row[column]).ljust(widths[column]) for column in columns),
            file=out,
        )
    value = objective_value(package, query)
    if value is not None:
        print(f"objective: {value}", file=out)


def _package_json(package, query):
    return {
        "rows": package.rows(),
        "cardinality": package.cardinality,
        "objective": objective_value(package, query),
    }


def _cmd_query(args, out):
    relation = _load_relation(args)
    text = _read_query_text(args)
    evaluator = PackageQueryEvaluator(relation)
    options = _engine_options(args)

    if args.top > 1:
        query = evaluator.prepare(text)
        candidates = evaluator.candidates(query, options)
        packages = enumerate_top(query, relation, candidates, args.top)
        if args.diverse and len(packages) > args.diverse:
            packages = diverse_subset(packages, args.diverse)
        if not packages:
            print("no valid package exists", file=out)
            return 1
        if args.json:
            payload = [_package_json(p, query) for p in packages]
            print(json.dumps(payload, indent=2, default=str), file=out)
            return 0
        for rank, package in enumerate(packages, start=1):
            print(f"== package #{rank} ==", file=out)
            _format_package(package, query, out)
            print(file=out)
        return 0

    result = evaluator.evaluate(text, options)
    if args.json:
        payload = {
            "status": result.status.value,
            "strategy": result.strategy,
            "candidates": result.candidate_count,
            "elapsed_seconds": result.elapsed_seconds,
        }
        if result.found:
            payload["package"] = _package_json(result.package, result.query)
        print(json.dumps(payload, indent=2, default=str), file=out)
        return 0 if result.found else 1

    print(
        f"status: {result.status.value}  strategy: {result.strategy}  "
        f"candidates: {result.candidate_count}  "
        f"({result.elapsed_seconds * 1000:.1f} ms)",
        file=out,
    )
    if args.explain:
        print(
            f"cardinality bounds: [{result.bounds.lower}, "
            f"{result.bounds.upper}]",
            file=out,
        )
        for key, value in sorted(result.stats.items()):
            if key == "stages":
                continue  # rendered as a table below
            print(f"{key}: {value}", file=out)
        if "stages" in result.stats:
            from repro.core.ir import stage_table

            table = stage_table(
                result.stats["stages"],
                parallel=result.stats.get("parallel"),
            )
            for line in table:
                print(line, file=out)
    if not result.found:
        print("no valid package exists", file=out)
        return 1
    _format_package(result.package, result.query, out)
    return 0


def _cmd_plan(args, out):
    from repro.core.plan import plan
    from repro.paql.lint import lint

    relation = _load_relation(args)
    text = _read_query_text(args)
    evaluator = PackageQueryEvaluator(relation)
    query = evaluator.prepare(text)
    options = _engine_options(args)
    print(plan(query, relation, options=options).text(), file=out)
    warnings = lint(query, relation)
    if warnings:
        print("advisories:", file=out)
        for warning in warnings:
            print(f"  {warning}", file=out)
    return 0


def _engine_options(args):
    return EngineOptions(
        strategy=getattr(args, "strategy", "auto"),
        shards=args.shards,
        workers=args.workers,
        reduce=args.reduce,
    )


def _cmd_explain(args, out):
    """Render the staged pipeline for one query as a table.

    Executes by default (stage timings are real wall-clock); with
    ``--simulate`` nothing is solved and the table shows the planner's
    simulated records — same stages, same skip reasons.
    """
    from repro.core.session import EvaluationSession

    relation = _load_relation(args)
    text = _read_query_text(args)
    store_path = getattr(args, "store", None)
    with EvaluationSession(
        relation,
        options=_engine_options(args),
        store_path=store_path,
        store_max_bytes=(
            getattr(args, "max_bytes", None) if store_path else None
        ),
    ) as session:
        outcome, table = session.explain(text, execute=not args.simulate)
    if args.simulate:
        print(f"strategy: {outcome.chosen_strategy} (simulated)", file=out)
    else:
        print(
            f"status: {outcome.status.value}  strategy: {outcome.strategy}  "
            f"candidates: {outcome.candidate_count}  "
            f"({outcome.elapsed_seconds * 1000:.1f} ms)",
            file=out,
        )
    for line in table:
        print(line, file=out)
    return 0


def _split_statements(source):
    """Split PaQL source on ``;`` outside string literals.

    PaQL strings are single-quoted with ``''`` as the escape, so a
    naive ``source.split(";")`` would cut inside a literal like
    ``'a;b'``.  Returns ``(statements, remainder)`` where the
    remainder is trailing text with no terminating semicolon (the
    interactive loop keeps buffering it).
    """
    statements = []
    piece = []
    in_string = False
    for ch in source:
        if ch == "'":
            in_string = not in_string
            piece.append(ch)
        elif ch == ";" and not in_string:
            text = "".join(piece).strip()
            if text:
                statements.append(text)
            piece = []
        else:
            piece.append(ch)
    return statements, "".join(piece)


def _repl_statement(session, statement, args, out):
    """Run one REPL/batch statement; returns the per-statement payload."""
    explain = False
    body = statement.strip()
    if body[:7].upper() == "EXPLAIN" and (len(body) == 7 or body[7].isspace()):
        explain = True
        body = body[7:].lstrip()
    result = session.evaluate(body)
    if args.json:
        payload = {
            "status": result.status.value,
            "strategy": result.strategy,
            "candidates": result.candidate_count,
            "elapsed_seconds": result.elapsed_seconds,
            "cached": result.stats.get("session", {}).get("result_cache")
            == "hit",
        }
        if explain:
            payload["stages"] = result.stats.get("stages", [])
        if result.found:
            payload["package"] = _package_json(result.package, result.query)
        return payload
    cached = (
        "  [session cache]"
        if result.stats.get("session", {}).get("result_cache") == "hit"
        else ""
    )
    print(
        f"status: {result.status.value}  strategy: {result.strategy}  "
        f"candidates: {result.candidate_count}  "
        f"({result.elapsed_seconds * 1000:.1f} ms){cached}",
        file=out,
    )
    if explain and "stages" in result.stats:
        from repro.core.ir import stage_table

        table = stage_table(
            result.stats["stages"],
            parallel=result.stats.get("parallel"),
        )
        for line in table:
            print(line, file=out)
    if result.found:
        _format_package(result.package, result.query, out)
    else:
        print("no valid package exists", file=out)
    print(file=out)
    return None


def _cmd_repl(args, out):
    """Interactive (or batch-file) evaluation session over one relation.

    Statements are read until a terminating ``;`` — from ``--file`` in
    batch mode, from stdin otherwise.  All statements share one
    :class:`~repro.core.session.EvaluationSession`: compiled kernels,
    shard/zone statistics, WHERE scans and validated results carry
    across statements; with ``--store`` the WHERE scans
    and validated results also outlive the process.  Meta-commands:
    ``\\stats`` prints the cache counters, ``\\quit`` exits; prefixing
    a statement with ``EXPLAIN`` appends its stage table.
    """
    from repro.core.session import EvaluationSession

    relation = _load_relation(args)
    store_path = getattr(args, "store", None)
    session = EvaluationSession(
        relation,
        options=_engine_options(args),
        store_path=store_path,
        store_max_bytes=(
            getattr(args, "max_bytes", None) if store_path else None
        ),
    )
    if args.file:
        path = pathlib.Path(args.file)
        if not path.exists():
            raise CliError(f"no such file: {path}")
        source = path.read_text(encoding="utf-8")
    else:
        source = None

    payloads = []
    failures = 0

    def run_statement(statement):
        nonlocal failures
        try:
            payload = _repl_statement(session, statement, args, out)
        except (EngineError, ILPTranslationError, PaQLError) as exc:
            failures += 1
            if args.json:
                payloads.append({"error": str(exc)})
            else:
                print(f"error: {exc}", file=out)
            return
        if payload is not None:
            payloads.append(payload)

    if source is not None:
        statements, remainder = _split_statements(source)
        if remainder.strip():
            statements.append(remainder.strip())
        for statement in statements:
            run_statement(statement)
    else:
        # No prompt under --json: stdout must stay one parseable
        # document, not prompts interleaved with the payload.
        interactive = sys.stdin.isatty() and not args.json
        buffer = ""
        while True:
            if interactive:
                print("paql> ", end="", file=out, flush=True)
            line = sys.stdin.readline()
            if not line:
                break
            stripped = line.strip()
            # PaQL has no backslash tokens, so a \-prefixed line is
            # always a meta-command — even mid-statement, so a user
            # can abort a half-typed statement with \quit.
            if stripped.startswith("\\"):
                if stripped == "\\quit":
                    # Abort, don't evaluate: a half-typed statement in
                    # the buffer is being abandoned, not submitted.
                    buffer = ""
                    break
                if stripped == "\\stats":
                    # Under --json meta output joins the document;
                    # printing here would break the one-parseable-
                    # document contract.
                    if args.json:
                        payloads.append(
                            {"cache_stats": session.cache_stats()}
                        )
                    else:
                        print(
                            json.dumps(session.cache_stats(), indent=2),
                            file=out,
                        )
                    continue
                if args.json:
                    payloads.append({"error": f"unknown command: {stripped}"})
                else:
                    print(f"unknown command: {stripped}", file=out)
                continue
            buffer += line
            statements, buffer = _split_statements(buffer)
            for statement in statements:
                run_statement(statement)
        if buffer.strip():
            run_statement(buffer.strip())

    if args.json:
        # One parseable document: --stats folds into the payload
        # instead of trailing a second JSON blob after a text header.
        document = (
            {"statements": payloads, "cache_stats": session.cache_stats()}
            if args.stats
            else payloads
        )
        print(json.dumps(document, indent=2, default=str), file=out)
    elif args.stats:
        print("session cache stats:", file=out)
        print(json.dumps(session.cache_stats(), indent=2), file=out)
    # Flush pooled resources and (for --store sessions) the durable
    # store's lifetime counters.
    session.close()
    return 0 if failures == 0 else 1


def _cmd_serve(args, out):
    """Run the long-lived package-query server until SIGTERM/SIGINT.

    ``--workers`` here is *server* worker threads (concurrent
    evaluations); engine shard workers are ``--engine-workers``.
    """
    import signal
    import threading

    from repro.core.server import PackageQueryServer
    from repro.core.server_pool import SessionPool, parse_relation_specs

    try:
        specs = parse_relation_specs(args.relations)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    options = EngineOptions(
        strategy=args.strategy,
        shards=args.shards,
        workers=args.engine_workers,
    )
    pool = SessionPool(
        specs,
        options=options,
        store_root=args.store,
        store_max_bytes=args.max_bytes if args.store else None,
    )
    server = PackageQueryServer(
        pool,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_budget_ms=args.max_budget_ms,
    ).start()
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    print(
        f"serving {', '.join(sorted(specs))} on {server.address} "
        f"({args.workers} workers, queue depth {args.queue_depth}"
        + (f", store {args.store}" if args.store else "")
        + "); SIGTERM drains",
        file=out,
    )
    try:
        stop.wait()
    finally:
        print("draining: finishing in-flight queries...", file=out)
        server.close()
        print("drained; sessions closed", file=out)
    return 0


def _cmd_describe(args, out):
    text = _read_query_text(args)
    query = parse(text)
    print(describe_text(query), file=out)
    return 0


def _cmd_strategies(args, out):
    for strategy in sorted(all_strategies(), key=lambda s: s.name):
        kind = "exact" if strategy.exact else "heuristic"
        auto = "auto-eligible" if strategy.auto_eligible else "explicit only"
        print(f"{strategy.name} ({kind}, {auto})", file=out)
        print(f"  {strategy.summary}", file=out)
    return 0


def _open_store(args):
    from repro.core.artifact_store import ArtifactStore

    return ArtifactStore(
        args.store, max_bytes=getattr(args, "max_bytes", None)
    )


def _cmd_cache_stats(args, out):
    """Per-layer entries/bytes on disk plus lifetime hit/miss counters.

    With ``--max-bytes`` this is also a scriptable eviction path: one
    LRU eviction pass runs down to the bound before reporting, so a
    cron job can cap a shared store without clearing it.
    """
    store = _open_store(args)
    evicted_now = store.enforce_limit() if store.max_bytes is not None else 0
    disk = store.disk_stats()
    lifetime = store.lifetime_counters()
    if args.json:
        print(
            json.dumps(
                {
                    "disk": disk,
                    "counters": lifetime,
                    "evicted_now": evicted_now,
                },
                indent=2,
                default=str,
            ),
            file=out,
        )
        return 0
    print(f"store: {disk['root']}", file=out)
    bound = (
        f"  max_bytes: {disk['max_bytes']}"
        if disk["max_bytes"] is not None
        else ""
    )
    print(
        f"relations: {len(disk['relations'])}  entries: {disk['entries']}  "
        f"bytes: {disk['bytes']}{bound}",
        file=out,
    )
    if disk["degraded"]:
        print(f"DEGRADED (memory-only): {disk['degraded']}", file=out)
    header = (
        f"{'layer':<14}{'entries':>9}{'bytes':>12}{'hits':>8}{'misses':>8}"
        f"{'evicted':>9}{'rate':>7}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for layer, usage in disk["layers"].items():
        counters = lifetime.get(layer, {})
        hits = counters.get("hits", 0)
        misses = counters.get("misses", 0)
        rate = f"{hits / (hits + misses):.0%}" if hits + misses else "-"
        print(
            f"{layer:<14}{usage['entries']:>9}{usage['bytes']:>12}"
            f"{hits:>8}{misses:>8}{counters.get('evicted', 0):>9}{rate:>7}",
            file=out,
        )
    rejected = sum(c.get("rejected", 0) for c in lifetime.values())
    errors = sum(c.get("errors", 0) for c in lifetime.values())
    evicted = sum(c.get("evicted", 0) for c in lifetime.values())
    if rejected or errors or evicted:
        print(
            f"rejected entries: {rejected}  write errors: {errors}  "
            f"evicted: {evicted}",
            file=out,
        )
    if evicted_now:
        print(f"evicted this pass: {evicted_now}", file=out)
    return 0


def _cmd_cache_verify(args, out):
    """Integrity-check every entry; oracle-revalidate stored results.

    The shallow pass (format, engine version, checksum) covers the
    whole store.  The deep pass — rebuilding each stored result's
    package and re-running the engine's validation oracle — needs the
    data, so it covers the relation given via ``--csv``; stored
    results for other relations get the shallow pass only.
    ``--purge`` deletes entries that fail either pass.
    """
    store = _open_store(args)
    shallow = store.verify()
    failed = list(shallow["failed"])
    revalidated = {"checked": 0, "ok": 0}
    if args.csv:
        from repro.core.package import Package
        from repro.core.validator import validate
        from repro.relational.content_hash import relation_fingerprint

        relation = _load_relation(args)
        relation_hash = relation_fingerprint(relation)
        for _, path, _ in store.entries("results", relation_hash):
            revalidated["checked"] += 1
            try:
                _, cached = store.load_entry(path)
                if cached.counts is not None:
                    package = Package(relation, dict(cached.counts))
                    report = validate(package, cached.query)
                    if not report.valid:
                        raise ValueError(
                            "stored package fails the validation oracle"
                        )
            except Exception as exc:
                failed.append((str(path), str(exc)))
            else:
                revalidated["ok"] += 1
    if args.purge:
        for path, _ in failed:
            try:
                pathlib.Path(path).unlink()
            except OSError:
                pass
    payload = {
        "checked": shallow["checked"],
        "ok": shallow["ok"],
        "results_revalidated": revalidated,
        "failed": [{"path": path, "reason": reason} for path, reason in failed],
        "purged": bool(args.purge) and bool(failed),
    }
    if args.json:
        print(json.dumps(payload, indent=2, default=str), file=out)
        return 0 if not failed else 1
    print(
        f"integrity: {shallow['ok']}/{shallow['checked']} entries ok",
        file=out,
    )
    if args.csv:
        print(
            f"oracle revalidation: {revalidated['ok']}/"
            f"{revalidated['checked']} stored results valid",
            file=out,
        )
    for path, reason in failed:
        action = "purged" if args.purge else "failed"
        print(f"  {action}: {path} ({reason})", file=out)
    return 0 if not failed else 1


def _cmd_cache_clear(args, out):
    """Delete stored artifacts, for one relation or the whole store."""
    store = _open_store(args)
    selectors = [bool(args.all), bool(args.csv), bool(args.relation_hash)]
    if sum(selectors) != 1:
        raise CliError(
            "pass exactly one of --all, --csv, or --relation-hash"
        )
    if args.all:
        removed = store.clear()
        scope = "all relations"
    else:
        if args.csv:
            from repro.relational.content_hash import relation_fingerprint

            relation_hash = relation_fingerprint(_load_relation(args))
        else:
            relation_hash = args.relation_hash
        removed = store.clear(relation_hash)
        scope = f"relation {relation_hash}"
    if args.json:
        print(json.dumps({"removed": removed, "scope": scope}), file=out)
        return 0
    print(f"removed {removed} entries ({scope})", file=out)
    return 0


_DEMOS = {
    "meal": (
        "repro.datasets",
        "generate_recipes",
        {"n": 300},
        "MEAL_PLANNER_QUERY",
    ),
    "vacation": (
        "repro.datasets",
        "generate_travel_products",
        {},
        "VACATION_QUERY",
    ),
    "portfolio": (
        "repro.datasets",
        "generate_stocks",
        {"n": 150},
        "PORTFOLIO_QUERY",
    ),
}


def _cmd_demo(args, out):
    import importlib

    module_name, maker_name, kwargs, query_name = _DEMOS[args.scenario]
    module = importlib.import_module(module_name)
    relation = getattr(module, maker_name)(**kwargs)
    text = getattr(module, query_name)
    print(text.strip(), file=out)
    print(file=out)
    evaluator = PackageQueryEvaluator(relation)
    result = evaluator.evaluate(text)
    print(
        f"status: {result.status.value}  strategy: {result.strategy}  "
        f"({result.elapsed_seconds * 1000:.1f} ms)",
        file=out,
    )
    if result.found:
        _format_package(result.package, result.query, out)
        return 0
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PackageBuilder reproduction: evaluate PaQL package queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_engine_flags(command, strategy=True):
        """The engine option flags shared by every evaluating command."""
        if strategy:
            command.add_argument(
                "--strategy",
                default="auto",
                choices=["auto", *strategy_names()],
                help=(
                    "evaluation strategy: auto (cost-model choice) or one "
                    "of the registered strategies; see 'repro strategies'"
                ),
            )
        command.add_argument(
            "--shards",
            type=int,
            default=1,
            help=(
                "shard the scan stages into this many contiguous shards "
                "(zone maps skip shards that cannot match; results are "
                "identical to --shards 1)"
            ),
        )
        command.add_argument(
            "--workers",
            type=int,
            default=0,
            help=(
                "worker threads for shard- and column-parallel stages "
                "(0 = one per CPU, 1 = no threads)"
            ),
        )
        command.add_argument(
            "--reduce",
            default="safe",
            choices=["off", "safe", "aggressive"],
            help=(
                "candidate-space reduction before strategy dispatch: safe "
                "fixes out provably-absent tuples (parity-preserving), "
                "aggressive adds proof-gated dominance pruning, off "
                "restores the unreduced pipeline"
            ),
        )

    query = sub.add_parser("query", help="run a PaQL query against a CSV file")
    query.add_argument("--csv", required=True, help="CSV file with a header row")
    query.add_argument("--relation", help="relation name (default: file stem)")
    query.add_argument("--query", help="PaQL text")
    query.add_argument("--query-file", help="file containing PaQL text")
    query.add_argument(
        "--top", type=int, default=1, help="return the best N distinct packages"
    )
    query.add_argument(
        "--diverse",
        type=int,
        default=0,
        help="pick this many diverse packages out of --top",
    )
    query.add_argument("--json", action="store_true", help="JSON output")
    query.add_argument(
        "--explain", action="store_true", help="print bounds and strategy stats"
    )
    _add_engine_flags(query)
    query.set_defaults(func=_cmd_query)

    desc = sub.add_parser("describe", help="explain a PaQL query in English")
    desc.add_argument("--query", help="PaQL text")
    desc.add_argument("--query-file", help="file containing PaQL text")
    desc.set_defaults(func=_cmd_describe)

    strategies_cmd = sub.add_parser(
        "strategies",
        help=(
            "list the registered evaluation strategies "
            f"({', '.join(strategy_names())})"
        ),
    )
    strategies_cmd.set_defaults(func=_cmd_strategies)

    plan_cmd = sub.add_parser(
        "plan",
        help=(
            "show the evaluation plan without solving (which strategy "
            "auto would pick, and why)"
        ),
    )
    plan_cmd.add_argument("--csv", required=True)
    plan_cmd.add_argument("--relation", help="relation name (default: file stem)")
    plan_cmd.add_argument("--query", help="PaQL text")
    plan_cmd.add_argument("--query-file", help="file containing PaQL text")
    _add_engine_flags(plan_cmd, strategy=False)
    plan_cmd.set_defaults(func=_cmd_plan)

    explain_cmd = sub.add_parser(
        "explain",
        help=(
            "run one query and render the staged pipeline as a table "
            "(stage, fixpoint round, rows in/out, time, skip reason)"
        ),
    )
    explain_cmd.add_argument("--csv", required=True)
    explain_cmd.add_argument(
        "--relation", help="relation name (default: file stem)"
    )
    explain_cmd.add_argument("--query", help="PaQL text")
    explain_cmd.add_argument("--query-file", help="file containing PaQL text")
    explain_cmd.add_argument(
        "--simulate",
        action="store_true",
        help="simulate instead of executing (nothing is solved)",
    )
    explain_cmd.add_argument(
        "--store",
        help=(
            "durable artifact store directory: warm artifacts are read "
            "from (and written to) disk, and the table footer reports "
            "the query's store hits/misses"
        ),
    )
    explain_cmd.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="store size bound in bytes (LRU eviction past it)",
    )
    _add_engine_flags(explain_cmd)
    explain_cmd.set_defaults(func=_cmd_explain)

    repl = sub.add_parser(
        "repl",
        help=(
            "evaluate many queries over one relation in a shared "
            "session (cached kernels, shards, scans, validated "
            "results); reads ';'-terminated statements from "
            "stdin, or from --file in batch mode"
        ),
    )
    repl.add_argument("--csv", required=True, help="CSV file with a header row")
    repl.add_argument("--relation", help="relation name (default: file stem)")
    repl.add_argument(
        "--file", help="batch mode: run the ';'-separated statements in FILE"
    )
    repl.add_argument("--json", action="store_true", help="JSON output")
    repl.add_argument(
        "--stats",
        action="store_true",
        help="print session cache statistics after the run",
    )
    repl.add_argument(
        "--store",
        help=(
            "durable artifact store directory: the session warms from "
            "disk (kernel inputs, scans, facts, validated results) and "
            "persists fresh artifacts; \\stats includes store counters"
        ),
    )
    repl.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="store size bound in bytes (LRU eviction past it)",
    )
    _add_engine_flags(repl)
    repl.set_defaults(func=_cmd_repl)

    cache = sub.add_parser(
        "cache",
        help=(
            "inspect and maintain a durable artifact store "
            "(stats / verify / clear)"
        ),
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats",
        help="per-layer entries, bytes, and lifetime hit/miss counters",
    )
    cache_stats.add_argument(
        "--store", required=True, help="artifact store directory"
    )
    cache_stats.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help=(
            "size bound in bytes: report against it and run one LRU "
            "eviction pass down to it (a scriptable eviction path)"
        ),
    )
    cache_stats.add_argument("--json", action="store_true", help="JSON output")
    cache_stats.set_defaults(func=_cmd_cache_stats)

    cache_verify = cache_sub.add_parser(
        "verify",
        help=(
            "integrity-check every stored entry; with --csv, also "
            "re-validate that relation's stored results through the "
            "engine's oracle gate"
        ),
    )
    cache_verify.add_argument(
        "--store", required=True, help="artifact store directory"
    )
    cache_verify.add_argument(
        "--csv",
        help="relation data: enables deep oracle revalidation of results",
    )
    cache_verify.add_argument(
        "--relation", help="relation name (default: file stem)"
    )
    cache_verify.add_argument(
        "--purge",
        action="store_true",
        help="delete entries that fail verification",
    )
    cache_verify.add_argument("--json", action="store_true", help="JSON output")
    cache_verify.set_defaults(func=_cmd_cache_verify)

    cache_clear = cache_sub.add_parser(
        "clear", help="delete stored artifacts (by relation, or all)"
    )
    cache_clear.add_argument(
        "--store", required=True, help="artifact store directory"
    )
    cache_clear.add_argument(
        "--all", action="store_true", help="clear every relation and layer"
    )
    cache_clear.add_argument(
        "--csv", help="clear the relation-scoped layers for this CSV's data"
    )
    cache_clear.add_argument(
        "--relation", help="relation name (default: file stem)"
    )
    cache_clear.add_argument(
        "--relation-hash", help="clear by relation content hash"
    )
    cache_clear.add_argument("--json", action="store_true", help="JSON output")
    cache_clear.set_defaults(func=_cmd_cache_clear)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the concurrent multi-tenant package-query server "
            "(one pooled EvaluationSession per relation, bounded "
            "worker queue, per-query budgets; SIGTERM drains)"
        ),
    )
    serve.add_argument(
        "--relations",
        required=True,
        help=(
            "comma-separated NAME=KIND:ROWS[:SEED] specs, e.g. "
            "Readings=clustered:100000:13,Recipes=recipes:500"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8077, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="server worker threads (bounds concurrent evaluations)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="admission bound; requests beyond it are answered 429",
    )
    serve.add_argument(
        "--store",
        help="durable artifact store root (one subdirectory per relation)",
    )
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help=(
            "per-relation store size bound in bytes; least-recently-"
            "used entries are evicted when a store grows past it"
        ),
    )
    serve.add_argument(
        "--max-budget-ms",
        type=float,
        default=None,
        help="clamp applied to client-requested per-query budgets",
    )
    serve.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", *strategy_names()],
        help="engine strategy for every session",
    )
    serve.add_argument(
        "--shards", type=int, default=8, help="shard count per session"
    )
    serve.add_argument(
        "--engine-workers",
        type=int,
        default=0,
        help="engine shard workers (0 = one per CPU); not server threads",
    )
    serve.set_defaults(func=_cmd_serve)

    demo = sub.add_parser("demo", help="run a built-in paper scenario")
    demo.add_argument("scenario", choices=sorted(_DEMOS))
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (CliError, EngineError, ILPTranslationError, PaQLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
