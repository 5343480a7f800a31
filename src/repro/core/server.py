"""A concurrent, multi-tenant package-query server (stdlib only).

``repro serve`` turns the evaluation session into a long-lived
process: one :class:`~repro.core.server_pool.SessionPool` shares a
session per relation across every client, so the artifact layers
(scans and validated replays)
amortize across the whole tenant population instead of one caller.

Execution is decoupled from connection handling through a **bounded
worker queue**:

* Each HTTP connection gets a handler thread
  (:class:`ThreadingHTTPServer`), which parses the request and tries a
  non-blocking put onto ``queue.Queue(maxsize=queue_depth)``.
* A fixed pool of worker threads drains the queue and runs queries
  through the shared sessions.
* When the queue is full the handler answers **429** immediately
  (with ``Retry-After``) — admission control, not buffering: a slow
  query cannot grow an unbounded backlog, and clients learn to back
  off instead of timing out.

Per-query budgets ride the anytime machinery
(:class:`~repro.core.anytime.AnytimeEnumerator`): a request carrying
``budget_ms`` runs the pipeline's analysis half, then enumerates the
package space in budget-bounded slices.  If the space is exhausted in
time the result is exact; otherwise the response carries the best
incumbent found so far under status ``"budget"``.  When the deadline
expires with *no* incumbent (budget starvation on a sparse package
space), the server falls back to an oracle-validated local-search
incumbent under status ``"budget-fallback"`` — a budgeted request
returns a feasible package whenever one exists.  Budgeted outcomes
are **never** written to the result cache — an incumbent must not
replay as if it were the validated optimum.

Endpoints (JSON over HTTP):

* ``POST /query``   — ``{"relation", "query", "budget_ms"?, "strategy"?}``
* ``POST /explain`` — same body; adds the rendered stage table
* ``GET  /stats``   — queue depth, admission counters, per-endpoint
  latency percentiles, per-relation cache counters, and a ``faults``
  block (injected-fault counters, degraded stores)
* ``GET  /healthz`` — liveness (never queued)

Shutdown drains: the listener stops accepting, in-flight handlers and
queued jobs finish, workers exit on sentinels, and the pool closes its
sessions (flushing durable-store counters).
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core import faults
from repro.core.anytime import AnytimeEnumerator
from repro.core.engine import EngineError
from repro.core.result import ResultStatus
from repro.core.translate_ilp import ILPTranslationError
from repro.core.validator import objective_value
from repro.paql.ast import Direction
from repro.paql.errors import PaQLError

__all__ = ["PackageQueryServer", "ServerClient"]

#: Upper bound a handler waits for its job before answering 504; the
#: worker keeps running (its result is simply discarded), so a stuck
#: query never wedges the connection pool.
_REQUEST_TIMEOUT_SECONDS = 300.0

#: Slice width for budgeted enumeration: small enough that the
#: deadline overshoot stays in the tens of milliseconds, large enough
#: that slice bookkeeping does not dominate.
_BUDGET_SLICE_SECONDS = 0.05

_CLIENT_ERRORS = (EngineError, ILPTranslationError, PaQLError, ValueError)


class _Job:
    """One queued request: inputs, a done event, and the outcome."""

    __slots__ = (
        "kind",
        "relation",
        "text",
        "budget_ms",
        "strategy",
        "done",
        "status_code",
        "payload",
    )

    def __init__(self, kind, relation, text, budget_ms=None, strategy=None):
        self.kind = kind
        self.relation = relation
        self.text = text
        self.budget_ms = budget_ms
        self.strategy = strategy
        self.done = threading.Event()
        self.status_code = 500
        self.payload = {"error": "internal error"}


class _EndpointStats:
    """Latency/error counters for one endpoint (bounded memory)."""

    def __init__(self, keep=512):
        self._lock = threading.Lock()
        self.count = 0
        self.errors = 0
        self._recent_ms = deque(maxlen=keep)

    def record(self, elapsed_seconds, error=False):
        with self._lock:
            self.count += 1
            if error:
                self.errors += 1
            self._recent_ms.append(elapsed_seconds * 1000.0)

    def snapshot(self):
        with self._lock:
            recent = sorted(self._recent_ms)
            out = {"count": self.count, "errors": self.errors}
        if recent:
            out["p50_ms"] = round(_percentile(recent, 0.50), 3)
            out["p99_ms"] = round(_percentile(recent, 0.99), 3)
        return out


def _percentile(sorted_values, fraction):
    index = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[index]


def _result_payload(result, cached=None):
    """The JSON body for a completed (non-budget) evaluation."""
    package = result.package
    payload = {
        "status": result.status.value,
        "strategy": result.strategy,
        "objective": result.objective,
        "candidate_count": result.candidate_count,
        "elapsed_ms": round(result.elapsed_seconds * 1000.0, 3),
        "package": (
            {str(rid): count for rid, count in package.counts}
            if package is not None
            else None
        ),
    }
    session_stats = result.stats.get("session")
    payload["cached"] = bool(
        session_stats and session_stats.get("result_cache") == "hit"
    ) if cached is None else cached
    return payload


class PackageQueryServer:
    """The long-lived serving process around a :class:`SessionPool`.

    Args:
        pool: the per-relation session pool (closed with the server
            when ``owns_pool`` is true, the default).
        host, port: bind address; ``port=0`` picks a free port (the
            test harness's mode) — read :attr:`port` after ``start()``.
        workers: executor threads draining the queue.  This bounds
            *concurrent evaluations*; connection handling scales
            separately (one thread per in-flight request).
        queue_depth: admission bound — requests beyond
            ``workers + queue_depth`` in flight are answered 429.
        max_budget_ms: optional clamp applied to client budgets.
    """

    def __init__(
        self,
        pool,
        host="127.0.0.1",
        port=0,
        workers=4,
        queue_depth=8,
        max_budget_ms=None,
        owns_pool=True,
    ):
        self.pool = pool
        self._host = host
        self._requested_port = port
        self._workers = max(1, int(workers))
        self._queue_depth = max(1, int(queue_depth))
        self._max_budget_ms = max_budget_ms
        self._owns_pool = owns_pool
        self._queue = queue.Queue(maxsize=self._queue_depth)
        self._worker_threads = []
        self._httpd = None
        self._serve_thread = None
        self._started_monotonic = None
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        self._counter_lock = threading.Lock()
        self.counters = {
            "accepted": 0,
            "rejected_full": 0,
            "completed": 0,
            "errors": 0,
            "budget_runs": 0,
            "budget_expired": 0,
            "budget_fallbacks": 0,
            "disconnects": 0,
        }
        self._endpoints = {
            "/query": _EndpointStats(),
            "/explain": _EndpointStats(),
            "/stats": _EndpointStats(),
            "/healthz": _EndpointStats(),
        }
        #: Test hook: called as ``before_execute(job)`` in the worker
        #: right before evaluation.  The fault harness injects slow
        #: queries and store corruption here; never set in production.
        self.before_execute = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind, spawn workers, and serve in background threads."""
        server = self

        class _Handler(_RequestHandler):
            package_server = server

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        # Joined on close: an in-flight handler finishes its response
        # during drain instead of dying mid-write.
        self._httpd.daemon_threads = False
        self._started_monotonic = time.monotonic()
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-listener",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    @property
    def port(self):
        return self._httpd.server_address[1]

    @property
    def address(self):
        return f"http://{self._host}:{self.port}"

    def close(self):
        """Drain and shut down; idempotent.

        Order matters: stop accepting first, then join handler threads
        (whose queued jobs the still-running workers finish), then
        stop the workers with sentinels — FIFO puts them behind every
        admitted job — and finally close the pool, which flushes
        durable-store counters.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for _ in self._worker_threads:
            self._queue.put(None)
        for thread in self._worker_threads:
            thread.join()
        if self._serve_thread is not None:
            self._serve_thread.join()
        if self._owns_pool:
            self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- admission + execution ----------------------------------------------

    def submit(self, job):
        """Admit ``job`` or reject it; returns True when queued."""
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._count("rejected_full")
            return False
        self._count("accepted")
        return True

    def _count(self, field, amount=1):
        with self._counter_lock:
            self.counters[field] += amount

    def _worker_loop(self):
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._execute(job)
                self._count("completed")
            except _CLIENT_ERRORS as exc:
                job.status_code = 400
                job.payload = {"error": str(exc)}
                self._count("errors")
            except KeyError:
                job.status_code = 404
                job.payload = {
                    "error": f"unknown relation {job.relation!r}",
                    "relations": self.pool.relation_names,
                }
                self._count("errors")
            except Exception as exc:  # the worker must survive anything
                job.status_code = 500
                job.payload = {"error": f"{type(exc).__name__}: {exc}"}
                self._count("errors")
            finally:
                job.done.set()

    def _execute(self, job):
        # The server.execute fault site: an injected fault here lands
        # in the worker loop's generic handler — a clean 500 to this
        # one client, the worker and its session untouched.
        faults.fault_point("server.execute")
        session = self.pool.session(job.relation)
        hook = self.before_execute
        if hook is not None:
            hook(job)
        options = self.pool.options
        if job.strategy is not None:
            options = dataclasses.replace(options, strategy=job.strategy)
        if job.budget_ms is not None:
            job.payload = self._run_budgeted(session, job, options)
            job.status_code = 200
            return
        if job.kind == "explain":
            result, table = session.explain(job.text, options)
            job.payload = _result_payload(result)
            job.payload["table"] = list(table)
        else:
            result = session.evaluate(job.text, options)
            job.payload = _result_payload(result)
        job.status_code = 200

    def _run_budgeted(self, session, job, options):
        """The anytime path: enumerate in slices until the deadline.

        The analysis half (scans, bounds, reduction) runs through the
        session's artifact caches as usual — those artifacts are
        correct regardless of how the query finishes.  The *result*
        cache is never touched: an incumbent is not the validated
        optimum and must never replay as one.
        """
        budget_ms = job.budget_ms
        if self._max_budget_ms is not None:
            budget_ms = min(budget_ms, self._max_budget_ms)
        deadline = time.perf_counter() + budget_ms / 1000.0
        started = time.perf_counter()
        self._count("budget_runs")

        evaluator = session.evaluator
        query = evaluator.prepare(job.text)
        # Keep the analyzed context: if enumeration expires with no
        # incumbent, the local-search fallback below reuses it.
        ctx = evaluator.context(query, options)
        enumerator = AnytimeEnumerator.from_context(ctx)
        direction = (
            query.objective.direction if query.objective is not None else None
        )
        best = None
        best_value = None
        scored = 0
        # Score incumbents inside the loop, not after it: a dense
        # package space can yield packages far faster than they can
        # be scored, so the scoring cost must count against the
        # budget too (the per-slice package cap keeps each lap
        # bounded either way).
        while not enumerator.complete:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            enumerator.run(
                max_packages=256,
                max_seconds=min(remaining, _BUDGET_SLICE_SECONDS),
            )
            pool = enumerator.packages
            for package in pool[scored:]:
                value = objective_value(package, query)
                if best is None:
                    best, best_value = package, value
                elif direction is not None and value is not None:
                    if (
                        direction is Direction.MAXIMIZE
                        and value > best_value
                    ) or (
                        direction is Direction.MINIMIZE
                        and value < best_value
                    ):
                        best, best_value = package, value
            scored = len(pool)

        complete = enumerator.complete
        strategy_name = "anytime"
        if complete:
            status = (
                ResultStatus.OPTIMAL.value
                if best is not None
                else ResultStatus.INFEASIBLE.value
            )
        else:
            status = "budget"
            self._count("budget_expired")
            if best is None:
                # Budget starvation: the deadline expired before
                # enumeration produced a single incumbent (sparse
                # package spaces burn the whole budget proving
                # nothing).  Fall back to a local-search incumbent —
                # oracle-validated, never cached — so the client gets
                # a feasible package whenever one exists.
                fallback = evaluator.local_incumbent(ctx)
                if fallback is not None:
                    best, best_value = fallback
                    status = "budget-fallback"
                    strategy_name = "anytime+local-search"
                    self._count("budget_fallbacks")
        return {
            "status": status,
            "strategy": strategy_name,
            "objective": best_value,
            "complete": complete,
            "found": enumerator.found,
            "budget_ms": budget_ms,
            "elapsed_ms": round(
                (time.perf_counter() - started) * 1000.0, 3
            ),
            "package": (
                {str(rid): count for rid, count in best.counts}
                if best is not None
                else None
            ),
            "cached": False,
        }

    # -- observability -------------------------------------------------------

    def stats(self):
        with self._counter_lock:
            admission = dict(self.counters)
        return {
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            )
            if self._started_monotonic is not None
            else 0.0,
            "queue": {
                "capacity": self._queue_depth,
                "depth": self._queue.qsize(),
                "workers": self._workers,
            },
            "admission": admission,
            "endpoints": {
                path: stats.snapshot()
                for path, stats in sorted(self._endpoints.items())
            },
            "relations": self.pool.stats(),
            # Degradations are observable remotely: per-site injected
            # fault counters (empty when no plan is armed) and any
            # artifact store that fell back to memory-only mode.
            "faults": {
                "injected": faults.fired_counts(),
                "degraded_stores": self.pool.degraded_stores(),
            },
        }

    def record_endpoint(self, path, elapsed_seconds, error=False):
        stats = self._endpoints.get(path)
        if stats is not None:
            stats.record(elapsed_seconds, error=error)


class _RequestHandler(BaseHTTPRequestHandler):
    """Parses requests, enforces admission, writes JSON responses."""

    package_server = None  # injected per-server subclass
    protocol_version = "HTTP/1.1"
    # One send() per response instead of one per header line: the
    # unbuffered default interacts with Nagle + delayed ACK into a
    # ~40ms stall per request, which would dominate warm latency.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the server exposes /stats instead of an access log

    def _reply(self, code, payload, headers=()):
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client hung up mid-response.  Only this handler
            # thread notices; the worker that computed the result is
            # untouched (it never sees the socket).
            self.package_server._count("disconnects")
            self.close_connection = True

    def _read_json_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- endpoints -----------------------------------------------------------

    def do_GET(self):
        server = self.package_server
        started = time.perf_counter()
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
            server.record_endpoint(
                "/healthz", time.perf_counter() - started
            )
        elif self.path == "/stats":
            self._reply(200, server.stats())
            server.record_endpoint("/stats", time.perf_counter() - started)
        else:
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self):
        if self.path not in ("/query", "/explain"):
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})
            return
        server = self.package_server
        started = time.perf_counter()
        error = True
        try:
            try:
                body = self._read_json_body()
                job = self._build_job(body)
            except ValueError as exc:
                self._reply(400, {"error": str(exc)})
                return
            if not server.submit(job):
                self._reply(
                    429,
                    {
                        "error": "worker queue is full",
                        "queue_depth": server._queue_depth,
                    },
                    headers=(("Retry-After", "1"),),
                )
                return
            if not job.done.wait(_REQUEST_TIMEOUT_SECONDS):
                self._reply(504, {"error": "query timed out server-side"})
                return
            error = job.status_code >= 500
            self._reply(job.status_code, job.payload)
        finally:
            server.record_endpoint(
                self.path, time.perf_counter() - started, error=error
            )

    def _build_job(self, body):
        relation = body.get("relation")
        text = body.get("query")
        if not relation or not isinstance(relation, str):
            raise ValueError("missing 'relation'")
        if not text or not isinstance(text, str):
            raise ValueError("missing 'query'")
        budget_ms = body.get("budget_ms")
        if budget_ms is not None:
            budget_ms = float(budget_ms)
            if budget_ms <= 0:
                raise ValueError("'budget_ms' must be positive")
        strategy = body.get("strategy")
        if strategy is not None and not isinstance(strategy, str):
            raise ValueError("'strategy' must be a string")
        return _Job(
            "explain" if self.path == "/explain" else "query",
            relation,
            text,
            budget_ms=budget_ms,
            strategy=strategy,
        )


class ServerClient:
    """A minimal stdlib HTTP client for tests and benchmark drivers.

    Each instance owns one persistent connection (HTTP/1.1
    keep-alive); instances are not thread-safe — give each client
    thread its own.
    """

    def __init__(self, host, port, timeout=320.0):
        import http.client

        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method, path, body=None):
        """Returns ``(status_code, payload_dict)``.

        The payload carries the server's ``Retry-After`` header (when
        present) as ``payload["retry_after"]`` so callers can honor
        admission backpressure.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {"raw": raw.decode("utf-8", "replace")}
        retry_after = response.getheader("Retry-After")
        if retry_after is not None and isinstance(decoded, dict):
            try:
                decoded["retry_after"] = float(retry_after)
            except ValueError:
                pass
        return response.status, decoded

    def query(self, relation, text, budget_ms=None, strategy=None,
              max_retries=0):
        """POST one query; optionally honor 429 admission backpressure.

        With ``max_retries > 0``, a 429 response is retried after
        sleeping the server's ``Retry-After`` hint scaled by a jittered
        exponential backoff (full jitter: ``uniform(0, hint * 2**n)``,
        capped), so a fleet of rejected clients spreads its retries
        instead of stampeding the queue in lockstep.  The final 429 is
        returned when retries are exhausted.
        """
        import random
        import time as _time

        body = {"relation": relation, "query": text}
        if budget_ms is not None:
            body["budget_ms"] = budget_ms
        if strategy is not None:
            body["strategy"] = strategy
        attempt = 0
        while True:
            status, payload = self.request("POST", "/query", body)
            if status != 429 or attempt >= max_retries:
                return status, payload
            hint = payload.get("retry_after", 1.0) if isinstance(
                payload, dict
            ) else 1.0
            delay = min(random.uniform(0, hint * (2 ** attempt)), 10.0)
            _time.sleep(delay)
            attempt += 1

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
