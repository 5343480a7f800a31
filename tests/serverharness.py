"""Reusable in-process harness for server concurrency and fault tests.

Starts a real :class:`~repro.core.server.PackageQueryServer` on an
ephemeral port (``port=0``) inside the test process, so tests can
reach both sides of the boundary: drive genuine HTTP traffic *and*
reach into the server to inject faults — slow queries (via the
``before_execute`` hook), client disconnects (a raw socket that hangs
up mid-request), queue overflow (tiny ``workers``/``queue_depth``
plus a slow hook), and durable-store corruption (bit-flipping stored
artifact payloads between requests).

Used by ``tests/test_server.py``, the chaos suite
(``tests/test_faults.py``: deterministic fault plans armed through
:meth:`ServerHarness.arm_faults`, observable through the ``/stats``
``faults`` block), and importable by any later suite that needs a live
server (the benchmark driver has its own, simpler in-process setup).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.engine import EngineOptions
from repro.core.server import PackageQueryServer, ServerClient
from repro.core.server_pool import SessionPool

__all__ = ["SESSION_QUERIES", "ServerHarness", "corrupt_store_payloads"]

#: Three templates over ``clustered_relation``'s ``Readings`` sharing
#: scan and global-constraint artifacts but differing in objective and
#: cardinality cap — cycled, they give a repeated session stream whose
#: exact repeats exercise the results layer.
SESSION_QUERIES = (
    """
    SELECT PACKAGE(R) FROM Readings R
    SUCH THAT COUNT(*) <= 12 AND MAX(R.ts) <= 30
    MAXIMIZE SUM(R.gain)
    """,
    """
    SELECT PACKAGE(R) FROM Readings R
    SUCH THAT COUNT(*) <= 12 AND MAX(R.ts) <= 30
    MINIMIZE SUM(R.cost)
    """,
    """
    SELECT PACKAGE(R) FROM Readings R
    SUCH THAT COUNT(*) <= 8 AND MAX(R.ts) <= 30
    MAXIMIZE SUM(R.gain)
    """,
)


class ServerHarness:
    """One in-process server over pre-built relations.

    Args:
        relations: iterable of relations to serve (one pooled session
            each).
        options: engine options for every session.
        workers / queue_depth: the admission geometry under test.
        store_root: optional durable-store root (``store_root/<name>``
            per relation), for warm-restart and corruption tests.
        store_max_bytes: per-relation store size bound (LRU eviction),
            for bounded-store tests.
    """

    def __init__(
        self,
        relations,
        options=None,
        workers=2,
        queue_depth=4,
        store_root=None,
        max_budget_ms=None,
        store_max_bytes=None,
    ):
        self._relations = list(relations)
        self._options = options or EngineOptions()
        self._workers = workers
        self._queue_depth = queue_depth
        self._store_root = store_root
        self._store_max_bytes = store_max_bytes
        self._max_budget_ms = max_budget_ms
        self._fault_injector = None
        self.server = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        pool = SessionPool.for_relations(
            self._relations,
            options=self._options,
            store_root=self._store_root,
            store_max_bytes=self._store_max_bytes,
        )
        self.server = PackageQueryServer(
            pool,
            workers=self._workers,
            queue_depth=self._queue_depth,
            max_budget_ms=self._max_budget_ms,
        ).start()
        return self

    def close(self):
        self.disarm_faults()
        if self.server is not None:
            self.server.close()
            self.server = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()

    @property
    def port(self):
        return self.server.port

    # -- traffic -------------------------------------------------------------

    def client(self, timeout=60.0):
        """A fresh single-connection client (one per thread)."""
        return ServerClient("127.0.0.1", self.port, timeout=timeout)

    def query(self, relation, text, **kwargs):
        """One-shot query on a throwaway connection."""
        with self.client() as client:
            return client.query(relation, text, **kwargs)

    def stats(self):
        with self.client() as client:
            return client.request("GET", "/stats")[1]

    def flood(self, bodies, concurrency=8):
        """Submit ``bodies`` concurrently; returns ``(status, payload)``
        per request, in completion-independent input order.  Every
        request gets its own connection, so admission — not client
        connection reuse — decides the outcome mix."""

        def one(body):
            with self.client() as client:
                return client.request("POST", "/query", body)

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            return list(pool.map(one, bodies))

    # -- fault injection -----------------------------------------------------

    def slow_queries(self, seconds):
        """Make every subsequent evaluation sleep first (worker-side)."""

        def hook(job):
            time.sleep(seconds)

        self.server.before_execute = hook

    def clear_hook(self):
        self.server.before_execute = None

    def disconnect_mid_query(self, relation, text):
        """Send a well-formed ``/query`` and hang up without reading.

        Returns once the request line and body are on the wire; the
        server's worker proceeds (and must survive) while the handler
        discovers the dead socket when it writes the response.
        """
        body = json.dumps({"relation": relation, "query": text}).encode()
        raw = socket.create_connection(("127.0.0.1", self.port), timeout=10)
        try:
            raw.sendall(
                b"POST /query HTTP/1.1\r\n"
                b"Host: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            # Linger long enough for the request to be parsed and
            # queued, then vanish without reading a byte.
            time.sleep(0.05)
        finally:
            raw.close()

    def drain_in_background(self):
        """Start ``server.close()`` on a thread; returns the thread."""
        thread = threading.Thread(target=self.server.close)
        thread.start()
        return thread

    def arm_faults(self, spec, seed=None):
        """Install a deterministic fault plan for this process.

        ``spec`` is ``REPRO_FAULTS`` syntax (see
        :meth:`repro.core.faults.FaultPlan.from_spec`).  The plan stays
        active until :meth:`disarm_faults` (or :meth:`close`), and its
        per-site counters surface in the ``/stats`` ``faults`` block.
        Returns the installed plan.
        """
        from repro.core import faults

        self.disarm_faults()
        self._fault_injector = faults.inject(
            faults.FaultPlan.from_spec(spec, seed=seed)
        )
        return self._fault_injector.__enter__()

    def disarm_faults(self):
        """Remove the armed fault plan, if any."""
        if self._fault_injector is not None:
            self._fault_injector.__exit__(None, None, None)
            self._fault_injector = None

    def fault_stats(self):
        """The server's ``/stats`` faults block (over real HTTP)."""
        return self.stats().get("faults", {})


def corrupt_store_payloads(store_root, limit=None):
    """Bit-flip every stored artifact payload under ``store_root``.

    Walks the content-addressed layer directories and overwrites the
    first byte of each entry's payload, leaving the file present but
    failing its checksum — the read path must *reject* (counted), not
    crash or return garbage.  Returns the number of files corrupted.
    """
    import pathlib

    corrupted = 0
    for path in sorted(pathlib.Path(store_root).rglob("*")):
        if not path.is_file() or path.name == "counters.json":
            continue
        data = path.read_bytes()
        if not data:
            continue
        path.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])
        corrupted += 1
        if limit is not None and corrupted >= limit:
            break
    return corrupted
