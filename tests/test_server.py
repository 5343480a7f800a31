"""The package-query server: parity, admission, budgets, faults.

Four claims carry the serving tier (driven through the in-process
harness in :mod:`tests.serverharness`):

* **Parity** — K concurrent clients over a shuffled query mix get
  results bit-identical to single-caller serial evaluation (the
  hypothesis property test).
* **Admission** — a full worker queue answers 429 immediately; every
  flooded request resolves (no hangs) and the server state is not
  corrupted by rejections.
* **Budgets** — a budget-expired query returns the anytime incumbent
  (or a clean ``budget`` status) and never poisons the result cache.
* **Faults** — drain finishes in-flight queries; a corrupted durable
  store is rejected and recomputed (counted, never served); a client
  hanging up mid-query does not kill the worker.
"""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineOptions, evaluate
from repro.datasets import clustered_relation

from tests.serverharness import (
    SESSION_QUERIES,
    ServerHarness,
    corrupt_store_payloads,
)

OPTIONS = EngineOptions(strategy="ilp", shards=4)

BUDGET_QUERY = SESSION_QUERIES[0]


@pytest.fixture(scope="module")
def relation():
    return clustered_relation(400, seed=13)


@pytest.fixture(scope="module")
def expected(relation):
    """Serial single-caller ground truth per template."""
    return {
        text: evaluate(text, relation, options=OPTIONS)
        for text in SESSION_QUERIES
    }


@pytest.fixture(scope="module")
def harness(relation):
    with ServerHarness([relation], options=OPTIONS, workers=3) as started:
        yield started


class TestEndpoints:
    def test_healthz_and_stats_shape(self, harness):
        with harness.client() as client:
            code, body = client.request("GET", "/healthz")
            assert (code, body["status"]) == (200, "ok")
            code, stats = client.request("GET", "/stats")
        assert code == 200
        assert stats["queue"]["capacity"] >= 1
        assert set(stats["admission"]) >= {"accepted", "rejected_full"}
        assert "/query" in stats["endpoints"]

    def test_unknown_endpoint_and_malformed_body(self, harness):
        with harness.client() as client:
            assert client.request("GET", "/nope")[0] == 404
            assert client.request("POST", "/query", {"relation": "R"})[0] == 400
            code, body = client.request(
                "POST", "/query", {"relation": "Nope", "query": BUDGET_QUERY}
            )
        assert code == 404
        assert body["relations"] == ["Readings"]

    def test_bad_query_text_is_a_client_error(self, harness):
        code, body = harness.query("Readings", "SELECT nonsense")
        assert code == 400
        assert "error" in body


class TestConcurrentParity:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_concurrent_mix_matches_serial(
        self, harness, expected, seed
    ):
        mix = list(SESSION_QUERIES) * 3
        random.Random(seed).shuffle(mix)
        outcomes = harness.flood(
            [{"relation": "Readings", "query": text} for text in mix],
            concurrency=4,
        )
        for text, (code, payload) in zip(mix, outcomes):
            cold = expected[text]
            assert code == 200
            assert payload["status"] == cold.status.value
            assert payload["objective"] == cold.objective


class TestAdmission:
    def test_queue_full_rejects_and_recovers(self, relation, expected):
        with ServerHarness(
            [relation], options=OPTIONS, workers=1, queue_depth=1
        ) as harness:
            harness.slow_queries(0.25)
            outcomes = harness.flood(
                [
                    {"relation": "Readings", "query": SESSION_QUERIES[0]}
                    for _ in range(8)
                ],
                concurrency=8,
            )
            codes = sorted(code for code, _ in outcomes)
            assert len(outcomes) == 8  # every request resolved, no hangs
            assert 429 in codes
            assert 200 in codes
            for code, payload in outcomes:
                if code == 429:
                    assert "error" in payload
            harness.clear_hook()
            # Rejections corrupted nothing: the next caller still gets
            # the exact serial answer.
            code, payload = harness.query(
                "Readings", SESSION_QUERIES[0]
            )
            assert code == 200
            assert (
                payload["objective"]
                == expected[SESSION_QUERIES[0]].objective
            )
            stats = harness.stats()
            assert stats["admission"]["rejected_full"] >= 1


class TestBudgets:
    def test_budget_expiry_returns_incumbent_without_poisoning_cache(
        self, relation, expected
    ):
        with ServerHarness([relation], options=OPTIONS) as harness:
            code, budget = harness.query(
                "Readings", BUDGET_QUERY, budget_ms=40
            )
            assert code == 200
            assert budget["cached"] is False
            exact = expected[BUDGET_QUERY].objective
            if budget["status"] == "budget":
                assert budget["complete"] is False
                # The incumbent is a real feasible package, so its
                # objective can only be at or below the optimum.
                if budget["objective"] is not None:
                    assert budget["objective"] <= exact
            else:
                # The space was exhausted inside the budget: exact.
                assert budget["status"] == "optimal"
                assert budget["objective"] == exact
            # The budgeted run must not have seeded the result cache:
            # the first un-budgeted evaluation is a genuine miss...
            code, full = harness.query("Readings", BUDGET_QUERY)
            assert (code, full["cached"]) == (200, False)
            assert full["objective"] == exact
            # ...and only now does the exact result replay.
            code, replay = harness.query("Readings", BUDGET_QUERY)
            assert (code, replay["cached"]) == (200, True)
            assert replay["objective"] == exact
            stats = harness.stats()
            assert stats["admission"]["budget_runs"] >= 1

    def test_max_budget_clamp(self, relation):
        with ServerHarness(
            [relation], options=OPTIONS, max_budget_ms=30
        ) as harness:
            started = time.perf_counter()
            code, payload = harness.query(
                "Readings", BUDGET_QUERY, budget_ms=60_000
            )
            elapsed = time.perf_counter() - started
        assert code == 200
        assert payload["budget_ms"] == 30
        assert elapsed < 30  # nowhere near the requested minute


class TestLifecycle:
    def test_drain_finishes_in_flight_queries(self, relation):
        harness = ServerHarness([relation], options=OPTIONS).start()
        harness.slow_queries(0.3)
        outcome = {}

        def inflight():
            outcome["response"] = harness.query(
                "Readings", SESSION_QUERIES[0]
            )

        thread = threading.Thread(target=inflight)
        thread.start()
        time.sleep(0.1)  # let the request reach the queue
        drain = harness.drain_in_background()
        thread.join(timeout=30)
        drain.join(timeout=30)
        assert not thread.is_alive() and not drain.is_alive()
        code, payload = outcome["response"]
        assert code == 200
        assert payload["status"] == "optimal"

    def test_client_disconnect_does_not_kill_the_worker(
        self, relation, expected
    ):
        with ServerHarness([relation], options=OPTIONS) as harness:
            harness.slow_queries(0.3)
            harness.disconnect_mid_query(
                "Readings", SESSION_QUERIES[0]
            )
            time.sleep(0.6)  # worker finishes against the dead socket
            harness.clear_hook()
            code, body = harness.query("Readings", SESSION_QUERIES[1])
            assert code == 200
            assert (
                body["objective"]
                == expected[SESSION_QUERIES[1]].objective
            )
            stats = harness.stats()
            assert stats["admission"]["completed"] >= 1
            assert stats["admission"]["errors"] == 0


class TestStoreFaults:
    def test_corrupted_store_is_rejected_and_recomputed(
        self, relation, expected, tmp_path
    ):
        store_root = str(tmp_path / "store")
        text = SESSION_QUERIES[0]
        with ServerHarness(
            [relation], options=OPTIONS, store_root=store_root
        ) as harness:
            code, first = harness.query("Readings", text)
            assert (code, first["status"]) == (200, "optimal")
        corrupted = corrupt_store_payloads(store_root)
        assert corrupted > 0
        with ServerHarness(
            [relation], options=OPTIONS, store_root=store_root
        ) as harness:
            code, recomputed = harness.query("Readings", text)
            assert code == 200
            assert recomputed["objective"] == expected[text].objective
            store = harness.stats()["relations"]["Readings"]["cache"]["store"]
            rejected = sum(
                layer["rejected"] for layer in store["layers"].values()
            )
        assert rejected >= 1

    def test_warm_restart_reuses_the_store(self, relation, tmp_path):
        store_root = str(tmp_path / "store")
        text = SESSION_QUERIES[0]
        with ServerHarness(
            [relation], options=OPTIONS, store_root=store_root
        ) as harness:
            assert harness.query("Readings", text)[0] == 200
        with ServerHarness(
            [relation], options=OPTIONS, store_root=store_root
        ) as harness:
            code, payload = harness.query("Readings", text)
            assert code == 200
            store = harness.stats()["relations"]["Readings"]["cache"]["store"]
            hits = sum(
                layer["hits"] for layer in store["layers"].values()
            )
        assert hits >= 1
