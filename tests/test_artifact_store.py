"""The durable artifact store: restarts, rejection, shard-level reuse.

Four properties carry the subsystem:

* **Restart equivalence** — a *different process* over bit-identical
  data (rebuilt from the same seed, nothing shared but the store
  directory) replays the stream with bit-identical packages and
  objectives.
* **Rejection, never wrong answers** — a corrupted entry (flipped
  payload byte, truncation) or an engine-version mismatch is counted
  as ``rejected`` and treated as a miss; the query recomputes and the
  answer matches a store-free evaluation.
* **Oracle gate** — a stored result whose entry is *self-consistent*
  but whose package is invalid (tampered via the put API) raises
  ``EngineError`` on replay instead of being returned.
* **Mutation-aware invalidation** — after an append touching one
  shard, the next query scans only that shard; every untouched
  shard's WHERE partial is served from the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.artifact_store import STORE_FORMAT, ArtifactStore
from repro.core.engine import EngineError, EngineOptions, PackageQueryEvaluator
from repro.core.session import EvaluationSession
from repro.datasets import clustered_relation
from repro.paql.printer import print_query
from repro.relational.sharding import ShardedRelation, ZoneStats

QUERY = (
    "SELECT PACKAGE(R) FROM Readings R WHERE R.cost <= 80.0 "
    "SUCH THAT COUNT(*) <= 3 AND MAX(R.ts) <= 30 MAXIMIZE SUM(R.gain)"
)
N = 400
SEED = 21


def _options(shards=4):
    return EngineOptions(shards=shards)


def _session(root, shards=4):
    return EvaluationSession(
        clustered_relation(N, seed=SEED),
        options=_options(shards),
        store_path=root,
    )


def _populate(root):
    with _session(root) as session:
        result = session.evaluate(QUERY)
    return result


class TestRestartEquivalence:
    def test_cold_process_replays_bit_identical(self, tmp_path):
        root = str(tmp_path / "store")
        first = _populate(root)

        # A genuinely fresh interpreter: only the store directory and
        # the dataset seed are shared with this process.
        script = f"""
import json
from repro.core.engine import EngineOptions
from repro.core.session import EvaluationSession
from repro.datasets import clustered_relation

session = EvaluationSession(
    clustered_relation({N}, seed={SEED}),
    options=EngineOptions(shards=4),
    store_path={root!r},
)
result = session.evaluate({QUERY!r})
print(json.dumps({{
    "objective": result.objective,
    "counts": list(result.package.counts),
    "replay": result.stats.get("session", {{}}).get("result_cache"),
    "artifacts": result.stats.get("artifacts"),
}}))
session.close()
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload["replay"] == "hit"
        assert payload["objective"] == first.objective
        assert payload["counts"] == [list(pair) for pair in first.package.counts]
        assert payload["artifacts"]["hits"] >= 1
        assert payload["artifacts"]["rejected"] == 0

    def test_fresh_session_same_process_replays_from_disk(self, tmp_path):
        root = str(tmp_path / "store")
        first = _populate(root)
        with _session(root) as restart:
            replay = restart.evaluate(QUERY)
        assert replay.stats["session"]["result_cache"] == "hit"
        assert replay.objective == first.objective
        assert replay.package.counts == first.package.counts
        assert replay.stats["artifacts"]["hits"] >= 1


def _single_entry_path(root, layer):
    store = ArtifactStore(root)
    paths = [path for _, path, _ in store.entries(layer)]
    assert paths, f"no {layer} entries were persisted"
    return paths


_TRIPPED = []


def _trip():
    _TRIPPED.append("unpickled")


class _Tripwire:
    """Pickles to a call of :func:`_trip`: loading it leaves a mark."""

    def __reduce__(self):
        return (_trip, ())


class TestRejection:
    def test_flipped_payload_byte_is_rejected_not_served(self, tmp_path):
        root = str(tmp_path / "store")
        first = _populate(root)
        for path in _single_entry_path(root, "results"):
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))

        with _session(root) as restart:
            result = restart.evaluate(QUERY)
        # Recomputed, not replayed — and the rejection was counted.
        assert "session" not in result.stats
        assert result.stats["artifacts"]["rejected"] >= 1
        assert result.objective == first.objective

    def test_truncated_entry_is_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        _populate(root)
        for path in _single_entry_path(root, "results"):
            path.write_bytes(path.read_bytes()[:10])
        store = ArtifactStore(root)
        assert store.verify()["failed"]

    def test_engine_version_mismatch_is_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        relation = clustered_relation(N, seed=SEED)
        with EvaluationSession(
            relation, options=_options(), store_path=root
        ) as session:
            session.evaluate(QUERY)

        other = ArtifactStore(root, engine_version="some-future-engine")
        with EvaluationSession(
            clustered_relation(N, seed=SEED),
            options=_options(),
            store=other,
        ) as restart:
            result = restart.evaluate(QUERY)
        assert "session" not in result.stats
        assert result.stats["artifacts"]["rejected"] >= 1
        assert other.stats()["hits"] == 0

    def test_format_1_entries_are_rejected_unlinked_and_rewritten(self, tmp_path):
        # Format 1 pickled one Variable dataclass per candidate inside
        # every ILP model; format 2 pickles arrays.  An old entry must
        # never reach the unpickler — every payload here is a
        # checksum-valid tripwire that records being loaded.
        assert STORE_FORMAT == 2
        root = str(tmp_path / "store")
        first = _populate(root)
        store = ArtifactStore(root)
        payload = pickle.dumps(_Tripwire())
        downgraded = []
        for layer, path, header in store.entries():
            header.update(
                format=1,
                bytes=len(payload),
                payload_hash=hashlib.blake2b(payload, digest_size=16).hexdigest(),
            )
            path.write_bytes(
                json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
            )
            downgraded.append((layer, path))
        assert {"where", "results"} <= {layer for layer, _ in downgraded}

        with _session(root) as restart:
            result = restart.evaluate(QUERY)
            counters = restart.store.stats()
        assert _TRIPPED == []
        assert "session" not in result.stats  # recomputed, not replayed
        assert result.objective == first.objective
        assert result.package.counts == first.package.counts
        assert counters["hits"] == 0
        assert counters["rejected"] == result.stats["artifacts"]["rejected"] >= 2
        assert counters["writes"] >= counters["rejected"]
        # Every entry the query asked for was unlinked and written
        # again in the current format; none is left in the old one.
        formats = {
            header["format"] for _, _, header in ArtifactStore(root).entries()
        }
        assert formats <= {1, STORE_FORMAT}
        rewritten = [
            path
            for _, path in downgraded
            if path.exists()
            and json.loads(path.read_bytes().split(b"\n", 1)[0])["format"]
            == STORE_FORMAT
        ]
        assert len(rewritten) == counters["rejected"]
        asked = [p for layer, p in downgraded if layer in ("where", "results")]
        assert set(asked) <= set(rewritten)

        with _session(root) as warm:
            replay = warm.evaluate(QUERY)
        assert replay.stats["session"]["result_cache"] == "hit"
        assert replay.stats["artifacts"]["rejected"] == 0

    def test_unknown_layer_raises(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(ValueError):
            store.put("no-such-layer", ("k",), 1)
        with pytest.raises(ValueError):
            store.get("no-such-layer", ("k",))


class TestOracleGate:
    def test_tampered_stored_result_raises_never_answers(self, tmp_path):
        root = str(tmp_path / "store")
        _populate(root)

        # Rewrite the stored result through the put API so the entry
        # is checksum-valid — only the *package* is wrong (a rid that
        # violates MAX(R.ts) <= 30, at an absurd multiplicity).
        store = ArtifactStore(root)
        ((_, path, header),) = list(store.entries("results"))
        _, cached = store.load_entry(path)
        relation = clustered_relation(N, seed=SEED)
        bad_rid = max(
            rid for rid in range(len(relation))
            if relation[rid]["ts"] > 30
        )
        cached.counts = ((bad_rid, 99),)
        key = (print_query(cached.query), repr(_options()))
        relation_hash = path.parent.parent.name
        store.put("results", key, cached, relation_hash)
        assert store.get("results", key, relation_hash) is not None

        with _session(root) as restart:
            with pytest.raises(EngineError, match="invalid package"):
                restart.evaluate(QUERY)


class TestMutationInvalidation:
    def test_untouched_shards_served_from_store_after_append(self, tmp_path):
        root = str(tmp_path / "store")
        _populate(root)
        with _session(root) as restart:
            report = restart.append_rows(
                [
                    {
                        "label": "new",
                        "ts": 200.0,
                        "cost": 5.0,
                        "gain": 999.0,
                        "weight": 1.0,
                    }
                ]
            )
            assert report.kind == "append"
            assert report.touched == (3,)
            assert report.untouched == (0, 1, 2)
            result = restart.evaluate(QUERY)
            shard_counters = result.stats["shards"]
            assert shard_counters["scanned"] == 1
            assert shard_counters["store_hits"] == 3
            cold = PackageQueryEvaluator(restart.relation).evaluate(
                QUERY, _options()
            )
            assert result.objective == cold.objective
            assert result.status is cold.status

    def test_delete_keeps_later_shards_warm(self, tmp_path):
        root = str(tmp_path / "store")
        _populate(root)
        with _session(root) as restart:
            # Delete a row from shard 0 only: shards 1..3 shift their
            # offsets but keep their exact content, so their
            # fingerprints — and stored WHERE partials — survive.
            report = restart.delete_rows([5])
            assert report.kind == "delete"
            assert report.touched == (0,)
            result = restart.evaluate(QUERY)
            shard_counters = result.stats["shards"]
            assert shard_counters["scanned"] == 1
            assert shard_counters["store_hits"] == 3
            cold = PackageQueryEvaluator(restart.relation).evaluate(
                QUERY, _options()
            )
            assert result.objective == cold.objective
            assert result.status is cold.status

    def test_mutated_relation_misses_result_layer(self, tmp_path):
        root = str(tmp_path / "store")
        _populate(root)
        with _session(root) as restart:
            restart.append_rows(
                [
                    {
                        "label": "new",
                        "ts": 200.0,
                        "cost": 5.0,
                        "gain": 999.0,
                        "weight": 1.0,
                    }
                ]
            )
            result = restart.evaluate(QUERY)
            # The whole-relation layers are keyed by the new content
            # hash: the stored result for the old relation must not
            # replay.
            assert "session" not in result.stats


class TestStoreMechanics:
    def test_counters_flush_to_lifetime_on_close(self, tmp_path):
        root = str(tmp_path / "store")
        with ArtifactStore(root) as store:
            store.put("results", ("k",), {"v": 1}, "r" * 32)
            assert store.get("results", ("k",), "r" * 32) == {"v": 1}
            assert store.get("results", ("missing",), "r" * 32) is None
        reopened = ArtifactStore(root)
        lifetime = reopened.lifetime_counters()["results"]
        assert lifetime["writes"] == 1
        assert lifetime["hits"] == 1
        assert lifetime["misses"] == 1

    def test_clear_scopes_to_relation_hash(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        store.put("results", ("k",), 1, "a" * 32)
        store.put("results", ("k",), 2, "b" * 32)
        store.put("where_shard", ("f" * 32, "R.cost <= 1"), {"lo": 0})
        removed = store.clear(relation_hash="a" * 32)
        assert removed == 1
        assert store.get("results", ("k",), "b" * 32) == 2
        # Shard-scoped layers survive relation-scoped clears (they are
        # keyed by shard content, shared across relation versions).
        assert store.get("where_shard", ("f" * 32, "R.cost <= 1")) == {"lo": 0}
        assert store.clear() == 2

    @pytest.mark.parametrize(
        "layer", ["translations", "retired", "bounds", "facts", "zone"]
    )
    def test_retired_layer_entries_are_sized_evicted_and_cleared(
        self, tmp_path, layer
    ):
        # A store written by an older version can hold a layer this one
        # no longer reads; its entries must still count against
        # max_bytes and leave with eviction and clear.
        root = str(tmp_path / "store")
        _populate(root)
        (relation_hash,) = ArtifactStore(root).disk_stats()["relations"]
        scope = "shards" if layer == "zone" else f"relations/{relation_hash}"
        planted = _plant(root, scope, layer)

        usage = ArtifactStore(root).disk_stats()
        assert usage["layers"][layer] == {
            "entries": 1, "bytes": planted.stat().st_size,
        }
        assert ArtifactStore(root).verify()["failed"] == []
        with _session(root) as warm:
            replay = warm.evaluate(QUERY)
        assert replay.stats["session"]["result_cache"] == "hit"
        assert replay.stats["artifacts"]["rejected"] == 0

        entries = ArtifactStore(root).disk_stats()["entries"]
        assert ArtifactStore(root, max_bytes=1).enforce_limit() == entries
        assert not planted.exists()

        _populate(root)
        planted = _plant(root, scope, layer)
        assert ArtifactStore(root).clear(relation_hash) >= 2
        # Shard-scoped entries are shared across relation versions and
        # only leave with a full clear.
        assert planted.exists() == (scope == "shards")
        _populate(root)
        _plant(root, scope, layer)
        ArtifactStore(root).clear()
        assert list((tmp_path / "store").rglob("*.art")) == []

    def test_stored_zone_map_never_decides_an_answer(self, tmp_path):
        # A checksum-valid zone map that lies about every shard's cost
        # range would prove each shard empty of ``cost <= 70``; zone
        # maps are computed from the data, so it must change nothing.
        root = str(tmp_path / "store")
        relation = clustered_relation(300, seed=42)
        options = EngineOptions(shards=4)
        query = (
            "SELECT PACKAGE(R) FROM Readings R WHERE R.cost <= {} "
            "SUCH THAT COUNT(*) <= 5 AND MAX(R.ts) <= 30 MAXIMIZE SUM(R.gain)"
        )
        with EvaluationSession(
            relation, options=options, store_path=root
        ) as session:
            session.evaluate(query.format("80.0"))
        sharded = ShardedRelation(relation, 4)
        for index, rows in enumerate(sharded.shard_sizes()):
            _plant(
                root,
                "shards",
                "zone",
                key=(sharded.shard_fingerprint(index), "cost"),
                value=ZoneStats(
                    count=rows,
                    null_count=0,
                    minimum=1e9,
                    maximum=1e9,
                    total=1e9 * rows,
                ),
            )

        with EvaluationSession(
            clustered_relation(300, seed=42),
            options=options,
            reuse_results=False,
            store_path=root,
        ) as fresh:
            result = fresh.evaluate(query.format("70.0"))
        cold = PackageQueryEvaluator(relation).evaluate(
            query.format("70.0"), options
        )
        assert result.status is cold.status
        assert result.objective == cold.objective
        assert result.candidate_count == cold.candidate_count


def _plant(root, scope, layer, key=("planted",), value=None):
    """Write a checksum-valid entry under ``<scope>/<layer>/`` (``scope``
    is ``relations/<hash>`` or ``shards``) at the path the store itself
    would use for ``key``, whether or not it knows ``layer``."""
    store = ArtifactStore(root)
    if value is None:
        value = {"rows": list(range(64))}
    payload = pickle.dumps(value)
    header = {
        "format": STORE_FORMAT,
        "engine": store.engine_version,
        "layer": layer,
        "key": repr(key),
        "payload_hash": hashlib.blake2b(payload, digest_size=16).hexdigest(),
        "bytes": len(payload),
    }
    directory = store.root / scope / layer
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16)
    path = directory / f"{digest.hexdigest()}.art"
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    )
    return path
