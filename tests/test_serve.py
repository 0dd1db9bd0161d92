"""The query service: wire equivalence, snapshots, protocol faults.

The heart of this module is the wire-equivalence matrix: answers served
over a real socket must be *bit-identical* — object ids AND appearance
probabilities compared with ``==`` — to ``Database.run`` /
``Database.probabilities`` on the same engine, across
{utree, upcr, scan} x {shards 1/4} x {one batch frame / one frame per
spec}.  The server adds
no execution path of its own; these tests keep it that way.

Around the matrix: snapshot consistency under concurrent writes (every
served answer equals a complete before- or after-write answer, never a
torn one), admission-control shedding (typed BUSY), the protocol's
malformed/oversize/bad-version/unknown-verb error paths, and the
``Database.close()`` idempotence/concurrency regression this PR's
bugfix satellite pins.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import threading
import time

import pytest

from repro.api import Database, ExecConfig, NearestSpec, RangeSpec
from repro.core.stats import QueryStats
from repro.geometry.rect import Rect
from repro.serve import (
    BusyError,
    QueryServer,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
    spec_doc,
    stats_doc,
    stats_from_doc,
)
from tests.conftest import make_mixed_objects, make_uniform_ball_object

N_SAMPLES = 1000
SEED = 11
METHODS = ("utree", "upcr", "scan")
SHARD_COUNTS = (1, 4)


def _objects():
    return make_mixed_objects(36, seed=9)


def _range_specs():
    return [
        RangeSpec(Rect([2000.0, 2000.0], [6000.0, 6000.0]), 0.5),
        RangeSpec(Rect([500.0, 500.0], [9500.0, 9500.0]), 0.25),
        RangeSpec(Rect([4000.0, 1000.0], [8000.0, 5000.0]), 0.8),
    ]


def _make_db(method="utree", *, shards=1, **overrides):
    config = ExecConfig(
        mc_samples=N_SAMPLES,
        seed=SEED,
        shards=shards,
        **overrides,
    )
    return Database.create(_objects(), config, methods=(method,))


# ----------------------------------------------------------------------
# the wire-equivalence matrix
# ----------------------------------------------------------------------

class TestWireEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("framing", ("batch", "per-spec"))
    @pytest.mark.parametrize("shards", SHARD_COUNTS, ids=("1shard", "4shards"))
    def test_range_ids_and_probs_bit_identical(self, method, framing, shards):
        db = _make_db(method, shards=shards)
        specs = _range_specs()
        direct = db.run(specs)
        expected = [
            (r.object_ids, db.probabilities(r.spec.rect, r.object_ids))
            for r in direct.results
        ]
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                if framing == "batch":
                    runs = [client.run(specs, probs=True)]
                else:
                    runs = [client.run([spec], probs=True) for spec in specs]
        results = [r for run in runs for r in run.results]
        served_probs = [p for run in runs for p in run.probs]
        assert sum(len(run) for run in runs) == len(specs)
        assert len(results) == len(served_probs) == len(specs)
        for (exp_ids, exp_probs), result, probs in zip(
            expected, results, served_probs
        ):
            assert result.object_ids == exp_ids
            assert probs == exp_probs
            assert result.method == db.method_names[0]

    @pytest.mark.parametrize("mode", ("probability", "expected"))
    def test_nearest_bit_identical(self, mode):
        db = _make_db("utree")
        spec = NearestSpec([4200.0, 4700.0], k=3, rounds=500, seed=7, mode=mode)
        direct = db.nearest(spec)
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                served = client.nearest(spec)
        assert served.object_ids == direct.object_ids
        assert served.nn is not None
        for got, want in zip(served.nn.candidates, direct.nn.candidates):
            assert got.oid == want.oid
            assert got.probability == want.probability
            assert got.expected_distance == want.expected_distance
        assert served.nn.node_accesses == direct.nn.node_accesses
        assert served.nn.objects_examined == direct.nn.objects_examined

    def test_mixed_batch_and_spec_round_trip(self):
        db = _make_db("utree")
        specs = [*_range_specs(), NearestSpec([5000.0, 5000.0], k=2, rounds=300)]
        direct = db.run(specs)
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                served = client.run(specs)
        for got, want, spec in zip(served.results, direct.results, specs):
            assert got.object_ids == want.object_ids
            assert got.spec == spec  # codec round-trips the spec itself
            assert got.stats.node_accesses == want.stats.node_accesses

    def test_overlays_change_cost_never_answers(self):
        db = _make_db("utree")
        specs = _range_specs()
        expected = [r.object_ids for r in db.run(specs).results]
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                for overlay in (
                    {"parallelism": 4},
                    {"parallelism": 2, "method": "utree"},
                ):
                    served = client.run(specs, **overlay)
                    assert [r.object_ids for r in served.results] == expected

    def test_explain_matches_direct(self):
        db = _make_db("utree")
        spec = _range_specs()[0]
        direct = db.explain(spec)
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                over_wire = client.explain(spec)
        assert over_wire["choice"] == direct.choice
        assert over_wire["shards"] == direct.shards
        assert over_wire["summary"] == direct.summary()

    def test_served_write_path_equals_direct(self):
        """Insert/delete through the wire land in the same engine state."""
        spec = RangeSpec(Rect([2000.0, 2000.0], [3000.0, 3000.0]), 0.5)
        extra = make_uniform_ball_object(500, [2500.0, 2500.0], radius=100.0)

        reference = _make_db("utree")
        reference.insert(extra)
        want_with = sorted(reference.query(spec).object_ids)
        reference.delete(500)
        want_without = sorted(reference.query(spec).object_ids)

        db = _make_db("utree")
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                assert client.insert(extra) == 1
                assert sorted(client.query(spec).object_ids) == want_with
                assert client.delete(500) is True
                assert client.delete(500) is False  # second delete: absent
                assert sorted(client.query(spec).object_ids) == want_without


# ----------------------------------------------------------------------
# cross-client batching and snapshot consistency
# ----------------------------------------------------------------------

class TestConcurrency:
    def test_cross_client_requests_form_one_batch(self):
        db = _make_db("utree")
        spec = _range_specs()[0]
        expected = db.query(spec).object_ids
        n_clients = 4
        answers = [None] * n_clients

        def worker(i, address):
            with ServeClient(*address) as client:
                answers[i] = client.query(spec).object_ids

        with QueryServer(db) as server:
            # Hold the engine busy until every request is queued: the
            # dispatcher must then sweep them into batches together.
            with server.lock.write():
                threads = [
                    threading.Thread(target=worker, args=(i, server.address))
                    for i in range(n_clients)
                ]
                for t in threads:
                    t.start()
                _wait_until(
                    lambda: server.queue.stats()["requests"] >= n_clients,
                    f"{n_clients} admitted requests",
                )
            for t in threads:
                t.join()
            stats = server.queue.stats()
        assert answers == [expected] * n_clients
        # The first request's batch blocks on the lock; the three behind
        # it queue meanwhile and are swept into the next batch together.
        assert stats["cross_client_batches"] >= 1
        assert stats["largest_batch_requests"] >= 2

    def test_lone_client_gets_one_batch_per_request(self):
        db = _make_db("utree")
        specs = _range_specs()
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                for _ in range(3):
                    for spec in specs:
                        client.query(spec)
            stats = server.queue.stats()
        assert stats["requests"] == 3 * len(specs)
        assert stats["batches"] == stats["requests"]
        assert stats["cross_client_batches"] == 0

    def test_snapshot_consistency_under_concurrent_writes(self):
        """Every served answer is a complete before- or after-write set."""
        spec = RangeSpec(Rect([2000.0, 2000.0], [3000.0, 3000.0]), 0.5)
        mover = make_uniform_ball_object(700, [2500.0, 2500.0], radius=100.0)

        reference = _make_db("utree")
        without = frozenset(reference.query(spec).object_ids)
        reference.insert(mover)
        with_obj = frozenset(reference.query(spec).object_ids)
        assert with_obj != without  # the write must be observable
        legal = {without, with_obj}

        db = _make_db("utree")
        stop = threading.Event()
        torn: list[frozenset] = []

        def reader(address):
            with ServeClient(*address) as client:
                while not stop.is_set():
                    got = frozenset(client.query(spec).object_ids)
                    if got not in legal:
                        torn.append(got)
                        return

        with QueryServer(db) as server:
            readers = [
                threading.Thread(target=reader, args=(server.address,))
                for _ in range(3)
            ]
            for t in readers:
                t.start()
            with ServeClient(*server.address) as writer:
                for _ in range(15):
                    writer.insert(mover)
                    writer.delete(700)
            stop.set()
            for t in readers:
                t.join()
        assert torn == [], f"served a torn answer set: {torn}"

    def test_busy_shed_over_the_wire(self):
        db = _make_db("utree", max_inflight=1)
        spec = _range_specs()[1]
        n_clients = 6
        outcomes: list[str] = []
        outcomes_lock = threading.Lock()

        def worker(address):
            with ServeClient(*address) as client:
                try:
                    client.run([spec])
                    outcome = "ok"
                except BusyError:
                    outcome = "busy"
            with outcomes_lock:
                outcomes.append(outcome)

        with QueryServer(db) as server:
            # With the engine held busy, at most one request waits in
            # the dispatcher (blocked on the lock) and one fills the
            # bound of one: the rest must be shed before it is released.
            with server.lock.write():
                threads = [
                    threading.Thread(target=worker, args=(server.address,))
                    for _ in range(n_clients)
                ]
                for t in threads:
                    t.start()
                _wait_until(
                    lambda: _admitted_or_shed(server) >= n_clients,
                    f"{n_clients} admitted or shed requests",
                )
            for t in threads:
                t.join()
            stats = server.queue.stats()
        # With a bound of one and six simultaneous clients, someone was
        # shed with a typed BUSY and someone was answered.
        assert "busy" in outcomes
        assert "ok" in outcomes
        assert stats["busy_rejections"] >= 1


def _wait_until(predicate, what: str, timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds (the engine is held busy meanwhile)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.005)


def _admitted_or_shed(server) -> int:
    stats = server.queue.stats()
    return stats["requests"] + stats["busy_rejections"]


# ----------------------------------------------------------------------
# protocol fault paths
# ----------------------------------------------------------------------

def _raw_request(address, payload: bytes, max_reply=1 << 20) -> dict | None:
    """Send pre-encoded bytes, read one reply frame (None on close)."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(payload)
        return recv_frame(sock, max_bytes=max_reply)


class TestStatsDoc:
    def test_flat_read_equals_asdict(self):
        # Every field set to its own nonzero value of its declared kind.
        stats = QueryStats(
            **{
                f.name: index + 0.25 if isinstance(f.default, float) else index
                for index, f in enumerate(dataclasses.fields(QueryStats), start=1)
            }
        )
        expected = dataclasses.asdict(stats)
        assert all(value != 0 for value in expected.values())
        doc = stats_doc(stats)
        assert doc == expected
        assert list(doc) == list(expected)
        assert [type(v) for v in doc.values()] == [type(v) for v in expected.values()]
        assert stats_from_doc(json.loads(json.dumps(doc))) == stats


class TestProtocolFaults:
    @pytest.fixture()
    def server(self):
        db = _make_db("utree")
        with QueryServer(db) as srv:
            yield srv

    def test_malformed_frame_gets_bad_frame(self, server):
        body = b"this is not json {"
        reply = _raw_request(server.address, struct.pack(">I", len(body)) + body)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "BAD_FRAME"

    def test_truncated_frame_closes_connection(self, server):
        # Header promises 100 bytes, we send 3 and close: the server
        # treats the torn frame as BAD_FRAME and drops the connection.
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(struct.pack(">I", 100) + b"abc")
            sock.shutdown(socket.SHUT_WR)
            reply = recv_frame(sock)
        assert reply is None or reply["error"]["code"] == "BAD_FRAME"

    def test_oversize_frame_gets_too_large(self):
        db = _make_db("utree")
        with QueryServer(db, max_frame_bytes=256) as server:
            body = b'{"pad":"' + b"x" * 512 + b'"}'
            reply = _raw_request(
                server.address, struct.pack(">I", len(body)) + body
            )
            assert reply["ok"] is False
            assert reply["error"]["code"] == "TOO_LARGE"

    def test_wrong_version_rejected(self, server):
        with socket.create_connection(server.address, timeout=10.0) as sock:
            send_frame(sock, {"v": PROTOCOL_VERSION + 7, "id": 1, "verb": "ping"})
            reply = recv_frame(sock)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "BAD_VERSION"

    def test_unknown_verb_rejected(self, server):
        with socket.create_connection(server.address, timeout=10.0) as sock:
            send_frame(sock, {"v": PROTOCOL_VERSION, "id": 1, "verb": "frobnicate"})
            reply = recv_frame(sock)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "BAD_REQUEST"

    def test_bad_specs_and_overlays_are_typed(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client._call("run", {"specs": [{"kind": "polygon"}]})
            assert excinfo.value.code == "BAD_REQUEST"
            with pytest.raises(ServeError) as excinfo:
                client._call(
                    "run",
                    {
                        "specs": [
                            {
                                "kind": "range",
                                "lo": [0, 0],
                                "hi": [1, 1],
                                "threshold": 0.5,
                            }
                        ],
                        "overlay": {"mc_samples": 5},
                    },
                )
            assert excinfo.value.code == "BAD_REQUEST"
            assert "mc_samples" in excinfo.value.message
            # The connection survives typed request errors.
            assert client.ping()["protocol"] == PROTOCOL_VERSION

    def test_retired_filter_kernel_overlay_rejected(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client._call(
                    "run",
                    {
                        "specs": [spec_doc(_range_specs()[0])],
                        "overlay": {"filter_kernel": False},
                    },
                )
            assert excinfo.value.code == "BAD_REQUEST"
            assert "filter_kernel" in excinfo.value.message
            assert client.ping()["protocol"] == PROTOCOL_VERSION

    def test_client_run_has_no_filter_kernel_argument(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(TypeError, match="filter_kernel"):
                client.run(_range_specs()[:1], filter_kernel=False)
            assert len(client.run(_range_specs()[:1])) == 1

    def test_unknown_method_overlay(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.run(_range_specs()[:1], method="btree")
            assert excinfo.value.code == "BAD_REQUEST"


# ----------------------------------------------------------------------
# lifecycle: server stop and the close() bugfix regression
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_server_stop_is_idempotent(self):
        db = _make_db("utree")
        server = QueryServer(db).start()
        server.stop()
        server.stop()  # second stop: no-op, no error

    def test_stop_keep_db_open(self):
        db = _make_db("utree")
        spec = _range_specs()[0]
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                served = client.query(spec).object_ids
        # __exit__ ran stop(close_db=True); close() leaves the engine
        # usable (it drops executors and the WAL handle, not the data).
        assert db.query(spec).object_ids == served

    def test_database_close_is_idempotent(self):
        db = _make_db("utree")
        db.close()
        db.close()
        db.close()

    def test_database_close_concurrent_with_runs(self):
        """close() racing in-flight run() calls: no error, db stays usable.

        The regression this pins: close() used to iterate the executor
        cache while run() was inserting into it (RuntimeError: dict
        changed size during iteration) and could double-close executors.
        """
        db = _make_db("utree")
        specs = _range_specs()
        errors: list[BaseException] = []
        stop = threading.Event()

        def runner():
            parallelism = 1
            while not stop.is_set():
                try:
                    # Vary the overlay so new executors keep being built
                    # (each (executor, parallelism) key is a
                    # fresh cache entry racing the close).
                    parallelism = parallelism % 4 + 1
                    db.run(specs[:1], parallelism=parallelism)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=runner) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(10):
            db.close()
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        expected = [r.object_ids for r in db.run(specs).results]
        db.close()
        assert [r.object_ids for r in db.run(specs).results] == expected

    def test_stats_and_ping_surface(self):
        db = _make_db("utree")
        with QueryServer(db) as server:
            with ServeClient(*server.address) as client:
                info = client.ping()
                assert info["protocol"] == PROTOCOL_VERSION
                assert info["methods"] == ["utree"]
                assert info["objects"] == len(db)
                client.run(_range_specs())
                stats = client.stats()
        assert stats["queue"]["requests"] >= 1
        assert stats["queue"]["specs"] >= 3
        assert stats["served"]["requests"] >= 2
        assert stats["objects"] == 36


# ----------------------------------------------------------------------
# Database.probabilities — the P_app surface the service exposes
# ----------------------------------------------------------------------

class TestProbabilities:
    def test_matches_refinement_for_answered_ids(self):
        db = _make_db("utree")
        spec = _range_specs()[0]
        result = db.query(spec)
        probs = db.probabilities(spec, result.object_ids)
        assert set(probs) == set(result.object_ids)
        # Every answered id cleared the spec's threshold.
        assert all(p >= spec.threshold for p in probs.values())
        # Deterministic: the same lookup is bit-identical.
        assert db.probabilities(spec.rect, result.object_ids) == probs

    def test_unknown_oid_raises(self):
        db = _make_db("utree")
        with pytest.raises(KeyError):
            db.probabilities(_range_specs()[0], [123456])

    def test_unknown_method_raises(self):
        db = _make_db("utree")
        with pytest.raises(KeyError):
            db.probabilities(_range_specs()[0], [0], method="btree")
