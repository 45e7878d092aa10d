"""End-to-end HTTP serving: answers, backpressure, deadlines, SSE."""

import asyncio
import itertools
import threading
import time

import pytest

from repro.serving import AuditClient, AuditServer, ServerConfig
from repro.serving.shards import ShardSpec, ShardSupervisor
from repro.serving.sse import format_event

VALUES = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)


class Harness:
    """An AuditServer on a background event-loop thread."""

    def __init__(self, spec, config=None, **supervisor_kwargs):
        supervisor_kwargs.setdefault("mode", "inline")
        self.supervisor = ShardSupervisor(spec, **supervisor_kwargs)
        self.server = AuditServer(self.supervisor,
                                  config or ServerConfig())
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10.0), "server did not start"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def client(self, timeout=30.0):
        return AuditClient("127.0.0.1", self.server.port, timeout=timeout)

    def stop(self):
        async def _stop():
            await self.server.stop()

        if not self.server.crashed:
            asyncio.run_coroutine_threadsafe(_stop(), self.loop).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.supervisor.close()


def make_spec(tmp_path, **overrides):
    kwargs = dict(values=VALUES, low=0.0, high=100.0, auditor="sum", seed=0,
                  wal_dir=str(tmp_path / "wal"))
    kwargs.update(overrides)
    return ShardSpec(**kwargs)


@pytest.fixture()
def harness(tmp_path):
    h = Harness(make_spec(tmp_path))
    yield h
    h.stop()


def test_query_answers_and_denies_over_http(harness):
    client = harness.client()
    res = client.query("alice", "sum", range(6))
    assert res.ok
    assert res.payload == {"denied": False, "value": 210.0}
    client.query("alice", "sum", [0, 1, 2])
    denied = client.query("alice", "sum", [0, 1])
    assert denied.ok and denied.payload["denied"]
    assert denied.payload["reason"] in ("full-disclosure",
                                        "partial-disclosure")


def test_two_identities_cannot_difference_out_a_value(harness):
    """The paper's collusion defence (§7) pools every user's queries:
    a second identity asking the narrowing query is denied exactly as
    the first would be, so the pair never learns x0 = 210 - 200."""
    client = harness.client()
    first = client.query("u0", "sum", range(6))
    assert first.payload == {"denied": False, "value": 210.0}
    second = client.query("u4", "sum", range(1, 6))
    assert second.status == 200
    assert second.payload["denied"]
    assert second.payload["reason"] == "full-disclosure"
    stats = client.stats().payload["worker"]
    assert stats["users"] == ["u0", "u4"]
    assert stats["denials"] == {"u0": 0, "u4": 1}


def test_stats_waits_for_the_decision_in_the_worker(harness):
    """A /stats request never reaches the worker while a query is inside
    it (over a spawn worker's pipe the two replies would cross), and
    /healthz never waits behind the decision."""
    worker = harness.supervisor._handle.worker
    handle = worker.handle
    inside, release = threading.Event(), threading.Event()
    guard = threading.Lock()
    active, peak = [0], [0]

    def held(request):
        with guard:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        try:
            if request.get("op") == "query":
                inside.set()
                release.wait(10.0)
            return handle(request)
        finally:
            with guard:
                active[0] -= 1

    worker.handle = held
    results = {}
    query = threading.Thread(target=lambda: results.update(
        query=harness.client().query("alice", "sum", range(6))))
    stats = threading.Thread(target=lambda: results.update(
        stats=harness.client().stats()))
    try:
        query.start()
        assert inside.wait(10.0), "the query never reached the worker"
        stats.start()
        stats.join(0.5)  # long enough for /stats to overtake the query
        assert harness.client().health().payload["status"] == "serving"
    finally:
        release.set()
    query.join(10.0)
    stats.join(10.0)
    assert not query.is_alive() and not stats.is_alive()
    assert peak[0] == 1
    assert results["query"].payload == {"denied": False, "value": 210.0}
    assert results["stats"].payload["worker"]["events"] == 1


def test_expired_deadline_is_journalled_fail_closed_denial(harness):
    client = harness.client()
    res = client.query("alice", "sum", range(6), deadline_ms=-1)
    assert res.ok  # released outcome: a denial, not a transport error
    assert res.payload["denied"]
    assert res.payload["reason"] == "resource-exhausted"
    assert "expired" in res.payload["detail"]
    # journalled: the worker's denial bookkeeping saw it
    stats = client.stats().payload
    assert stats["worker"]["denials"] == {"alice": 1}


def test_malformed_requests_are_constant_400s(harness):
    client = harness.client()
    res = client._exchange("POST", "/query", body=b"{not json",
                           headers={"Content-Type": "application/json"})
    assert res.status == 400
    assert res.payload == {"error": "request body is not valid JSON"}
    res = client.query("alice", "bogus-kind", [0])
    assert res.status == 400
    assert res.payload == {"error": "unknown aggregate kind"}
    res = client._exchange("POST", "/query", body=b'"just a string"')
    assert res.status == 400
    res = client._exchange("POST", "/query",
                           body=b'{"user": "a", "kind": "sum"}')
    assert res.status == 400
    assert res.payload == {"error": "invalid query"}


def test_unanswerable_query_is_400_and_shard_survives(harness):
    client = harness.client()
    res = client.query("alice", "max", [0, 1])  # sum-only deployment
    assert res.status == 400
    assert res.payload == {"error": "unsupported query"}
    res = client.query("alice", "sum", [0, 99])  # index out of range
    assert res.status == 400
    assert res.payload == {"error": "unsupported query"}
    # the worker did not crash: health is clean and queries still serve
    assert client.health().payload["status"] == "serving"
    assert client.query("alice", "sum", range(6)).ok


def test_unknown_path_and_wrong_method(harness):
    client = harness.client()
    assert client._exchange("GET", "/nope").status == 404
    res = client._exchange("GET", "/query")
    assert res.status == 405
    assert "POST" in res.payload["error"]


def test_admission_shed_is_429_with_retry_after(tmp_path):
    h = Harness(make_spec(tmp_path, user_rate=0.001, user_burst=1))
    try:
        client = h.client()
        assert client.query("alice", "sum", range(6)).ok
        shed = client.query("alice", "sum", [3, 4, 5])
        assert shed.status == 429
        assert shed.retry_after is not None and shed.retry_after >= 1
        assert shed.payload["shed"] is True
        assert shed.payload["reason"] == "resource-exhausted"
        # the shed is journalled: worker stats count it as a denial
        stats = client.stats().payload
        assert stats["worker"]["shed"]["rate"] == 1
    finally:
        h.stop()


def test_deadline_propagates_into_the_probabilistic_budget(tmp_path):
    """X-Deadline-Ms reaches the sampler: with a budget clock that jumps
    a second per reading, a 300 ms deadline exhausts at the first
    cooperative checkpoint and fails closed."""
    ticker = itertools.count()
    h = Harness(make_spec(tmp_path, auditor="sum-prob"),
                budget_clock=lambda: float(next(ticker)))
    try:
        client = h.client()
        res = client.query("alice", "sum", range(6), deadline_ms=300)
        assert res.ok
        assert res.payload["denied"]
        assert res.payload["reason"] == "resource-exhausted"
    finally:
        h.stop()


def test_crashed_shard_serves_503_until_recovery(tmp_path):
    now = [0.0]
    h = Harness(make_spec(tmp_path), backoff_base=5.0, clock=lambda: now[0])
    try:
        client = h.client()
        assert client.query("alice", "sum", range(6)).ok
        h.supervisor.crash_worker()
        # every user waits for the one worker's recovery
        for user in ("alice", "bob"):
            res = client.query(user, "sum", [0, 1, 2])
            assert res.status == 503
            assert res.retry_after is not None and res.retry_after >= 1
            assert res.payload == {
                "error": "audit worker recovering; retry later"}
        health = client.health().payload
        assert health["status"] == "degraded"
        assert health["worker"]["status"] == "down"
        # past the backoff the worker restarts (replaying its WAL) and
        # serving resumes where it left off
        now[0] += 10.0
        res = client.query("alice", "sum", [0, 1, 2])
        assert res.ok and res.payload == {"denied": False, "value": 60.0}
        assert client.health().payload["status"] == "serving"
    finally:
        h.stop()


def test_a_restarted_worker_remembers_every_released_answer(tmp_path):
    """The worker's WAL outlives it: after a crash and restart, the
    narrowing query a second identity asks is still denied."""
    now = [0.0]
    h = Harness(make_spec(tmp_path), backoff_base=1.0, clock=lambda: now[0])
    try:
        client = h.client()
        first = client.query("u0", "sum", range(6))
        assert first.payload == {"denied": False, "value": 210.0}
        h.supervisor.crash_worker()
        now[0] += 10.0
        second = client.query("u4", "sum", range(1, 6))
        assert h.supervisor.restarts == 1
        assert second.status == 200
        assert second.payload["denied"]
        assert second.payload["reason"] == "full-disclosure"
    finally:
        h.stop()


def test_sse_ids_keep_rising_across_a_worker_restart(tmp_path):
    """An event's id is its WAL record number, so a client resuming with
    Last-Event-ID after a crash drill never sees an id twice."""
    now = [0.0]
    h = Harness(make_spec(tmp_path), backoff_base=1.0, clock=lambda: now[0])
    try:
        client = h.client()
        received = []
        consumer = threading.Thread(target=lambda: received.extend(
            client.events(limit=4, timeout=30)), daemon=True)
        consumer.start()
        deadline = time.monotonic() + 10.0
        while client.stats().payload["sse_subscribers"] == 0:
            assert time.monotonic() < deadline, "subscriber never registered"
            time.sleep(0.02)
        client.query("alice", "sum", range(6))
        client.query("alice", "sum", [0, 1, 2])
        h.supervisor.crash_worker()
        now[0] += 10.0
        client.query("bob", "sum", [3, 4, 5])
        client.query("bob", "sum", [0, 1])
        consumer.join(15.0)
        assert not consumer.is_alive()
        ids = [event["seq"] for event in received]
        assert ids[2] > max(ids[:2])
        assert ids == sorted(set(ids))
        assert client.stats().payload["worker"]["events"] == ids[-1]
    finally:
        h.stop()


def test_sse_stream_delivers_journalled_events(harness):
    client = harness.client()
    received = []

    def consume():
        received.extend(client.events(user="alice", limit=2, timeout=30))

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    # wait until the subscription is live before querying
    deadline = time.monotonic() + 10.0
    while client.stats().payload["sse_subscribers"] == 0:
        assert time.monotonic() < deadline, "subscriber never registered"
        time.sleep(0.02)
    client.query("bob", "sum", range(6))     # filtered out
    client.query("alice", "sum", [0, 1, 2])
    client.query("alice", "sum", [0, 1])     # now x2 would be determined
    consumer.join(15.0)
    assert not consumer.is_alive()
    assert [e["user"] for e in received] == ["alice", "alice"]
    assert received[0]["denied"] is False
    assert received[0]["value"] == 60.0
    assert received[1]["denied"] is True
    assert received[1]["members"] == [0, 1]


def test_sse_frame_id_is_the_worker_sequence_number():
    frame = format_event({"seq": 7, "user": "alice", "denied": True})
    assert frame.splitlines()[:2] == [b"id: 7", b"event: decision"]


def test_sse_rejects_malformed_limit(harness):
    client = harness.client()
    res = client._exchange("GET", "/events?limit=soonish")
    assert res.status == 400
    assert res.payload == {"error": "malformed limit parameter"}
