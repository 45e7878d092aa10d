"""The audit worker, the spawn transport, and the restart supervisor."""

import itertools
import os

import pytest

from repro.exceptions import InvalidQueryError
from repro.resilience.faults import FaultPlan, InjectedCrash, inject
from repro.serving.shards import (
    ProcessShardHandle,
    ShardSpec,
    ShardSupervisor,
    ShardUnavailable,
    ShardWorker,
)

VALUES = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)


def make_spec(tmp_path, **overrides):
    kwargs = dict(values=VALUES, low=0.0, high=100.0, auditor="sum", seed=0,
                  wal_dir=os.path.join(str(tmp_path), "wal"))
    kwargs.update(overrides)
    return ShardSpec(**kwargs)


def query_op(user, members, **extra):
    payload = {"op": "query", "user": user, "kind": "sum",
               "members": list(members)}
    payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# ShardWorker
# ----------------------------------------------------------------------

def test_worker_answers_and_denies_with_pooled_history(tmp_path):
    worker = ShardWorker(make_spec(tmp_path))
    full = worker.handle(query_op("alice", range(6)))
    assert full["ok"] and not full["shed"]
    assert full["decision"] == {"denied": False, "value": 210.0}
    # the pooled frontend sees bob's history too: the narrowing query
    # that would isolate a value is denied no matter who asks
    worker.handle(query_op("bob", [0, 1, 2]))
    denied = worker.handle(query_op("carol", [0, 1]))
    assert denied["decision"]["denied"]
    assert denied["event"]["user"] == "carol"
    assert denied["event"]["members"] == [0, 1]
    stats = worker.handle({"op": "stats"})
    assert stats["users"] == ["alice", "bob", "carol"]
    assert stats["denials"]["carol"] == 1
    assert stats["events"] == 3


@pytest.mark.parametrize("payload", [
    {"op": "query"},                                     # no user
    {"op": "query", "user": "", "kind": "sum", "members": [0]},
    {"op": "query", "user": "a", "kind": "nope", "members": [0]},
    {"op": "query", "user": "a", "kind": "sum", "members": "zero"},
    {"op": "query", "user": "a", "kind": "sum", "members": []},
    {"op": "query", "user": "a", "kind": "sum", "members": [-1]},
])
def test_worker_rejects_malformed_queries_without_raising(payload, tmp_path):
    worker = ShardWorker(make_spec(tmp_path))
    result = worker.handle(payload)
    assert result == {"ok": False, "error": "invalid query"}


@pytest.mark.parametrize("payload", [
    # a valid kind the sum auditor does not serve
    {"op": "query", "user": "a", "kind": "max", "members": [0, 1]},
    # an index outside the worker's dataset
    {"op": "query", "user": "a", "kind": "sum", "members": [0, 99]},
])
def test_unanswerable_query_is_an_error_not_a_crash(payload, tmp_path):
    worker = ShardWorker(make_spec(tmp_path))
    assert worker.handle(payload) == {
        "ok": False, "error": "unsupported query"}
    # the worker survives and keeps serving
    assert worker.handle(query_op("a", range(6)))["ok"]


def test_worker_unknown_op_is_a_constant_error(tmp_path):
    worker = ShardWorker(make_spec(tmp_path))
    assert worker.handle({"op": "meddle"}) == {
        "ok": False, "error": "unknown shard op"}
    assert worker.handle({"op": "ping"})["ok"]


def test_refuse_op_journals_an_edge_refusal(tmp_path):
    worker = ShardWorker(make_spec(tmp_path))
    result = worker.handle({"op": "refuse", "user": "alice",
                            "kind": "sum", "members": [0, 1],
                            "detail": "deadline expired"})
    assert result["ok"] and result["shed"]
    assert result["decision"]["denied"]
    assert result["decision"]["reason"] == "resource-exhausted"
    # journalled through the frontend: bookkeeping and trail both see it
    assert worker.frontend.denial_counts() == {"alice": 1}
    trail = worker.frontend._pooled.trail
    assert trail.denial_count() == 1


def test_admission_shed_is_a_journalled_denial(tmp_path):
    worker = ShardWorker(make_spec(tmp_path, user_rate=0.001, user_burst=1))
    first = worker.handle(query_op("alice", range(6)))
    assert not first["shed"]
    second = worker.handle(query_op("alice", [3, 4, 5]))
    assert second["shed"]
    assert second["decision"]["reason"] == "resource-exhausted"
    # the shed is bookkept exactly like an in-process shed
    assert worker.frontend.denial_counts()["alice"] == 1
    stats = worker.handle({"op": "stats"})
    assert stats["shed"]["rate"] == 1


def test_deadline_shorter_than_one_chain_step_fails_closed(tmp_path):
    """The propagated budget is installed on the probabilistic auditor:
    with a clock that jumps a full second per reading, a 500 ms wall
    budget exhausts at the first cooperative checkpoint."""
    ticker = itertools.count()

    def jumping_clock():
        return float(next(ticker))

    worker = ShardWorker(make_spec(tmp_path, auditor="sum-prob"),
                         budget_clock=jumping_clock)
    result = worker.handle(query_op("alice", range(6), wall_time=0.5))
    assert result["ok"]
    assert result["decision"]["denied"]
    assert result["decision"]["reason"] == "resource-exhausted"
    # and the budget did not stick: the next un-deadlined query runs free
    follow_up = worker.handle(query_op("alice", range(6)))
    assert follow_up["ok"]
    assert worker.auditor.auditor.budget is None


def test_a_checkpoint_after_a_deadlined_request_keeps_no_budget(tmp_path):
    # The snapshot taken right after a deadlined decision holds the
    # auditor's standing budget; otherwise a recovered worker would
    # decide every later request under this request's deadline.
    spec = make_spec(tmp_path=tmp_path, auditor="max-prob",
                     checkpoint_every=1)
    worker = ShardWorker(spec)
    result = worker.handle(query_op("alice", [0, 1], kind="max",
                                    wall_time=30.0))
    assert result["ok"]
    live = worker.auditor.auditor
    assert live.budget is None
    worker.close()
    reopened = ShardWorker(spec)
    recovered = reopened.auditor.auditor
    assert recovered.budget is None
    assert recovered._rng.bit_generator.state == live._rng.bit_generator.state
    reopened.close()


def test_worker_recovers_journalled_state_from_wal(tmp_path):
    spec = make_spec(tmp_path=tmp_path)
    worker = ShardWorker(spec)
    worker.handle(query_op("alice", range(6)))
    worker.handle(query_op("alice", [0, 1, 2]))
    worker.close()
    # a fresh worker over the same WAL dir replays the decision stream:
    # both prior decisions are history before the first new query runs
    recovered = ShardWorker(spec)
    trail = recovered.frontend._pooled.trail
    assert len(trail) == 2
    res = recovered.handle(query_op("alice", [3, 4, 5]))
    assert res["decision"] == {"denied": False, "value": 150.0}
    recovered.close()


# ----------------------------------------------------------------------
# ShardSupervisor (inline mode: deterministic chaos)
# ----------------------------------------------------------------------

def test_supervisor_routes_and_reports_status(tmp_path):
    sup = ShardSupervisor(make_spec(tmp_path), mode="inline")
    try:
        res = sup.request(0, query_op("alice", range(6)))
        assert res["ok"]
        assert sup.status() == {"status": "serving", "restart_attempts": 0,
                                "last_error": ""}
        assert sup.request(0, {"op": "ping"}) == {"ok": True}
        # there is one worker, and its index is 0
        with pytest.raises(InvalidQueryError):
            sup.request(1, {"op": "ping"})
    finally:
        sup.close()


def test_supervisor_restarts_crashed_shard_with_backoff(tmp_path):
    now = [0.0]
    sup = ShardSupervisor(make_spec(tmp_path), mode="inline",
                          backoff_base=0.5, backoff_max=8.0,
                          clock=lambda: now[0])
    try:
        sup.request(0, query_op("alice", range(6)))
        plan = FaultPlan.crash_at("shard.post-journal", 0)
        with inject(plan):
            with pytest.raises(ShardUnavailable):
                sup.request(0, query_op("alice", [0, 1, 2]))
        assert plan.fired
        # the decision was journalled *before* the crash: nothing was
        # released to the client, but the WAL holds it
        assert sup.status()["status"] == "down"
        # inside the backoff window every request is 503-shaped
        with pytest.raises(ShardUnavailable) as err:
            sup.request(0, query_op("alice", [3, 4]))
        assert err.value.retry_after > 0
        # past the backoff the worker restarts and replays its WAL
        now[0] += 1.0
        res = sup.request(0, query_op("alice", [3, 4, 5]))
        assert res["ok"]
        assert sup.restarts == 1
        assert sup.status()["status"] == "serving"
        # the pre-crash decision survived recovery
        stats = sup.request(0, {"op": "stats"})
        assert stats["events"] >= 1
        recovered = ShardWorker(make_spec(tmp_path))
        assert len(recovered.frontend._pooled.trail) >= 3
        recovered.close()
    finally:
        sup.close()


def test_supervisor_backoff_grows_exponentially(tmp_path):
    now = [0.0]
    sup = ShardSupervisor(make_spec(tmp_path), mode="inline",
                          backoff_base=1.0, backoff_max=16.0,
                          clock=lambda: now[0])
    try:
        delays = []
        for occurrence in range(3):
            # crash the serving worker, then crash the restart too: each
            # consecutive failure doubles the wait
            sup.crash_worker()
            delays.append(sup._state.retry_at - now[0])
            now[0] = sup._state.retry_at + 0.01
            sup.request(0, {"op": "ping"})  # successful restart resets
        assert delays == pytest.approx([1.0, 1.0, 1.0])
        # now fail the restarts themselves: attempts accumulate and the
        # wait doubles each time (a clean WAL reopen hits no fault site,
        # so model the recovery crash at the build step directly)
        sup.crash_worker()
        build = sup._build_handle
        sup._build_handle = lambda: (_ for _ in ()).throw(
            InjectedCrash("shard.post-journal"))
        for expected in (2.0, 4.0, 8.0):
            now[0] = sup._state.retry_at + 0.01
            with pytest.raises(ShardUnavailable):
                sup.request(0, {"op": "ping"})
            assert sup._state.retry_at - now[0] == pytest.approx(expected)
        # once recovery stops crashing, the worker comes back
        sup._build_handle = build
        now[0] = sup._state.retry_at + 0.01
        assert sup.request(0, {"op": "ping"})["ok"]
    finally:
        sup.close()


def test_operator_crash_drill_marks_shard_down(tmp_path):
    sup = ShardSupervisor(make_spec(tmp_path), mode="inline",
                          backoff_base=10.0, clock=lambda: 0.0)
    try:
        sup.crash_worker()
        status = sup.status()
        assert status["status"] == "down"
        assert status["restart_attempts"] == 1
        assert sup.stats() == {"ok": False, "error": "unavailable"}
    finally:
        sup.close()


# ----------------------------------------------------------------------
# Spawn transport (real child processes)
# ----------------------------------------------------------------------

def test_spawned_shard_serves_and_survives_kill(tmp_path):
    sup = ShardSupervisor(make_spec(tmp_path), mode="spawn",
                          backoff_base=0.05)
    try:
        res = sup.request(0, query_op("alice", range(6)))
        assert res["decision"] == {"denied": False, "value": 210.0}
        # hard-kill the worker process: the dead pipe is the crash signal
        sup._handle.kill()
        with pytest.raises(ShardUnavailable):
            sup.request(0, query_op("alice", [0, 1, 2]))
        # after the backoff the supervisor restarts it; the restart
        # replays the WAL, so the first answer is already history
        deadline = 30.0
        import time
        start = time.monotonic()
        while True:
            try:
                res = sup.request(0, query_op("alice", [0, 1, 2]))
                break
            except ShardUnavailable as exc:
                assert time.monotonic() - start < deadline
                time.sleep(max(0.01, exc.retry_after))
        assert res["ok"]
        assert sup.restarts == 1
        stats = sup.request(0, {"op": "stats"})
        assert stats["users"] == ["alice"]
    finally:
        sup.close()


def test_process_handle_clean_shutdown(tmp_path):
    handle = ProcessShardHandle(make_spec(tmp_path))
    assert handle.request({"op": "ping"})["ok"]
    handle.close()
    assert not handle._process.is_alive()
