"""Overload protection: per-user admission control in the audit worker.

The property under test is the serving-layer half of fail-closed: under
any burst or flood the audit worker sheds load with journalled
``RESOURCE_EXHAUSTED`` denials — never an unhandled exception, never an
unbounded queue, and never an answer that skipped the auditor.
"""

import os

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.exceptions import PrivacyParameterError
from repro.persistence import JournaledAuditor
from repro.resilience.faults import FaultClock
from repro.resilience.overload import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.resilience.replication import replica_events
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.sdb.multiuser import MultiUserFrontend
from repro.serving.shards import ShardSpec, ShardWorker
from repro.types import AuditDecision, DenialReason, sum_query

pytestmark = pytest.mark.faults


def make_dataset():
    return Dataset([10.0, 20.0, 30.0, 40.0], low=0.0, high=100.0)


def factory(ds):
    return SumClassicAuditor(ds)


def flood_worker(wal_dir, burst, **spec):
    """An audit worker over ``make_dataset()`` whose per-user bucket
    practically never refills: ``burst`` admissions, then sheds."""
    data = make_dataset()
    return ShardWorker(ShardSpec(
        values=tuple(data.values), low=data.low, high=data.high,
        wal_dir=wal_dir, auditor="sum", user_rate=0.001, user_burst=burst,
        **spec))


def query_op(user, members):
    return {"op": "query", "user": user, "kind": "sum",
            "members": list(members)}


def exhausted():
    return AuditDecision.deny(DenialReason.RESOURCE_EXHAUSTED, "boom")


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------

def test_token_bucket_burst_then_sustained_rate():
    clock = FaultClock()
    bucket = TokenBucket(rate=1.0, burst=3, clock=clock.now)
    assert [bucket.try_take() for _ in range(4)] == [True, True, True,
                                                    False]
    clock.advance(1.0)   # one token refilled
    assert bucket.try_take()
    assert not bucket.try_take()
    clock.advance(100.0)  # refill clamps at burst, not 100 tokens
    assert [bucket.try_take() for _ in range(4)] == [True, True, True,
                                                    False]


def test_token_bucket_validates_parameters():
    with pytest.raises(PrivacyParameterError):
        TokenBucket(rate=0.0, burst=1)
    with pytest.raises(PrivacyParameterError):
        TokenBucket(rate=1.0, burst=0)
    with pytest.raises(PrivacyParameterError):
        AdmissionPolicy(user_rate=-1.0)
    with pytest.raises(PrivacyParameterError):
        AdmissionPolicy(user_rate=1.0, user_burst=0)


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------

def test_per_user_rate_limit_sheds_with_resource_exhausted():
    clock = FaultClock()
    controller = AdmissionController(AdmissionPolicy(
        user_rate=1.0, user_burst=2, clock=clock.now))
    assert controller.try_admit("mallory") is None
    assert controller.try_admit("mallory") is None
    denial = controller.try_admit("mallory")
    assert denial is not None and denial.denied
    assert denial.reason == DenialReason.RESOURCE_EXHAUSTED
    # Another user has their own bucket: the flood is not contagious.
    assert controller.try_admit("alice") is None
    assert controller.shed_counts() == {"rate": 1}


# ----------------------------------------------------------------------
# Worker integration: the synthetic burst acceptance criterion
# ----------------------------------------------------------------------

def test_burst_yields_journalled_denials_never_exceptions(tmp_path):
    wal_dir = str(tmp_path / "wal")
    worker = flood_worker(wal_dir, burst=3)
    replies = [worker.handle(query_op("mallory", [0, 1, 2, 3]))
               for _ in range(10)]
    decisions = [reply["decision"] for reply in replies]
    # Never an unhandled exception, never an unaudited answer: the first
    # burst is audited, everything past it is a shed denial.
    assert [d["denied"] for d in decisions[:3]] == [False, False, False]
    for reply in replies[3:]:
        assert reply["shed"]
        assert reply["decision"]["denied"]
        assert reply["decision"]["reason"] == "resource-exhausted"
    assert worker.frontend.denial_counts() == {"mallory": 7}
    # The shed queries are first-class, durable WAL events...
    events = replica_events(wal_dir)
    assert [e["type"] for e in events].count("denial") == 7
    worker.close()
    # ...and replay re-logs them without re-auditing (verify mode would
    # diverge otherwise: there is no auditor decision behind a shed query
    # to re-check).
    recovered, _ = open_wal_auditor(wal_dir, factory, make_dataset(),
                                    verify=True)
    assert len(recovered.trail) == 10
    assert recovered.trail.denial_count() == 7
    recovered.close()


def test_burst_against_checkpointed_wal(tmp_path):
    """Denial events survive the snapshot/suffix recovery path too."""
    wal_dir = str(tmp_path / "waldir")
    worker = flood_worker(wal_dir, burst=2, checkpoint_every=4)
    for _ in range(6):
        worker.handle(query_op("mallory", [0, 1, 2, 3]))
    worker.close()
    assert any(name.startswith("snapshot-")
               for name in os.listdir(wal_dir))
    revived = flood_worker(wal_dir, burst=2, checkpoint_every=4)
    assert len(revived.auditor.trail) == 6
    assert revived.auditor.trail.denial_count() == 4
    revived.close()


def test_independent_mode_records_refusals_on_the_user_trail():
    frontend = MultiUserFrontend(make_dataset(), factory, mode="independent")
    query = sum_query([0, 1, 2, 3])
    assert frontend.ask("u", query).answered
    assert frontend.refuse("u", query, exhausted()).denied
    trail = frontend._per_user["u"].trail
    assert len(trail) == 2 and trail.denial_count() == 1


def test_journaled_auditor_passes_refusals_through(tmp_path):
    """record_refusal reaches the WAL even without a frontend."""
    path = str(tmp_path / "wal")
    wrapped, _ = open_wal_auditor(path, factory, make_dataset())
    assert isinstance(wrapped, JournaledAuditor)
    wrapped.record_refusal(sum_query([0]), exhausted())
    wrapped.close()
    recovered, _ = open_wal_auditor(path, factory, make_dataset(),
                                    verify=True)
    assert len(recovered.trail) == 1
    assert recovered.trail.denial_count() == 1
    recovered.close()


# ----------------------------------------------------------------------
# Threaded exactness: the lock discipline the CONC rules enforce
# ----------------------------------------------------------------------

def test_token_bucket_is_exact_under_contention():
    import threading

    clock = FaultClock()  # frozen: no refill during the race
    bucket = TokenBucket(rate=1.0, burst=100, clock=clock.now)
    results = []
    results_lock = threading.Lock()

    def taker():
        taken = sum(bucket.try_take() for _ in range(25))
        with results_lock:
            results.append(taken)

    threads = [threading.Thread(target=taker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # 8 x 25 = 200 attempts against 100 tokens: exactly 100 succeed.
    assert sum(results) == 100


def test_admission_controller_counters_exact_under_threads():
    import threading

    threads_n, attempts, burst = 12, 50, 100
    clock = FaultClock()  # frozen: no refill during the race
    controller = AdmissionController(AdmissionPolicy(
        user_rate=1.0, user_burst=burst, clock=clock.now))
    outcomes = []
    outcomes_lock = threading.Lock()

    def user(name):
        admitted = shed = 0
        for _ in range(attempts):
            refusal = controller.try_admit(name)
            if refusal is None:
                admitted += 1
            else:
                assert refusal.reason == DenialReason.RESOURCE_EXHAUSTED
                shed += 1
        with outcomes_lock:
            outcomes.append((admitted, shed))

    # Every thread floods the same user's bucket.
    workers = [threading.Thread(target=user, args=("mallory",))
               for _ in range(threads_n)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()

    admitted = sum(a for a, _ in outcomes)
    shed = sum(s for _, s in outcomes)
    # Every attempt is accounted for exactly once, the bucket admitted
    # exactly its burst, and the shed ledger matches the callers' view.
    assert admitted + shed == threads_n * attempts
    assert admitted == burst
    assert controller.shed_counts() == {"rate": shed}
