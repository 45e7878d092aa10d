"""Crash-everywhere chaos sweep across the primary/follower boundary.

The replicated extension of ``test_chaos.py``: kill the serving pair at
**every** instrumented point — all the single-node sites plus the
replication sites (mid-ship into the replica segment, pre-ACK after the
follower applied, mid-snapshot-install, post-seal before the snapshot
ships) — and recover *either way across the boundary*:

* **primary recovery**: reopen the primary, re-sync the (possibly torn)
  follower by snapshot-install, resume from the first unacknowledged
  query; or
* **failover**: promote the follower (newest committed snapshot +
  replayed suffix, then the fencing-epoch bump) and resume on it.

In both modes the released decision stream must be bitwise-identical to
the uncrashed run — a crash may duplicate a durable *record*, never
change a released *answer*.  The sweep is exhaustive by construction:
per site it advances the crash occurrence until a full run no longer
reaches it.
"""

import os

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.persistence import JournalError
from repro.resilience.checkpoint import (
    MANIFEST_NAME,
    CheckpointPolicy,
)
from repro.resilience.faults import FaultPlan, InjectedCrash, inject
from repro.resilience.replication import (
    FencedError,
    Follower,
    promote_replica,
    replica_events,
)
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import sum_query

pytestmark = pytest.mark.faults


def make_dataset():
    return Dataset([10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
                   low=0.0, high=100.0)


def factory(ds):
    return SumClassicAuditor(ds)


QUERIES = [
    sum_query([0, 1, 2, 3, 4, 5]),
    sum_query([0, 1, 2]),
    sum_query([3, 4, 5]),
    sum_query([0, 1]),       # denied
    sum_query([2, 3]),
    sum_query([4, 5]),       # denied
    sum_query([0, 1, 2, 3]),
    sum_query([1, 2, 3, 4]),
    sum_query([2, 3, 4, 5]),
    sum_query([0, 5]),
    sum_query([1, 4]),
    sum_query([0, 1, 4, 5]),
]

POLICY = CheckpointPolicy(every_records=4)

#: Every site the replicated deterministic path can reach.  The
#: single-node sites now fire on *both* sides (the follower installs
#: checkpoints through the same seal/rotate/commit sequence), so one
#: occurrence counter sweeps the whole pair.
SWEEP_SITES = [
    # primary append path
    "journal.pre-record",
    "wal.mid-append",
    "wal.post-fsync",
    "journal.post-record",
    # checkpoint path, primary and follower alike
    "checkpoint.mid-snapshot",
    "checkpoint.pre-commit",
    "segment.post-roll",
    "manifest.mid-write",
    "checkpoint.post-commit",
    "compact.mid-delete",
    # replication boundary
    "primary.post-seal",
    "ship.mid-segment",
    "ship.pre-ack",
    "install.mid-snapshot",
]

MAX_OCCURRENCES = 64


def fresh_pair(root):
    """Primary and follower directory paths under ``root``."""
    return os.path.join(root, "primary"), os.path.join(root, "follower")


def open_pair(pdir, fdir, verify=False):
    wrapped, _ = open_wal_auditor(
        pdir, factory, make_dataset(),
        replicate_to=[fdir], policy=POLICY, verify=verify,
    )
    return wrapped, wrapped.wal.links[0].follower


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Released decisions of the uncrashed replicated run."""
    wrapped, _ = open_pair(*fresh_pair(
        str(tmp_path_factory.mktemp("baseline"))))
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()
    assert [d.denied for d in decisions].count(True) >= 2
    return [(d.denied, d.value, d.reason) for d in decisions]


def crashed_serve(pdir, fdir, plan):
    """Serve under ``plan`` until the injected crash (if it fires).

    Returns ``(released, resume_from)``: the answers that made it out,
    and the first query the recovered server must re-pose.
    """
    released = {}
    resume_from = 0
    wrapped = None
    try:
        wrapped, _ = open_pair(pdir, fdir)
    except InjectedCrash:
        return released, 0  # crashed during create/attach-sync
    for i, query in enumerate(QUERIES):
        try:
            released[i] = wrapped.audit(query)
            resume_from = i + 1
        except InjectedCrash:
            # The in-flight answer was never released — whether the kill
            # landed on the primary (mid-append) or the follower
            # (mid-ship, pre-ACK): released ⇒ replicated means an
            # unacknowledged record never reached the client.
            resume_from = i
            break
    return released, resume_from


def crash_run_primary_recovery(root, site, occurrence):
    """Crash at the site, then recover the *primary* and re-sync the
    follower by snapshot-install; resume serving the pair."""
    pdir, fdir = fresh_pair(os.path.join(str(root), f"{site}-{occurrence}"))
    plan = FaultPlan.crash_at(site, occurrence)
    with inject(plan):
        released, resume_from = crashed_serve(pdir, fdir, plan)
        crash_fired = bool(plan.fired)
        if crash_fired or not released:
            recovered, follower = open_pair(pdir, fdir, verify=True)
            for i in range(resume_from, len(QUERIES)):
                released[i] = recovered.audit(QUERIES[i])
            assert follower.total_events == recovered.wal.total_events
            assert replica_events(fdir) == replica_events(pdir)
            recovered.close()
    stream = [(released[i].denied, released[i].value, released[i].reason)
              for i in range(len(QUERIES))]
    return stream, crash_fired


def crash_run_failover(root, site, occurrence):
    """Crash at the site, then *fail over*: promote the follower and
    resume on it.  If the crash predates any committed replica state
    there is nothing to promote — recover the primary instead (you can
    only fail over to a replica that exists)."""
    pdir, fdir = fresh_pair(os.path.join(str(root), f"{site}-{occurrence}"))
    plan = FaultPlan.crash_at(site, occurrence)
    promoted_runs = 0
    with inject(plan):
        released, resume_from = crashed_serve(pdir, fdir, plan)
        crash_fired = bool(plan.fired)
        if crash_fired:
            if os.path.exists(os.path.join(fdir, MANIFEST_NAME)):
                promoted, _, info = promote_replica(
                    fdir, factory, policy=POLICY, verify=True)
                promoted_runs = 1
                assert promoted.wal.epoch == 1
                if info.snapshot_name is not None:
                    assert info.replayed_events <= POLICY.every_records
            else:
                promoted, _ = open_pair(pdir, fdir, verify=True)
            for i in range(resume_from, len(QUERIES)):
                released[i] = promoted.audit(QUERIES[i])
            promoted.close()
    stream = [(released[i].denied, released[i].value, released[i].reason)
              for i in range(len(QUERIES))]
    return stream, crash_fired, promoted_runs


@pytest.mark.parametrize("site", SWEEP_SITES)
def test_crash_everywhere_primary_recovery_is_bitwise_identical(
        site, baseline, tmp_path):
    occurrence = 0
    while occurrence < MAX_OCCURRENCES:
        stream, fired = crash_run_primary_recovery(tmp_path, site,
                                                   occurrence)
        assert stream == baseline, (
            f"crash at {site}#{occurrence} changed the released stream"
        )
        if not fired:
            break
        occurrence += 1
    else:
        pytest.fail(f"site {site} still firing after "
                    f"{MAX_OCCURRENCES} occurrences")
    if site in ("wal.mid-append", "ship.mid-segment"):
        # Those fire once per shipped record: the sweep crashed at every
        # record boundary on the respective side of the wire.
        assert occurrence >= len(QUERIES)


@pytest.mark.parametrize("site", SWEEP_SITES)
def test_crash_everywhere_failover_is_bitwise_identical(site, baseline,
                                                        tmp_path):
    occurrence = 0
    promotions = 0
    while occurrence < MAX_OCCURRENCES:
        stream, fired, promoted = crash_run_failover(tmp_path, site,
                                                     occurrence)
        promotions += promoted
        assert stream == baseline, (
            f"failover after a crash at {site}#{occurrence} changed the "
            f"released stream"
        )
        if not fired:
            break
        occurrence += 1
    else:
        pytest.fail(f"site {site} still firing after "
                    f"{MAX_OCCURRENCES} occurrences")
    # Every swept site must actually exercise promotion at least once
    # (the replica exists for all but the earliest creation crashes).
    assert promotions >= 1


def test_promotion_crash_before_the_fence_is_retryable(tmp_path):
    """Kill the would-be primary between recovery and the fence commit:
    the epoch is unbumped, the replica unharmed, and a promotion retry
    succeeds — after which the old epoch is durably dead."""
    pdir, fdir = fresh_pair(str(tmp_path))
    wrapped, follower = open_pair(pdir, fdir)
    for query in QUERIES[:7]:
        wrapped.audit(query)
    with inject(FaultPlan.crash_at("promote.pre-fence", 0)):
        with pytest.raises(InjectedCrash):
            promote_replica(fdir, factory, policy=POLICY)
    # Nothing was fenced: a re-opened replica is still at epoch 0.
    assert Follower.open(fdir, policy=POLICY).epoch == 0
    promoted, _, _ = promote_replica(fdir, factory, policy=POLICY,
                                     verify=True)
    assert promoted.wal.epoch == 1
    # The old primary reconnecting to the promoted replica is refused at
    # the door — its epoch-0 snapshot-install never lands.
    with pytest.raises(FencedError):
        wrapped.wal.attach(fdir)
    released = [promoted.audit(q) for q in QUERIES[7:]]
    assert all(d is not None for d in released)
    promoted.close()
    wrapped.close()


def test_double_crash_across_the_boundary_still_converges(baseline,
                                                          tmp_path):
    """Kill the follower mid-ship, recover the pair, then kill the
    primary mid-append on the resumed run: two kills on opposite sides
    of the wire still converge to the uncrashed stream."""
    pdir, fdir = fresh_pair(str(tmp_path))
    released = {}
    resume_from = 0
    with inject(FaultPlan.crash_at("ship.mid-segment", 2)):
        wrapped, _ = open_pair(pdir, fdir)
        for i, query in enumerate(QUERIES):
            try:
                released[i] = wrapped.audit(query)
                resume_from = i + 1
            except InjectedCrash:
                resume_from = i
                break
    with inject(FaultPlan.crash_at("wal.mid-append", 5)):
        recovered, _ = open_pair(pdir, fdir, verify=True)
        for i in range(resume_from, len(QUERIES)):
            try:
                released[i] = recovered.audit(QUERIES[i])
                resume_from = i + 1
            except InjectedCrash:
                resume_from = i
                break
    final, follower = open_pair(pdir, fdir, verify=True)
    for i in range(resume_from, len(QUERIES)):
        released[i] = final.audit(QUERIES[i])
    assert replica_events(fdir) == replica_events(pdir)
    assert follower.total_events == final.wal.total_events
    final.close()
    stream = [(released[i].denied, released[i].value, released[i].reason)
              for i in range(len(QUERIES))]
    assert stream == baseline


def test_fenced_old_primary_rejected_after_swept_failover(tmp_path):
    """The acceptance criterion stated directly: after any failover the
    resurrected old primary's appends are rejected, even through a
    *freshly opened* replica of the promoted directory."""
    pdir, fdir = fresh_pair(str(tmp_path))
    wrapped, _ = open_pair(pdir, fdir)
    for query in QUERIES[:6]:
        wrapped.audit(query)
    promoted, _, _ = promote_replica(fdir, factory, policy=POLICY)
    promoted.close()
    # The old primary reconnects to a re-opened replica of the promoted
    # directory — its epoch-0 frames must be refused at the door.
    resurrected, _ = open_wal_auditor(
        pdir, factory, make_dataset(), policy=POLICY, verify=True)
    with pytest.raises(FencedError):
        resurrected.wal.attach(fdir)
    resurrected.close()


def test_unreached_sites_do_not_fire(tmp_path):
    """promote.pre-fence never fires during ordinary replicated serving
    (it guards only the failover path), and the sampler sites stay off
    the deterministic path — so the sweep above provably covers every
    site that *can* fire."""
    for site in ("promote.pre-fence", "auditor.attempt",
                 "hit_and_run.step", "coloring.step"):
        pdir, fdir = fresh_pair(str(tmp_path / site))
        plan = FaultPlan.crash_at(site, 0)
        with inject(plan):
            wrapped, _ = open_pair(pdir, fdir)
            for query in QUERIES:
                wrapped.audit(query)
            wrapped.close()
        assert not plan.fired, f"{site} fired on the serving path"
