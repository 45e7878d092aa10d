"""Crash-everywhere chaos sweep over the checkpointed serving stack.

The strongest statement this repo makes about robustness: kill the
process at **every** instrumented point — each WAL record boundary
(mid-append and post-fsync, for every record), either side of the journal
append, mid-snapshot, before/after the manifest commit, mid-segment-roll,
mid-compaction — and after recovery the released decision stream is
bitwise-identical to the uncrashed run.  The sweep is exhaustive by
construction: for each site it advances the crash occurrence until a full
run no longer reaches it, so no instrumented point is silently skipped.

Deterministic auditors only: journal replay restores a probabilistic
auditor's *state* but not its RNG mid-decision, so "bitwise-identical" is
a theorem here and a non-goal there.
"""

import os

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.faults import FaultPlan, InjectedCrash, inject
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

#: Checkpoint every 4 events: three checkpoints inside the stream, so the
#: sweep exercises snapshot writes, segment rolls, manifest commits, and
#: compaction deletions mid-serve — not just steady-state appends.
POLICY = CheckpointPolicy(every_records=4)

#: Every deterministic-path site.  The sampler sites (auditor.attempt,
#: hit_and_run.step, coloring.step) never fire under a classic auditor;
#: the sweep proves that too (their occurrence-0 run reports no fire).
SWEEP_SITES = [
    "journal.pre-record",
    "wal.mid-append",
    "wal.post-fsync",
    "journal.post-record",
    "checkpoint.mid-snapshot",
    "checkpoint.pre-commit",
    "segment.post-roll",
    "manifest.mid-write",
    "checkpoint.post-commit",
    "compact.mid-delete",
]

#: Safety valve: no site fires anywhere near this often in one run.
MAX_OCCURRENCES = 64


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Released decisions of the uncrashed checkpointed run."""
    directory = str(tmp_path_factory.mktemp("baseline") / "wal")
    wrapped, _ = open_wal_auditor(directory, factory,
                                  make_dataset(), policy=POLICY)
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()
    assert [d.denied for d in decisions].count(True) >= 2
    return [(d.denied, d.value, d.reason) for d in decisions]


def crash_run(root, site, occurrence):
    """Serve QUERIES over a fresh WAL under ``root``, crashing at the
    ``occurrence``-th hit of ``site``; recover and resume from the first
    unacknowledged query.

    Returns ``(released, crash_fired, recovery_info)`` where ``released``
    is the full decision stream in query order.
    """
    directory = os.path.join(str(root), f"{site}-{occurrence}")
    plan = FaultPlan.crash_at(site, occurrence)
    released = {}
    with inject(plan):
        resume_from = 0
        wrapped = None
        try:
            wrapped, _ = open_wal_auditor(
                directory, factory, make_dataset(), policy=POLICY)
        except InjectedCrash:
            pass  # crashed during creation: recovery starts from nothing
        if wrapped is not None:
            for i, query in enumerate(QUERIES):
                try:
                    released[i] = wrapped.audit(query)
                    resume_from = i + 1
                except InjectedCrash:
                    # The in-flight answer was never released; the client
                    # will retry this query against the recovered server.
                    resume_from = i
                    break
        crash_fired = bool(plan.fired)
        if crash_fired or wrapped is None:
            recovered, _ = open_wal_auditor(
                directory, factory, make_dataset(), policy=POLICY,
                verify=True)
            info = recovered.wal.last_recovery
            for i in range(resume_from, len(QUERIES)):
                released[i] = recovered.audit(QUERIES[i])
            recovered.close()
        else:
            info = None
            wrapped.close()
    stream = [(released[i].denied, released[i].value, released[i].reason)
              for i in range(len(QUERIES))]
    return stream, crash_fired, info


@pytest.mark.parametrize("site", SWEEP_SITES)
def test_crash_everywhere_is_bitwise_identical(site, baseline, tmp_path):
    """For every occurrence of every site: crash, recover, resume —
    the released stream equals the uncrashed stream, bit for bit."""
    occurrence = 0
    while occurrence < MAX_OCCURRENCES:
        stream, fired, info = crash_run(tmp_path, site, occurrence)
        assert stream == baseline, (
            f"crash at {site}#{occurrence} changed the decision stream"
        )
        if not fired:
            # This occurrence was never reached: the previous one was the
            # site's last appearance in a full run — sweep complete.
            break
        if info is not None and info.snapshot_name is not None:
            # Bounded recovery: a snapshot was usable, so replay covered
            # only the post-checkpoint suffix, never the full history.
            assert info.replayed_events <= POLICY.every_records
        occurrence += 1
    else:
        pytest.fail(f"site {site} still firing after "
                    f"{MAX_OCCURRENCES} occurrences")
    if site in ("wal.mid-append", "wal.post-fsync"):
        # Record-boundary coverage: those sites fire once per event, so
        # the sweep crashed at every record boundary of the stream.
        assert occurrence >= len(QUERIES)


def test_sampler_sites_do_not_fire_on_the_deterministic_path(tmp_path):
    """The classic serving path never enters the samplers — asserted so
    the sweep above provably covers every site that *can* fire."""
    for site in ("auditor.attempt", "hit_and_run.step", "coloring.step"):
        _, fired, _ = crash_run(tmp_path, site, 0)
        assert not fired


def test_double_crash_still_converges(baseline, tmp_path):
    """Crash mid-checkpoint, recover, then crash again mid-append on the
    resumed run: two consecutive kills still converge to the baseline."""
    directory = str(tmp_path / "wal")
    released = {}
    resume_from = 0
    with inject(FaultPlan.crash_at("checkpoint.pre-commit", 0)):
        wrapped, _ = open_wal_auditor(
            directory, factory, make_dataset(), policy=POLICY)
        for i, query in enumerate(QUERIES):
            try:
                released[i] = wrapped.audit(query)
                resume_from = i + 1
            except InjectedCrash:
                resume_from = i
                break
    with inject(FaultPlan.crash_at("wal.mid-append", 2)):
        recovered, _ = open_wal_auditor(
            directory, factory, make_dataset(), policy=POLICY, verify=True)
        for i in range(resume_from, len(QUERIES)):
            try:
                released[i] = recovered.audit(QUERIES[i])
                resume_from = i + 1
            except InjectedCrash:
                resume_from = i
                break
    final, _ = open_wal_auditor(
        directory, factory, make_dataset(), policy=POLICY, verify=True)
    for i in range(resume_from, len(QUERIES)):
        released[i] = final.audit(QUERIES[i])
    final.close()
    stream = [(released[i].denied, released[i].value, released[i].reason)
              for i in range(len(QUERIES))]
    assert stream == baseline


def test_recovery_after_crash_replays_only_the_suffix(tmp_path):
    """The acceptance criterion, asserted via replay counts: after the
    stream's checkpoints, a crash-recovery replays at most one
    checkpoint interval of events — not the whole history."""
    stream, fired, info = crash_run(tmp_path, "wal.post-fsync",
                                    len(QUERIES) - 1)  # last record
    assert fired
    assert info is not None and info.snapshot_name is not None
    assert info.snapshot_events >= 8
    assert info.replayed_events <= POLICY.every_records
    assert info.snapshot_events + info.replayed_events <= len(QUERIES)
