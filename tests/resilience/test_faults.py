"""Crash/recover/replay drills: no fault sequence weakens the auditor.

The property under test is **fail-closed serving**: however the process is
killed — before the decision is persisted, mid-way through a WAL record,
or after fsync but before the answer is released — recovery must yield an
auditor whose released answers are exactly the unfaulted auditor's.  In
particular no crash/recover sequence may ever release an answer the
unfaulted auditor would have denied.
"""

import os

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.exceptions import ReproError
from repro.resilience.checkpoint import MANIFEST_NAME
from repro.resilience.faults import (
    KNOWN_SITES,
    Crash,
    FaultClock,
    FaultPlan,
    InjectedCrash,
    Raise,
    fault_site,
    inject,
    plan_active,
)
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import sum_query

pytestmark = pytest.mark.faults


def make_dataset():
    return Dataset([10.0, 20.0, 30.0, 40.0], low=0.0, high=100.0)


def factory(ds):
    return SumClassicAuditor(ds)


#: A stream mixing answers and denials (computed, not assumed: the
#: baseline fixture below records what the unfaulted auditor does).
QUERIES = [
    sum_query([0, 1, 2, 3]),
    sum_query([0, 1]),
    sum_query([0, 1, 2]),   # denied: difference would reveal x_2
    sum_query([2, 3]),
    sum_query([3]),         # denied: single element
]

#: Sites on the audit path, with the occurrence offset of query 0.  A
#: log directory keeps its dataset in the manifest, so every site fires
#: first for query 0; the ids keep the drills' established names.
AUDIT_PATH_SITES = [
    pytest.param("journal.pre-record", 0, id="journal.pre-record-0"),
    pytest.param("wal.mid-append", 0, id="wal.mid-append-1"),
    pytest.param("wal.post-fsync", 0, id="wal.post-fsync-1"),
    pytest.param("journal.post-record", 0, id="journal.post-record-0"),
]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Decisions of the unfaulted auditor over QUERIES."""
    wrapped, _ = open_wal_auditor(str(tmp_path_factory.mktemp("baseline")),
                                  factory, make_dataset())
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()
    assert [d.denied for d in decisions] == [False, False, True, False, True]
    return [(d.denied, d.value) for d in decisions]


# ----------------------------------------------------------------------
# Harness mechanics
# ----------------------------------------------------------------------

def test_plans_reject_unknown_sites():
    with pytest.raises(ReproError, match="unregistered fault site"):
        FaultPlan({"wal.nonexistent": [Crash()]})


def test_sites_are_noops_without_a_plan():
    assert not plan_active()
    fault_site("journal.pre-record")  # must not raise


def test_inject_is_exclusive_and_restores_state():
    plan = FaultPlan({})
    with inject(plan):
        assert plan_active()
        with pytest.raises(ReproError, match="already active"):
            with inject(FaultPlan({})):
                pass  # pragma: no cover
    assert not plan_active()


def test_scripts_fire_per_occurrence():
    plan = FaultPlan({"auditor.attempt": [None, Raise(ReproError)]})
    with inject(plan):
        fault_site("auditor.attempt")
        with pytest.raises(ReproError, match="injected fault"):
            fault_site("auditor.attempt")
        fault_site("auditor.attempt")  # beyond the script: no-op
    assert plan.hit_count("auditor.attempt") == 3
    assert plan.fired == [("auditor.attempt", 1)]


def test_injected_crash_is_not_catchable_as_exception():
    assert not issubclass(InjectedCrash, Exception)
    with inject(FaultPlan.crash_at("wal.post-fsync")):
        with pytest.raises(InjectedCrash) as exc:
            fault_site("wal.post-fsync")
    assert exc.value.site == "wal.post-fsync"


def test_fault_clock_stalls():
    clock = FaultClock(start=100.0)
    clock.advance(2.5)
    assert clock.now() == 102.5


# ----------------------------------------------------------------------
# The crash/recover/replay drill
# ----------------------------------------------------------------------

def crash_recover_replay(path, site, query_index, occurrence_offset):
    """Serve QUERIES over a fresh WAL at ``path``, crash at the given
    site during ``query_index``, recover, resume from the first
    unacknowledged query.

    Returns the full list of *released* decisions, in query order.
    """
    released = {}
    plan = FaultPlan.crash_at(site, query_index + occurrence_offset)
    with inject(plan):
        wrapped, _ = open_wal_auditor(path, factory, make_dataset())
        crashed_at = None
        for i, query in enumerate(QUERIES):
            try:
                released[i] = wrapped.audit(query)
            except InjectedCrash:
                crashed_at = i
                break
        assert crashed_at == query_index, (
            f"crash expected on query {query_index}, got {crashed_at}"
        )
        # The dead process's answer was never released; the client resumes
        # by retrying every unacknowledged query against the recovered
        # auditor (verify mode re-checks the whole durable history).
        recovered, _ = open_wal_auditor(path, factory, make_dataset(),
                                        verify=True)
        for i in range(crashed_at, len(QUERIES)):
            released[i] = recovered.audit(QUERIES[i])
        recovered.close()
    return [(released[i].denied, released[i].value)
            for i in range(len(QUERIES))]


@pytest.mark.parametrize("site,offset", AUDIT_PATH_SITES)
@pytest.mark.parametrize("query_index", range(len(QUERIES)))
def test_no_crash_point_changes_released_decisions(site, offset,
                                                   query_index, baseline,
                                                   tmp_path):
    released = crash_recover_replay(str(tmp_path / "wal"), site,
                                    query_index, offset)
    assert released == baseline


@pytest.mark.parametrize("site,offset", AUDIT_PATH_SITES)
def test_no_crash_turns_a_denial_into_an_answer(site, offset, baseline,
                                                tmp_path):
    """The fail-closed property, asserted directly: across every crash
    point, a query the unfaulted auditor denies is never answered."""
    denied_indices = {i for i, (denied, _) in enumerate(baseline) if denied}
    for query_index in range(len(QUERIES)):
        released = crash_recover_replay(str(tmp_path / f"wal-{query_index}"),
                                        site, query_index, offset)
        for i in denied_indices:
            assert released[i][0], (
                f"crash at {site} on query {query_index} released an "
                f"answer for query {i}, which must be denied"
            )


def test_crash_during_header_write_means_fresh_start(tmp_path):
    """A crash while the manifest (the log's header) is first written
    leaves no manifest and only an empty segment: nothing was ever
    journalled, so the next open starts a fresh log over the strays."""
    path = str(tmp_path / "wal")
    with inject(FaultPlan.crash_at("manifest.mid-write", 0)):
        with pytest.raises(InjectedCrash):
            open_wal_auditor(path, factory, make_dataset())
    assert MANIFEST_NAME not in os.listdir(path)
    wrapped, _ = open_wal_auditor(path, factory, make_dataset())
    assert wrapped.wal.last_recovery is None
    assert len(wrapped.trail) == 0
    wrapped.close()
    assert sorted(os.listdir(path)) == [MANIFEST_NAME, "segment-000001.log"]


def test_durable_but_unreleased_decision_is_treated_as_disclosed(tmp_path):
    """Crash after fsync, before release: the record is durable, the
    answer was never seen.  Recovery must keep it — the fail-closed
    resolution of the ambiguity — because the attacker *may* have seen
    the answer even though the server never saw it acknowledged."""
    path = str(tmp_path / "wal")
    wrapped, _ = open_wal_auditor(path, factory, make_dataset())
    with inject(FaultPlan.crash_at("journal.post-record")):
        with pytest.raises(InjectedCrash):
            wrapped.audit(sum_query([0, 1, 2, 3]))
    recovered, _ = open_wal_auditor(path, factory, make_dataset(),
                                    verify=True)
    # The unreleased total is kept in the history...
    assert len(recovered.trail) == 1
    # ...so the subset query — answerable against an empty history, but a
    # full disclosure of x_3 when combined with the remembered total —
    # stays denied.
    fresh = factory(make_dataset())
    assert fresh.audit(sum_query([0, 1, 2])).answered
    assert recovered.audit(sum_query([0, 1, 2])).denied
    recovered.close()
