"""Checkpointed WAL: bounded recovery, compaction, and fallback chains.

The contract under test: snapshots bound recovery replay to the
post-checkpoint suffix; a torn or corrupt snapshot falls back to the
previous one and then to a full replay (while the pre-checkpoint segments
survive); manifest damage is refused, never healed; and every fallback
path reconstructs the exact same audit state as the unfaulted run.
"""

import base64
import json
import os
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditors.sum_classic import SumClassicAuditor
from repro.persistence import JournalError
from repro.resilience.checkpoint import (
    KEEP_SNAPSHOTS,
    MANIFEST_NAME,
    CheckpointPolicy,
    CheckpointedWal,
)
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import AuditDecision, DenialReason, sum_query

pytestmark = pytest.mark.faults


def make_dataset():
    return Dataset([10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
                   low=0.0, high=100.0)


def factory(ds):
    return SumClassicAuditor(ds)


#: Twelve queries mixing answers and denials (the first test pins which).
QUERIES = [
    sum_query([0, 1, 2, 3, 4, 5]),
    sum_query([0, 1, 2]),
    sum_query([3, 4, 5]),
    sum_query([0, 1]),       # denied: difference would reveal x_2
    sum_query([2, 3]),
    sum_query([4, 5]),       # denied: completes a chain to singletons
    sum_query([0, 1, 2, 3]),
    sum_query([1, 2, 3, 4]),
    sum_query([2, 3, 4, 5]),
    sum_query([0, 5]),
    sum_query([1, 4]),
    sum_query([0, 1, 4, 5]),
]

POLICY = CheckpointPolicy(every_records=4)


def serve(directory, queries=QUERIES, policy=POLICY, verify=False):
    """Open (or recover) the checkpointed WAL and audit ``queries``."""
    wrapped, _ = open_wal_auditor(
        directory, factory, make_dataset(), policy=policy, verify=verify,
    )
    decisions = [wrapped.audit(q) for q in queries]
    info = wrapped.wal.last_recovery
    wrapped.close()
    return [(d.denied, d.value) for d in decisions], info


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    wrapped, _ = open_wal_auditor(str(tmp_path_factory.mktemp("baseline")),
                                  factory, make_dataset())
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()
    assert [d.denied for d in decisions].count(True) >= 2
    return [(d.denied, d.value) for d in decisions]


# ----------------------------------------------------------------------
# Round trip, bounded replay, compaction
# ----------------------------------------------------------------------

def test_round_trip_preserves_decisions(tmp_path, baseline):
    directory = str(tmp_path / "wal")
    first, info = serve(directory)
    assert first == baseline
    assert info is None  # fresh creation, nothing recovered
    second, info = serve(directory, verify=True)
    # The recovered auditor re-serves the same stream identically (every
    # query repeats an already-released bit, so nothing new is disclosed).
    assert second == baseline
    assert info is not None


def test_recovery_replays_only_the_post_checkpoint_suffix(tmp_path):
    directory = str(tmp_path / "wal")
    _, _ = serve(directory)
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=POLICY, verify=True)
    wrapped.close()
    # 12 events with a checkpoint every 4: the newest snapshot covers all
    # 12, so the suffix replay is empty — nowhere near the full history.
    assert info.snapshot_name is not None
    assert info.snapshot_events + info.replayed_events == len(QUERIES)
    assert info.replayed_events < POLICY.every_records
    assert info.snapshots_skipped == 0


def test_compaction_deletes_covered_segments(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)
    names = sorted(os.listdir(directory))
    segments = [n for n in names if n.startswith("segment-")]
    snapshots = [n for n in names if n.startswith("snapshot-")]
    # KEEP_SNAPSHOTS=2 retains two snapshots and only the segments newer
    # than the older of them; the early history is gone from disk.
    assert len(snapshots) == KEEP_SNAPSHOTS
    assert "segment-000001.log" not in segments
    assert len(segments) <= KEEP_SNAPSHOTS + 1


def test_compaction_disabled_keeps_full_history(tmp_path):
    directory = str(tmp_path / "wal")
    policy = CheckpointPolicy(every_records=4, compact=False)
    serve(directory, policy=policy)
    segments = [n for n in sorted(os.listdir(directory))
                if n.startswith("segment-")]
    assert "segment-000001.log" in segments


def test_open_wal_auditor_dispatches_directories(tmp_path, baseline):
    """The single serving entry point opens every log as a checkpointed
    directory, with or without an explicit policy."""
    directory = str(tmp_path / "waldir")
    wrapped, _ = open_wal_auditor(directory, factory, make_dataset(),
                                  policy=POLICY)
    assert isinstance(wrapped.wal, CheckpointedWal)
    decisions = [(d.denied, d.value)
                 for d in (wrapped.audit(q) for q in QUERIES[:2])]
    wrapped.close()
    assert decisions == baseline[:2]
    # Reopen via the directory path alone — the default policy applies.
    wrapped, _ = open_wal_auditor(directory, factory, make_dataset())
    assert isinstance(wrapped.wal, CheckpointedWal)
    wrapped.close()


def test_byte_trigger_checkpoints(tmp_path):
    directory = str(tmp_path / "wal")
    policy = CheckpointPolicy(every_records=None, every_bytes=1)
    wrapped, _ = open_wal_auditor(
        directory, factory, make_dataset(), policy=policy)
    wrapped.audit(QUERIES[0])
    wrapped.audit(QUERIES[1])
    wrapped.close()
    assert any(n.startswith("snapshot-") for n in os.listdir(directory))


# ----------------------------------------------------------------------
# Fallback chain: newest snapshot -> older snapshot -> full replay -> refuse
# ----------------------------------------------------------------------

def corrupt_file(path):
    with open(path, "r+b") as handle:
        raw = handle.read()
        handle.seek(len(raw) // 2)
        handle.write(b"\xff")


def newest_snapshot(directory):
    return sorted(n for n in os.listdir(directory)
                  if n.startswith("snapshot-"))[-1]


def test_corrupt_newest_snapshot_falls_back_to_previous(tmp_path, baseline):
    directory = str(tmp_path / "wal")
    serve(directory)
    corrupt_file(os.path.join(directory, newest_snapshot(directory)))
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=POLICY, verify=True)
    assert info.snapshots_skipped == 1
    assert info.snapshot_name is not None
    # The older snapshot covers less history, so the suffix is longer —
    # but the recovered state still matches: the stream re-serves alike.
    decisions = [(d.denied, d.value)
                 for d in (wrapped.audit(q) for q in QUERIES)]
    wrapped.close()
    assert decisions == baseline


def test_all_snapshots_corrupt_with_compaction_refuses(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)  # compaction deleted the pre-checkpoint segments
    for name in os.listdir(directory):
        if name.startswith("snapshot-"):
            corrupt_file(os.path.join(directory, name))
    with pytest.raises(JournalError, match="compacted away"):
        CheckpointedWal.recover(directory, factory, policy=POLICY)


def test_all_snapshots_corrupt_without_compaction_full_replays(
        tmp_path, baseline):
    directory = str(tmp_path / "wal")
    policy = CheckpointPolicy(every_records=4, compact=False)
    first, _ = serve(directory, policy=policy)
    assert first == baseline
    for name in os.listdir(directory):
        if name.startswith("snapshot-"):
            corrupt_file(os.path.join(directory, name))
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=policy, verify=True)
    assert info.snapshot_name is None            # full replay
    assert info.snapshots_skipped == 2
    assert info.replayed_events == len(QUERIES)
    decisions = [(d.denied, d.value)
                 for d in (wrapped.audit(q) for q in QUERIES)]
    wrapped.close()
    assert decisions == baseline


def test_corrupt_manifest_is_refused_not_healed(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)
    corrupt_file(os.path.join(directory, MANIFEST_NAME))
    with pytest.raises(JournalError, match="damage or tampering"):
        CheckpointedWal.recover(directory, factory)


def test_sealed_segment_damage_is_refused(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)
    manifest = json.loads(
        open(os.path.join(directory, MANIFEST_NAME), "rb")
        .read().split(b" ", 1)[1])
    sealed = [s["name"] for s in manifest["segments"]
              if s["count"] is not None][0]
    corrupt_file(os.path.join(directory, sealed))
    # Damage before the tail is caught by the frame parser; damage *in*
    # the tail of a sealed segment by the manifest's sealed record count.
    # Either way: refusal with operator guidance, never healing.
    with pytest.raises(JournalError, match="restore from a replica"):
        CheckpointedWal.recover(directory, factory)


def test_torn_active_tail_is_healed(tmp_path, baseline):
    directory = str(tmp_path / "wal")
    serve(directory, queries=QUERIES[:-1])  # 11 events: 3 live after cp
    manifest = json.loads(
        open(os.path.join(directory, MANIFEST_NAME), "rb")
        .read().split(b" ", 1)[1])
    active = [s["name"] for s in manifest["segments"]
              if s["count"] is None][0]
    path = os.path.join(directory, active)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 3)
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=POLICY, verify=True)
    assert info.torn_tail_healed
    # The torn final event (query 10) was never acknowledged; the client
    # retries it and the stream converges to the baseline.
    decisions = [(d.denied, d.value)
                 for d in (wrapped.audit(q) for q in QUERIES[10:])]
    wrapped.close()
    assert decisions == baseline[10:]


def test_dataset_mismatch_is_refused(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)
    other = Dataset([1.0, 2.0, 3.0], low=0.0, high=10.0)
    with pytest.raises(JournalError, match="different dataset"):
        open_wal_auditor(directory, factory, other, policy=POLICY)


def test_create_refuses_unmanifested_history(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)
    os.unlink(os.path.join(directory, MANIFEST_NAME))
    with pytest.raises(JournalError, match="no\\s+manifest"):
        CheckpointedWal.create(directory, make_dataset())


def test_recovery_sweeps_orphans(tmp_path):
    directory = str(tmp_path / "wal")
    serve(directory)
    for name in ("snapshot-000099.snap", "segment-000099.log",
                 MANIFEST_NAME + ".tmp"):
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(b"leftover from a crashed checkpoint")
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=POLICY)
    wrapped.close()
    assert info.orphans_removed == 3
    assert not any(n.endswith(".tmp") or n.endswith("99.snap")
                   or n.endswith("99.log")
                   for n in os.listdir(directory))


# ----------------------------------------------------------------------
# Snapshots hold decision state and counters, not the decisions
# ----------------------------------------------------------------------

def snapshot_size(directory):
    return os.path.getsize(os.path.join(directory,
                                        newest_snapshot(directory)))


@pytest.mark.parametrize("stream", ["denials", "saturated-sum"])
def test_snapshot_size_stops_growing_with_the_decision_state(tmp_path,
                                                             stream):
    """Once the decision state stops changing, the newest snapshot after
    N and after 4N records is the same size to within a few bytes of
    counters: the WAL, not the snapshot, is the decision history."""
    every = 32
    if stream == "denials":  # every singleton sum discloses its record
        queries = [sum_query([i % 6]) for i in range(4 * every)]
    else:  # random sums: the row space saturates within the first N
        rng = random.Random(7)
        queries = [sum_query(rng.sample(range(6), rng.randint(2, 5)))
                   for _ in range(4 * every)]
    wrapped, _ = open_wal_auditor(
        str(tmp_path / "wal"), factory, make_dataset(),
        policy=CheckpointPolicy(every_records=every))
    sizes, ranks = [], []
    for start in range(0, len(queries), every):
        for query in queries[start:start + every]:
            wrapped.audit(query)
        sizes.append(snapshot_size(str(tmp_path / "wal")))
        ranks.append(wrapped.auditor.rank)
    wrapped.close()
    assert len(set(ranks)) == 1, "the decision state still changed"
    assert abs(sizes[-1] - sizes[0]) <= 32, sizes


#: A compacted log written by commit 87e6fbe, whose trail still kept
#: every decision: :func:`serve_event_trail_log` ran there and closed
#: the log.  Its snapshots pickle ``repro.types.AuditEvent`` instances.
EVENT_TRAIL_LOG = os.path.join(os.path.dirname(__file__),
                               "event_trail_log")

EVENT_TRAIL_QUERIES = QUERIES + [sum_query([0]), sum_query([1, 2])]
NEXT_QUERIES = [
    sum_query([0, 1, 2, 3, 4, 5]),
    sum_query([2]),
    sum_query([1, 2, 3, 4]),
    sum_query([0, 1, 4, 5]),
]
#: What 87e6fbe read back from the log: the recovered trail's counts and
#: its decisions on NEXT_QUERIES.
EVENT_TRAIL_SUMMARY = {
    "queries": 15,
    "answered": 8,
    "denied": 7,
    "denied_by_reason": {"full-disclosure": 6, "resource-exhausted": 1},
}
EVENT_TRAIL_NEXT = [(False, 210.0), (True, None), (False, 140.0),
                    (False, 140.0)]


def fraction_factory(ds):
    # Exact arithmetic keeps the pickled state free of numpy, so the
    # committed snapshots do not depend on numpy's pickle paths.
    return SumClassicAuditor(ds, backend="fraction")


def serve_event_trail_log(directory):
    """Write the committed log's 15 events; returns the open log.

    Checkpoints at 4, 8 and 12 events compact the first two segments
    away, so only the snapshots can rebuild the state.
    """
    wrapped, _ = open_wal_auditor(directory, fraction_factory,
                                  make_dataset(), policy=POLICY)
    for query in EVENT_TRAIL_QUERIES:
        wrapped.audit(query)
    wrapped.record_refusal(sum_query([3]), AuditDecision.deny(
        DenialReason.RESOURCE_EXHAUSTED, "refused at the network edge"))
    return wrapped


def snapshot_state(path):
    with open(path, "rb") as handle:
        record = json.loads(handle.read().split(b" ", 1)[1])
    return base64.b64decode(record["state"])


def test_a_log_written_with_an_event_trail_recovers_and_sheds_it(tmp_path):
    directory = str(tmp_path / "old")
    shutil.copytree(EVENT_TRAIL_LOG, directory)
    old_snapshot = os.path.join(directory, newest_snapshot(directory))
    assert b"AuditEvent" in snapshot_state(old_snapshot)
    assert "segment-000001.log" not in os.listdir(directory)

    wrapped, _, info = CheckpointedWal.recover(directory, fraction_factory,
                                               policy=POLICY, verify=True)
    assert (info.snapshot_events, info.replayed_events) == (12, 3)
    assert wrapped.trail.summary() == EVENT_TRAIL_SUMMARY
    decisions = [(d.denied, d.value)
                 for d in (wrapped.audit(q) for q in NEXT_QUERIES)]
    assert decisions == EVENT_TRAIL_NEXT
    wrapped.close()

    # The first checkpoint after the upgrade (at 16 events) sheds the
    # old buffer: it is the size of a fresh log's snapshot at 16 events.
    fresh = serve_event_trail_log(str(tmp_path / "fresh"))
    fresh.audit(NEXT_QUERIES[0])
    fresh.close()
    assert snapshot_size(directory) == snapshot_size(str(tmp_path / "fresh"))
    assert b"AuditEvent" not in snapshot_state(
        os.path.join(directory, newest_snapshot(directory)))


# ----------------------------------------------------------------------
# Property tests (Hypothesis)
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10**9))
def test_torn_active_segment_heals_at_every_byte_offset(tmp_path_factory,
                                                        cut):
    """Truncating the active segment anywhere inside its final record
    (any byte offset) recovers to exactly the prefix stream."""
    directory = str(tmp_path_factory.mktemp("wal") / "dir")
    serve(directory, queries=QUERIES[:6])  # checkpoint at 4, 2 live events
    manifest = json.loads(
        open(os.path.join(directory, MANIFEST_NAME), "rb")
        .read().split(b" ", 1)[1])
    active = [s["name"] for s in manifest["segments"]
              if s["count"] is None][0]
    path = os.path.join(directory, active)
    raw = open(path, "rb").read()
    boundary = raw.rstrip(b"\n").rfind(b"\n") + 1
    tail_len = len(raw) - boundary
    with open(path, "r+b") as handle:
        handle.truncate(boundary + cut % tail_len)
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=POLICY, verify=True)
    wrapped.close()
    # A zero-byte cut lands exactly on the record boundary — a clean file,
    # not a tear; every other offset leaves a tail to heal.
    assert info.torn_tail_healed == (cut % tail_len != 0)
    assert info.snapshot_events + info.replayed_events == 5  # event 5 torn


@settings(max_examples=40, deadline=None)
@given(where=st.integers(min_value=0, max_value=10**9),
       flip=st.integers(min_value=1, max_value=255))
def test_snapshot_corruption_round_trips_to_identical_decisions(
        tmp_path_factory, where, flip):
    """Flipping any byte of the newest snapshot never changes what the
    recovered auditor releases — the fallback chain absorbs the damage."""
    directory = str(tmp_path_factory.mktemp("wal") / "dir")
    reference, _ = serve(directory)
    snap = os.path.join(directory, newest_snapshot(directory))
    raw = bytearray(open(snap, "rb").read())
    raw[where % len(raw)] ^= flip
    with open(snap, "wb") as handle:
        handle.write(bytes(raw))
    wrapped, _, info = CheckpointedWal.recover(directory, factory,
                                               policy=POLICY, verify=True)
    decisions = [(d.denied, d.value)
                 for d in (wrapped.audit(q) for q in QUERIES)]
    wrapped.close()
    assert info.snapshots_skipped <= 1
    assert decisions == reference
