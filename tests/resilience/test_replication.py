"""Primary/follower WAL replication: shipments, parity, and fencing.

The contract under test: an answer is released only after every follower
durably acknowledged its record (released ⇒ replicated); a follower's
directory is a bitwise replica of the primary's live WAL; a damaged or
out-of-order shipment leaves the replica at its last committed state; a
replica already holding the primary's bytes is not rewritten on attach;
and after snapshot-install failover the promoted replica serves the
exact stream the primary would have, while the fenced old primary can
no longer get an append acknowledged.
"""

import os
import pathlib

import pytest

from repro.auditors.base import Auditor
from repro.auditors.sum_classic import SumClassicAuditor
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.replication import (
    Append,
    FencedError,
    Follower,
    FollowerReadOnlyAuditor,
    ReplicationError,
    promote_replica,
    replica_events,
)
from repro.resilience.wal import _encode_record, open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.sdb.updates import Modify
from repro.types import sum_query


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

#: Checkpoint every 4 events: the stream ships appends *and* sealed
#: snapshots, so parity covers install_checkpoint, not just raw_append.
POLICY = CheckpointPolicy(every_records=4)


def stored_files(directory):
    """Segment and snapshot bytes by name (the bitwise-parity payload)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith(("segment-", "snapshot-")):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = handle.read()
    return out


def serve_pair(root, queries=QUERIES, policy=POLICY):
    """A primary under ``root`` replicating to one in-process follower;
    serve queries."""
    pdir, fdir = str(root / "primary"), str(root / "follower")
    wrapped, _ = open_wal_auditor(
        pdir, factory, make_dataset(), replicate_to=[fdir], policy=policy,
    )
    [link] = wrapped.wal.links
    decisions = [wrapped.audit(q) for q in queries]
    return pdir, fdir, link.follower, wrapped, decisions


def record_ship(seq, epoch=0, data=None):
    """A well-formed record shipment for event ``seq``."""
    return Append(epoch, seq, data or _encode_record({"type": "noise"}))


def inodes(directory):
    return {name: os.stat(os.path.join(directory, name)).st_ino
            for name in sorted(os.listdir(directory))}


def all_files(directory):
    """Every file's bytes by name, MANIFEST included."""
    return {path.name: path.read_bytes()
            for path in sorted(pathlib.Path(directory).iterdir())}


def released_baseline(root):
    """The decision stream of an unreplicated checkpointed run."""
    wrapped, _ = open_wal_auditor(
        str(root / "baseline"), factory, make_dataset(), policy=POLICY)
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()
    return [(d.denied, d.value, d.reason) for d in decisions]


# ----------------------------------------------------------------------
# Replicated serving parity
# ----------------------------------------------------------------------

def test_replicated_serving_is_bitwise_parity(tmp_path):
    """After a full served stream the follower holds the same events in
    the same bytes, and a read of the replica re-releases the same bits."""
    pdir, fdir, follower, wrapped, decisions = serve_pair(tmp_path)
    assert [d.denied for d in decisions].count(True) >= 2
    assert follower.total_events == wrapped.wal.total_events == len(QUERIES)
    assert replica_events(fdir) == replica_events(pdir)
    assert stored_files(fdir) == stored_files(pdir)
    replica = FollowerReadOnlyAuditor(fdir, factory)
    for query, decision in zip(QUERIES, decisions):
        cached = replica.audit(query)
        assert (cached.denied, cached.value) == (decision.denied,
                                                 decision.value)
    wrapped.close()


def test_released_stream_matches_the_unreplicated_run(tmp_path):
    _, _, _, wrapped, decisions = serve_pair(tmp_path)
    wrapped.close()
    assert [(d.denied, d.value, d.reason)
            for d in decisions] == released_baseline(tmp_path)


def test_replica_directories_are_durability_only_followers(tmp_path):
    """A directory named in replicate_to keeps a bitwise copy of the log
    and nothing else: no second live auditor replays the stream."""
    pdir, rdir = str(tmp_path / "primary"), str(tmp_path / "replica")
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[rdir], policy=POLICY)
    decisions = [wrapped.audit(q) for q in QUERIES[:7]]
    [link] = wrapped.wal.links
    assert not any(isinstance(value, (Auditor, Dataset))
                   for value in vars(link.follower).values())
    wrapped.close()
    # Reopening re-syncs the replica before the next answer is released.
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[rdir], policy=POLICY)
    decisions += [wrapped.audit(q) for q in QUERIES[7:]]
    wrapped.close()
    assert [(d.denied, d.value, d.reason)
            for d in decisions] == released_baseline(tmp_path)
    assert replica_events(rdir) == replica_events(pdir)
    assert stored_files(rdir) == stored_files(pdir)


def test_late_attach_snapshot_installs_the_backlog(tmp_path):
    """A follower attached mid-stream is synced to a full copy before
    the next answer is released."""
    pdir = str(tmp_path / "primary")
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                         policy=POLICY)
    for query in QUERIES[:7]:
        wrapped.audit(query)
    fdir = str(tmp_path / "late-follower")
    wrapped.wal.attach(fdir)
    assert wrapped.wal.links[0].follower.total_events == 7
    for query in QUERIES[7:]:
        wrapped.audit(query)
    assert replica_events(fdir) == replica_events(pdir)
    assert stored_files(fdir) == stored_files(pdir)
    wrapped.close()


def test_update_events_replicate_into_the_live_dataset(tmp_path):
    # No checkpoint covers the update, so reading the replica replays it.
    _, fdir, follower, wrapped, _ = serve_pair(
        tmp_path, queries=QUERIES[:3],
        policy=CheckpointPolicy(every_records=8))
    wrapped.apply_update(Modify(index=0, value=15.0))
    assert follower.total_events == 4
    wrapped.close()
    assert FollowerReadOnlyAuditor(fdir, factory).dataset.values[0] == 15.0


def test_sync_refuses_to_rewind_replicated_history(tmp_path):
    """A fresh (empty) primary cannot snapshot-install over a replica
    that already holds more audit history — that would erase released
    decisions."""
    _, fdir, _, wrapped, _ = serve_pair(tmp_path)
    wrapped.close()
    with pytest.raises(ReplicationError, match="rewind"):
        open_wal_auditor(str(tmp_path / "fresh"), factory, make_dataset(),
                         replicate_to=[fdir], policy=POLICY)


# ----------------------------------------------------------------------
# Attach writes nothing to a replica that already holds the bytes
# ----------------------------------------------------------------------

def test_reopening_skips_the_install_on_an_identical_replica(tmp_path):
    pdir, fdir, _, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:7])
    wrapped.close()
    before_inodes, before_bytes = inodes(fdir), all_files(fdir)
    assert before_bytes == all_files(pdir)
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[fdir], policy=POLICY)
    assert wrapped.wal.links[0].follower.total_events == 7
    assert inodes(fdir) == before_inodes
    assert all_files(fdir) == before_bytes
    wrapped.close()


def test_reopening_reinstalls_a_replica_missing_its_last_record(tmp_path):
    pdir, fdir, _, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:7])
    wrapped.close()
    active = max(name for name in os.listdir(fdir)
                 if name.startswith("segment-"))
    path = os.path.join(fdir, active)
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    assert len(lines) >= 2
    with open(path, "wb") as handle:
        handle.writelines(lines[:-1])
    assert all_files(fdir) != all_files(pdir)
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[fdir], policy=POLICY)
    assert all_files(fdir) == all_files(pdir)
    decisions = [wrapped.audit(q) for q in QUERIES[7:]]
    wrapped.close()
    assert len(decisions) == len(QUERIES) - 7
    assert all_files(fdir) == all_files(pdir)


# ----------------------------------------------------------------------
# Damaged ships leave the replica at its last committed state
# ----------------------------------------------------------------------

def test_corrupted_record_crc_is_rejected_before_any_byte_lands(tmp_path):
    """A shipped record whose own checksum is damaged must not move the
    replica."""
    _, fdir, follower, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:3])
    before_events = follower.total_events
    before_files = stored_files(fdir)
    record = _encode_record({"type": "noise", "kind": "sum"})
    damaged = b"00000000" + record[8:]  # break the record's own CRC
    with pytest.raises(ReplicationError, match="checksum"):
        wrapped.wal.links[0].send(record_ship(before_events, data=damaged))
    assert follower.total_events == before_events
    assert stored_files(fdir) == before_files
    # The replica is still live for well-formed ships afterwards.
    wrapped.audit(QUERIES[3])
    assert follower.total_events == before_events + 1
    wrapped.close()


def test_append_gap_demands_a_resync(tmp_path):
    _, _, follower, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:2])
    with pytest.raises(ReplicationError, match="re-sync"):
        follower.apply(record_ship(follower.total_events + 1))
    wrapped.close()


def test_append_before_any_sync_is_refused(tmp_path):
    follower = Follower.open(str(tmp_path / "unsynced"))
    with pytest.raises(ReplicationError, match="sync"):
        follower.apply(record_ship(0))


# ----------------------------------------------------------------------
# Failover, promotion, fencing
# ----------------------------------------------------------------------

def test_promotion_serves_the_exact_remaining_stream(tmp_path):
    """Kill the primary after 7 answers; the promoted follower releases
    the remaining 5 exactly as the unfaulted primary would have."""
    _, fdir, _, wrapped, released = serve_pair(tmp_path, queries=QUERIES[:7])
    # The primary dies, and its in-process follower with it.  Fail over.
    wrapped.close()
    promoted, _, info = promote_replica(fdir, factory, policy=POLICY,
                                        verify=True)
    assert info.snapshot_name is not None
    assert info.replayed_events <= POLICY.every_records
    assert promoted.wal.epoch == 1
    released = list(released) + [promoted.audit(q) for q in QUERIES[7:]]
    assert [(d.denied, d.value, d.reason)
            for d in released] == released_baseline(tmp_path)
    promoted.close()


def test_fenced_old_primary_cannot_release_answers(tmp_path):
    pdir, fdir, _, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:5])
    wrapped.close()
    promoted, _, _ = promote_replica(fdir, factory, policy=POLICY)
    promoted.close()
    # The old primary restarts over its own log and re-attaches the
    # promoted directory: it never gets to serve the next query.
    with pytest.raises(FencedError):
        wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                      replicate_to=[fdir], policy=POLICY)
        wrapped.audit(QUERIES[5])


def test_promotion_fences_a_still_running_old_primary(tmp_path):
    """Failover while the old primary still runs: its next shipment
    finds the promoted MANIFEST and is refused, so the answer is never
    released and never reaches the promoted node's history."""
    pdir, rdir = str(tmp_path / "primary"), str(tmp_path / "replica")
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[rdir])
    assert wrapped.audit(sum_query([0, 1, 2])).value == 60.0
    promoted, _, _ = promote_replica(rdir, factory)
    # Without the fence, sum(x3..x5) = 150 here and sum(x3, x4) = 90
    # on the promoted node would disclose x5.
    with pytest.raises(FencedError):
        wrapped.audit(sum_query([3, 4, 5]))
    assert promoted.audit(sum_query([3, 4])).value == 90.0
    assert [e["members"] for e in replica_events(rdir)] == [[0, 1, 2],
                                                           [3, 4]]
    promoted.close()
    wrapped.close()


def test_fencing_epoch_is_durable_across_reopen(tmp_path):
    """The bumped epoch survives in the MANIFEST: a re-opened replica of
    the promoted directory still rejects the dead epoch's frames."""
    _, fdir, _, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:5])
    wrapped.close()
    promoted, _, _ = promote_replica(fdir, factory, policy=POLICY)
    promoted.close()
    reopened = Follower.open(fdir, policy=POLICY)
    assert reopened.epoch == 1
    with pytest.raises(FencedError, match="fenced at epoch 1"):
        reopened.apply(record_ship(5, epoch=0))
    # A legitimately newer primary is adopted, not fenced.
    reopened.apply(record_ship(5, epoch=2))
    assert reopened.epoch == 2
    reopened.close()


def test_promote_requires_replicated_state_and_a_factory(tmp_path):
    with pytest.raises(ReplicationError, match="factory"):
        promote_replica(str(tmp_path / "bare"), None)
    with pytest.raises(ReplicationError, match="never synced"):
        promote_replica(str(tmp_path / "bare2"), factory)


# ----------------------------------------------------------------------
# Acknowledgement discipline (released ⇒ replicated)
# ----------------------------------------------------------------------

class MisbehavingFollower:
    """Stands in for a replica's follower: acknowledges ``ack`` for
    every shipment, or raises it when it is an exception."""

    def __init__(self, ack):
        self._ack = ack

    def apply(self, ship):
        if isinstance(self._ack, Exception):
            raise self._ack
        return self._ack

    def close(self):
        pass


def misbehaving_primary(root, ack):
    """A primary whose one replica's follower misbehaves after attach."""
    wrapped, _ = open_wal_auditor(str(root / "primary"), factory,
                                  make_dataset(), policy=POLICY,
                                  replicate_to=[str(root / "replica")])
    [link] = wrapped.wal.links
    link.follower.close()
    link.follower = MisbehavingFollower(ack)
    return wrapped


@pytest.mark.parametrize("ack,match", [
    (None, "no acknowledgement"),
    (ReplicationError("replica refused the ship: disk full"),
     "refused the ship"),
    (0, "divergence"),
], ids=["None-no acknowledgement", "ack1-refused the ship",
        "ack2-divergence"])
def test_bad_acknowledgements_withhold_the_answer(ack, match, tmp_path):
    wrapped = misbehaving_primary(tmp_path, ack)
    with pytest.raises(ReplicationError, match=match):
        wrapped.audit(QUERIES[0])
    # The record is locally durable, but the answer was never released:
    # the recovered primary re-serves it identically.
    wrapped.close()


def test_fenced_ack_raises_fenced_error_on_the_sender(tmp_path):
    wrapped = misbehaving_primary(tmp_path, FencedError("superseded"))
    with pytest.raises(FencedError, match="superseded"):
        wrapped.audit(QUERIES[0])
    wrapped.close()


# ----------------------------------------------------------------------
# Read-only follower serving
# ----------------------------------------------------------------------

def test_follower_read_only_auditor_replays_or_denies(tmp_path):
    _, fdir, _, wrapped, decisions = serve_pair(tmp_path, queries=QUERIES[:6])
    replica = FollowerReadOnlyAuditor(fdir, factory, make_dataset())
    hit = replica.audit(QUERIES[0])
    assert (hit.denied, hit.value) == (decisions[0].denied,
                                       decisions[0].value)
    miss = replica.audit(sum_query([0, 2, 4]))
    assert miss.denied and "read-only replica" in miss.detail
    assert len(replica.trail) == 2  # hits and misses are both recorded
    with pytest.raises(ReplicationError, match="read-only"):
        replica.apply_update(Modify(index=0, value=1.0))
    wrapped.close()


def test_follower_read_only_auditor_rejects_a_foreign_dataset(tmp_path):
    _, fdir, _, wrapped, _ = serve_pair(tmp_path, queries=QUERIES[:3])
    other = Dataset([1.0, 2.0, 3.0], low=0.0, high=10.0)
    with pytest.raises(ReplicationError, match="different dataset"):
        FollowerReadOnlyAuditor(fdir, factory, other)
    wrapped.close()

