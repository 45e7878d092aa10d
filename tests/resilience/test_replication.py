"""Primary/follower WAL replication: protocol, parity, and fencing.

The contract under test: an answer is released only after every follower
durably acknowledged its record (released ⇒ replicated); a follower's
directory is a bitwise replica of the primary's live WAL; a torn or
corrupted ship leaves the replica at its last committed state; and after
snapshot-install failover the promoted follower serves the exact stream
the primary would have, while the fenced old primary can no longer get
an append acknowledged.
"""

import os
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditors.sum_classic import SumClassicAuditor
from repro.resilience.checkpoint import MANIFEST_NAME, CheckpointPolicy
from repro.resilience.replication import (
    FRAME_APPEND,
    FRAME_HEADER,
    FRAME_HELLO,
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    FencedError,
    Follower,
    FollowerReadOnlyAuditor,
    FrameDecoder,
    LocalLink,
    ProcessLink,
    ReplicationError,
    _b64,
    encode_frame,
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


def tmpdir(name):
    return os.path.join(tempfile.mkdtemp(), name)


def stored_files(directory):
    """Segment and snapshot bytes by name (the bitwise-parity payload)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith(("segment-", "snapshot-")):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = handle.read()
    return out


def serve_pair(queries=QUERIES, policy=POLICY):
    """A primary replicating to one in-process follower; serve queries."""
    pdir, fdir = tmpdir("primary"), tmpdir("follower")
    follower = Follower.open(fdir, auditor_factory=factory, policy=policy)
    wrapped, _ = open_wal_auditor(
        pdir, factory, make_dataset(),
        replicate_to=[LocalLink(follower)], policy=policy,
    )
    decisions = [wrapped.audit(q) for q in queries]
    return pdir, fdir, follower, wrapped, decisions


def released_baseline():
    """The decision stream of an unreplicated checkpointed run."""
    wrapped, _ = open_wal_auditor(
        tmpdir("baseline"), factory, make_dataset(), policy=POLICY)
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()
    return [(d.denied, d.value, d.reason) for d in decisions]


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------

def test_frame_roundtrip():
    payload = {"epoch": 3, "seq": 7, "data": "aGk="}
    frames = FrameDecoder().feed(encode_frame(FRAME_APPEND, payload))
    assert frames == [(FRAME_APPEND, payload)]


def test_decoder_buffers_partial_frames_across_feeds():
    """Three frames delivered one byte at a time arrive intact and in
    order — a ship torn at *every* byte offset of the header and body."""
    payloads = [{"i": i, "pad": "x" * i} for i in range(3)]
    stream = b"".join(encode_frame(FRAME_HELLO, p) for p in payloads)
    decoder = FrameDecoder()
    seen = []
    for i in range(len(stream)):
        seen.extend(decoder.feed(stream[i:i + 1]))
    assert seen == [(FRAME_HELLO, p) for p in payloads]
    assert decoder.pending_bytes == 0


def test_decoder_rejects_lost_framing():
    with pytest.raises(ReplicationError, match="lost framing"):
        FrameDecoder().feed(b"NOPE" + b"\x00" * 16)


def test_decoder_rejects_oversized_length():
    header = FRAME_HEADER.pack(FRAME_MAGIC, FRAME_HELLO,
                               MAX_FRAME_BYTES + 1, 0)
    with pytest.raises(ReplicationError, match="corruption"):
        FrameDecoder().feed(header)


def test_decoder_rejects_checksum_damage():
    frame = bytearray(encode_frame(FRAME_HELLO, {"epoch": 0}))
    frame[-1] ^= 0xFF  # flip one body byte; header CRC now disagrees
    with pytest.raises(ReplicationError, match="checksum"):
        FrameDecoder().feed(bytes(frame))


def test_decoder_rejects_non_object_payload():
    body = b"[1,2,3]"
    frame = FRAME_HEADER.pack(FRAME_MAGIC, FRAME_HELLO, len(body),
                              zlib.crc32(body) & 0xFFFFFFFF) + body
    with pytest.raises(ReplicationError, match="not an object"):
        FrameDecoder().feed(frame)


# ----------------------------------------------------------------------
# Replicated serving parity
# ----------------------------------------------------------------------

def test_replicated_serving_is_bitwise_parity():
    """After a full served stream the follower holds the same events in
    the same bytes, and its decision cache re-releases the same bits."""
    pdir, fdir, follower, wrapped, decisions = serve_pair()
    assert [d.denied for d in decisions].count(True) >= 2
    assert follower.total_events == wrapped.wal.total_events == len(QUERIES)
    assert replica_events(fdir) == replica_events(pdir)
    assert stored_files(fdir) == stored_files(pdir)
    for query, decision in zip(QUERIES, decisions):
        cached = follower.decision_for(query)
        assert cached is not None
        assert (cached.denied, cached.value) == (decision.denied,
                                                 decision.value)
    wrapped.close()


def test_released_stream_matches_the_unreplicated_run():
    _, _, _, wrapped, decisions = serve_pair()
    wrapped.close()
    assert [(d.denied, d.value, d.reason)
            for d in decisions] == released_baseline()


def test_replica_directories_are_durability_only_followers():
    """A directory named in replicate_to keeps a bitwise copy of the log
    and nothing else: no second live auditor replays the stream."""
    pdir, rdir = tmpdir("primary"), tmpdir("replica")
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[rdir], policy=POLICY)
    decisions = [wrapped.audit(q) for q in QUERIES[:7]]
    [link] = wrapped.wal.links
    assert link.follower.history is None
    assert link.follower.live_dataset is None
    wrapped.close()
    # Reopening re-syncs the replica before the next answer is released.
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                  replicate_to=[rdir], policy=POLICY)
    decisions += [wrapped.audit(q) for q in QUERIES[7:]]
    wrapped.close()
    assert [(d.denied, d.value, d.reason)
            for d in decisions] == released_baseline()
    assert replica_events(rdir) == replica_events(pdir)
    assert stored_files(rdir) == stored_files(pdir)


def test_late_attach_snapshot_installs_the_backlog():
    """A follower attached mid-stream is synced to a full copy before
    the next answer is released."""
    pdir = tmpdir("primary")
    wrapped, _ = open_wal_auditor(pdir, factory, make_dataset(),
                                         policy=POLICY)
    for query in QUERIES[:7]:
        wrapped.audit(query)
    fdir = tmpdir("late-follower")
    follower = Follower.open(fdir, auditor_factory=factory, policy=POLICY)
    wrapped.wal.attach(LocalLink(follower))
    assert follower.total_events == 7
    for query in QUERIES[7:]:
        wrapped.audit(query)
    assert replica_events(fdir) == replica_events(pdir)
    assert stored_files(fdir) == stored_files(pdir)
    wrapped.close()


def test_update_events_replicate_into_the_live_dataset():
    _, _, follower, wrapped, _ = serve_pair(queries=QUERIES[:3])
    wrapped.apply_update(Modify(index=0, value=15.0))
    assert follower.live_dataset.values[0] == 15.0
    assert follower.total_events == 4
    wrapped.close()


def test_sync_refuses_to_rewind_replicated_history():
    """A fresh (empty) primary cannot snapshot-install over a replica
    that already holds more audit history — that would erase released
    decisions."""
    _, fdir, follower, wrapped, _ = serve_pair()
    wrapped.close()
    follower = Follower.open(fdir, auditor_factory=factory, policy=POLICY)
    with pytest.raises(ReplicationError, match="rewind"):
        open_wal_auditor(tmpdir("fresh"), factory, make_dataset(),
                                replicate_to=[LocalLink(follower)],
                                policy=POLICY)


# ----------------------------------------------------------------------
# Damaged ships leave the replica at its last committed state
# ----------------------------------------------------------------------

def test_corrupted_record_crc_is_rejected_before_any_byte_lands():
    """A frame that passes the *frame* CRC but carries a record whose own
    checksum is damaged must not move the replica."""
    _, fdir, follower, wrapped, _ = serve_pair(queries=QUERIES[:3])
    before_events = follower.total_events
    before_files = stored_files(fdir)
    record = _encode_record({"type": "noise", "kind": "sum"})
    damaged = b"00000000" + record[8:]  # break the record's own CRC
    frame = encode_frame(FRAME_APPEND, {
        "epoch": 0, "seq": before_events, "data": _b64(damaged),
    })
    with pytest.raises(ReplicationError, match="checksum"):
        follower.feed(frame)
    assert follower.total_events == before_events
    assert stored_files(fdir) == before_files
    # The replica is still live for well-formed ships afterwards.
    wrapped.audit(QUERIES[3])
    assert follower.total_events == before_events + 1
    wrapped.close()


def test_append_gap_demands_a_resync():
    _, _, follower, wrapped, _ = serve_pair(queries=QUERIES[:2])
    frame = encode_frame(FRAME_APPEND, {
        "epoch": 0, "seq": follower.total_events + 1,
        "data": _b64(_encode_record({"type": "noise"})),
    })
    with pytest.raises(ReplicationError, match="re-sync"):
        follower.feed(frame)
    wrapped.close()


def test_append_before_any_sync_is_refused():
    follower = Follower.open(tmpdir("unsynced"))
    frame = encode_frame(FRAME_APPEND, {
        "epoch": 0, "seq": 0, "data": _b64(_encode_record({"type": "x"})),
    })
    with pytest.raises(ReplicationError, match="sync"):
        follower.feed(frame)


#: A served stream captured frame-by-frame, built once (module cache):
#: the raw bytes a follower would read off the wire, sync included.
_SHIPPED = {}


class TeeLink:
    """A link that records every shipped frame before delivering it."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []

    def send(self, frame):
        self.frames.append(frame)
        return self.inner.send(frame)

    def close(self):
        self.inner.close()


def shipped_stream():
    if not _SHIPPED:
        pdir, fdir = tmpdir("primary"), tmpdir("follower")
        follower = Follower.open(fdir, auditor_factory=factory,
                                 policy=POLICY)
        tee = TeeLink(LocalLink(follower))
        wrapped, _ = open_wal_auditor(
            pdir, factory, make_dataset(), replicate_to=[tee],
            policy=POLICY)
        for query in QUERIES:
            wrapped.audit(query)
        wrapped.close()
        _SHIPPED["stream"] = b"".join(tee.frames)
        _SHIPPED["events"] = follower.total_events
        _SHIPPED["files"] = stored_files(fdir)
    return _SHIPPED["stream"], _SHIPPED["events"], _SHIPPED["files"]


def test_torn_ship_at_every_byte_offset_applies_whole_frames_only():
    """Feed the captured wire stream one byte at a time: the replica
    advances only at frame boundaries, never from a partial ship, and
    ends bitwise-identical to the directly-served follower."""
    stream, events, files = shipped_stream()
    fdir = tmpdir("torn")
    follower = Follower.open(fdir, auditor_factory=factory, policy=POLICY,
                             fsync=False)
    applied = 0
    for i in range(len(stream)):
        acks = follower.feed(stream[i:i + 1])
        applied += len(acks)
        assert follower.total_events <= events
    assert applied > len(QUERIES)  # sync + appends + checkpoints
    assert follower.total_events == events
    assert follower.close() is None
    assert stored_files(fdir) == files


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_torn_ship_at_an_arbitrary_split_converges(data):
    """Cut the wire stream at an arbitrary byte: the prefix leaves the
    replica at a committed prefix state, and the remainder completes it."""
    stream, events, files = shipped_stream()
    cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
    fdir = tmpdir("split")
    follower = Follower.open(fdir, auditor_factory=factory, policy=POLICY,
                             fsync=False)
    follower.feed(stream[:cut])
    mid = follower.total_events
    assert 0 <= mid <= events
    follower.feed(stream[cut:])
    assert follower.total_events == events
    follower.close()
    assert stored_files(fdir) == files


# ----------------------------------------------------------------------
# Failover, promotion, fencing
# ----------------------------------------------------------------------

def test_promotion_serves_the_exact_remaining_stream():
    """Kill the primary after 7 answers; the promoted follower releases
    the remaining 5 exactly as the unfaulted primary would have."""
    _, fdir, follower, wrapped, released = serve_pair(queries=QUERIES[:7])
    # Primary "dies": nothing more is shipped.  Fail over.
    promoted, _, info = follower.promote(verify=True)
    assert info.snapshot_name is not None
    assert info.replayed_events <= POLICY.every_records
    assert promoted.wal.epoch == 1
    released = list(released) + [promoted.audit(q) for q in QUERIES[7:]]
    assert [(d.denied, d.value, d.reason)
            for d in released] == released_baseline()
    promoted.close()
    wrapped.close()


def test_fenced_old_primary_cannot_release_answers():
    _, _, follower, wrapped, _ = serve_pair(queries=QUERIES[:5])
    promoted, _, _ = follower.promote()
    with pytest.raises(FencedError):
        wrapped.audit(QUERIES[5])
    promoted.close()
    wrapped.close()


def test_fencing_epoch_is_durable_across_reopen():
    """The bumped epoch survives in the MANIFEST: a re-opened replica of
    the promoted directory still rejects the dead epoch's frames."""
    _, fdir, follower, wrapped, _ = serve_pair(queries=QUERIES[:5])
    promoted, _, _ = follower.promote()
    promoted.close()
    wrapped.close()
    reopened = Follower.open(fdir, auditor_factory=factory, policy=POLICY)
    assert reopened.epoch == 1
    stale = encode_frame(FRAME_HELLO, {"epoch": 0, "events": 5})
    with pytest.raises(FencedError, match="fenced at epoch 1"):
        reopened.feed(stale)
    # A legitimately newer primary is adopted, not fenced.
    reopened.feed(encode_frame(FRAME_HELLO, {"epoch": 2, "events": 5}))
    assert reopened.epoch == 2
    reopened.close()


def test_promote_requires_replicated_state_and_a_factory():
    with pytest.raises(ReplicationError, match="factory"):
        Follower.open(tmpdir("bare")).promote()
    with pytest.raises(ReplicationError, match="never synced"):
        Follower.open(tmpdir("bare2"), auditor_factory=factory).promote()


def test_primary_staleness_uses_the_injected_clock():
    now = [100.0]
    follower = Follower.open(tmpdir("stale"), auditor_factory=factory,
                             clock=lambda: now[0])
    assert follower.primary_stale(timeout=5.0)  # never contacted
    follower.feed(encode_frame(FRAME_HELLO, {"epoch": 0, "events": 0}))
    assert not follower.primary_stale(timeout=5.0)
    now[0] += 4.0
    assert not follower.primary_stale(timeout=5.0)
    now[0] += 2.0
    assert follower.primary_stale(timeout=5.0)


# ----------------------------------------------------------------------
# Acknowledgement discipline (released ⇒ replicated)
# ----------------------------------------------------------------------

class MisbehavingLink:
    """A link whose follower acknowledges the wrong event count."""

    def __init__(self, ack):
        self._ack = ack

    def send(self, frame):
        return self._ack

    def close(self):
        pass


@pytest.mark.parametrize("ack,match", [
    (None, "no acknowledgement"),
    ({"type": "error", "error": "disk full"}, "refused the ship"),
    ({"type": "ack", "events": 0, "epoch": 0}, "divergence"),
])
def test_bad_acknowledgements_withhold_the_answer(ack, match):
    wrapped, _ = open_wal_auditor(tmpdir("primary"), factory,
                                         make_dataset(), policy=POLICY)
    wrapped.wal.attach(MisbehavingLink(ack), sync=False)
    with pytest.raises(ReplicationError, match=match):
        wrapped.audit(QUERIES[0])
    # The record is locally durable, but the answer was never released:
    # the recovered primary re-serves it identically.
    wrapped.wal.detach(wrapped.wal.links[0])
    wrapped.close()


def test_fenced_ack_raises_fenced_error_on_the_sender():
    wrapped, _ = open_wal_auditor(tmpdir("primary"), factory,
                                         make_dataset(), policy=POLICY)
    wrapped.wal.attach(
        MisbehavingLink({"type": "fenced", "error": "superseded"}),
        sync=False)
    with pytest.raises(FencedError, match="superseded"):
        wrapped.audit(QUERIES[0])
    wrapped.wal.detach(wrapped.wal.links[0])
    wrapped.close()


# ----------------------------------------------------------------------
# Read-only follower serving
# ----------------------------------------------------------------------

def test_follower_read_only_auditor_replays_or_denies():
    _, _, follower, wrapped, decisions = serve_pair(queries=QUERIES[:6])
    replica = FollowerReadOnlyAuditor(follower, make_dataset())
    hit = replica.audit(QUERIES[0])
    assert (hit.denied, hit.value) == (decisions[0].denied,
                                       decisions[0].value)
    miss = replica.audit(sum_query([0, 2, 4]))
    assert miss.denied and "read-only replica" in miss.detail
    assert len(replica.trail) == 2  # hits and misses are both recorded
    with pytest.raises(ReplicationError, match="read-only"):
        replica.apply_update(Modify(index=0, value=1.0))
    wrapped.close()


def test_follower_read_only_auditor_rejects_a_foreign_dataset():
    _, _, follower, wrapped, _ = serve_pair(queries=QUERIES[:3])
    other = Dataset([1.0, 2.0, 3.0], low=0.0, high=10.0)
    with pytest.raises(ReplicationError, match="different dataset"):
        FollowerReadOnlyAuditor(follower, other)
    wrapped.close()


# ----------------------------------------------------------------------
# Process followers
# ----------------------------------------------------------------------

def test_process_follower_holds_a_bitwise_replica():
    """End to end across the process boundary: a spawned follower keeps
    the same live stream and the same stored bytes."""
    pdir, fdir = tmpdir("primary"), tmpdir("follower")
    wrapped, _ = open_wal_auditor(
        pdir, factory, make_dataset(),
        replicate_to=[ProcessLink(fdir, policy=POLICY)], policy=POLICY)
    decisions = [wrapped.audit(q) for q in QUERIES]
    wrapped.close()  # orderly shutdown reaps the child
    assert [(d.denied, d.value, d.reason)
            for d in decisions] == released_baseline()
    assert replica_events(fdir) == replica_events(pdir)
    assert stored_files(fdir) == stored_files(pdir)
    assert os.path.exists(os.path.join(fdir, MANIFEST_NAME))
