"""Primary/follower WAL replication with snapshot-install failover.

A lost or diverged audit history silently voids the simulatability
guarantee, so the decision stream itself must survive machine failure.
This module replicates the :class:`~repro.resilience.checkpoint.
CheckpointedWal` decision stream to N followers and makes any follower
promotable:

* the **primary** (a :class:`~repro.resilience.checkpoint.
  CheckpointedWal` with links attached, see its ``attach``) ships every
  durable record, and every checkpoint snapshot, to its links over a
  length-prefixed, CRC-checksummed frame protocol — *synchronously*: an
  answer is released only after the record is fsynced locally **and**
  acknowledged by every attached follower, extending the single-node
  fail-closed contract ("released ⇒ durable") to "released ⇒ durable on
  the whole replica set";
* a **follower** (:class:`Follower`) applies the shipped record bytes
  verbatim into its own valid checkpointed-WAL directory (a bitwise
  replica of the primary's record stream) and folds each event through
  the re-audit-free journal replay path, so it can serve read-only audit
  history and cached decisions (:class:`FollowerReadOnlyAuditor`)
  without ever consulting the sensitive data or re-running an auditor;
* **failover** is snapshot-install: a follower that detects a stale or
  dead primary recovers from its replica directory (newest committed
  snapshot + replayed suffix, the ordinary recovery state machine) and
  is promoted by durably bumping the **fencing epoch** in its MANIFEST.
  Every frame carries the sender's epoch; a receiver rejects any frame
  from an older epoch with :class:`FencedError`, so a resurrected old
  primary's appends are refused — split-brain writes cannot merge into
  the audit history.

Followers run in-process (:class:`LocalLink`: the test harness, read
replicas, and the replica directories ``serve --listen`` names) or as
real spawned processes (:class:`ProcessLink`, used by the stdin
``serve`` loop).  Process followers receive only a directory path and a
pipe — never a live handle — per the FORK fail-closed rules.  The log
imports this module only once a link attaches.

Because decision replay is re-audit-free and deterministic, a client
retrying a query against a promoted follower gets the original decision
replayed from the cache/journal, never a second independent audit.

Crash-atomicity is proven, not asserted: the cross-boundary chaos sweep
in ``tests/resilience/test_replication_chaos.py`` kills primary or
follower at every instrumented fault site and checks the surviving
stream is bitwise-identical to the fault-free run.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import struct
import time
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..persistence import (
    JournalError,
    JournaledAuditor,
    _journalled_reason,
    replay_events,
)
from ..sdb.dataset import Dataset
from ..types import (
    AggregateKind,
    AuditDecision,
    AuditTrail,
    DenialReason,
    Query,
)
from .checkpoint import (
    MANIFEST_NAME,
    CheckpointPolicy,
    CheckpointedWal,
    RecoveryInfo,
    _dataset_header,
    _read_manifest,
)
from .faults import fault_site
from .wal import AuditorFactory, _decode_record, _parse_records

# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------

#: Frame header: magic, frame type, payload length, payload crc32.
FRAME_MAGIC = b"RWAL"
FRAME_HEADER = struct.Struct(">4sBII")
PROTOCOL_VERSION = 1

FRAME_HELLO = 1       #: heartbeat / epoch probe (no state change)
FRAME_SYNC = 2        #: full snapshot-install (attach / re-sync)
FRAME_APPEND = 3      #: one durable journal record, verbatim bytes
FRAME_CHECKPOINT = 4  #: a sealed checkpoint: snapshot + rotation
FRAME_ACK = 5         #: follower acknowledgement

#: Upper bound on a single frame's payload; a length field beyond this is
#: stream corruption, not a real frame.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class ReplicationError(JournalError):
    """The replication stream is damaged, lagging, or refused."""


class FencedError(ReplicationError):
    """A frame from a fenced (superseded) epoch was rejected.

    Raised on the *sender's* side of ``CheckpointedWal.append`` too: a
    fenced primary's in-flight answer is never released.
    """


def encode_frame(frame_type: int, payload: Mapping[str, Any]) -> bytes:
    """Frame ``payload`` as header + CRC-checked JSON body."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return FRAME_HEADER.pack(FRAME_MAGIC, frame_type, len(body), crc) + body


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed`` buffers partial frames across calls (a ship may arrive torn
    at any byte offset) and yields only frames whose full body arrived
    and passed its CRC; damage raises :class:`ReplicationError` without
    yielding the damaged frame.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Tuple[int, Dict[str, Any]]]:
        """Consume ``data``; return every newly completed frame."""
        self._buffer.extend(data)
        frames: List[Tuple[int, Dict[str, Any]]] = []
        while len(self._buffer) >= FRAME_HEADER.size:
            magic, ftype, length, crc = FRAME_HEADER.unpack_from(
                self._buffer, 0)
            if magic != FRAME_MAGIC:
                raise ReplicationError(
                    f"replication stream lost framing (magic {magic!r}); "
                    f"the connection must be re-synced"
                )
            if length > MAX_FRAME_BYTES:
                raise ReplicationError(
                    f"replication frame claims {length} bytes "
                    f"(max {MAX_FRAME_BYTES}); stream corruption"
                )
            if len(self._buffer) < FRAME_HEADER.size + length:
                break  # torn mid-frame: wait for the rest
            body = bytes(self._buffer[FRAME_HEADER.size:
                                      FRAME_HEADER.size + length])
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                raise ReplicationError(
                    f"replication frame failed its checksum "
                    f"(type {ftype}, {length} bytes); stream corruption"
                )
            del self._buffer[:FRAME_HEADER.size + length]
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ReplicationError(
                    f"replication frame body is not valid JSON ({exc})"
                ) from exc
            if not isinstance(payload, dict):
                raise ReplicationError(
                    "replication frame payload is not an object")
            frames.append((ftype, payload))
        return frames


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: Any) -> bytes:
    try:
        return base64.b64decode(str(text), validate=True)
    except (ValueError, TypeError) as exc:
        raise ReplicationError(
            f"replication frame carries undecodable data ({exc})"
        ) from exc


# ----------------------------------------------------------------------
# Follower
# ----------------------------------------------------------------------

class Follower:
    """A replica applying the primary's shipped decision stream.

    The follower's directory is itself a valid checkpointed WAL: shipped
    records are appended verbatim (bitwise-identical segment bytes) and
    shipped snapshots are installed through the same crash-atomic
    seal/rotate/commit sequence the primary uses.  Promotion is therefore
    just ordinary recovery on the replica directory plus a fencing-epoch
    bump — see :func:`promote_replica`.

    With an ``auditor_factory`` the follower also maintains a *live*
    replayed auditor (re-audit-free fold of each event) and a decision
    cache for read-only serving; without one (process followers, and the
    replica directories :func:`~repro.resilience.wal.open_wal_auditor`
    attaches) it is a pure durability replica.

    ``clock`` (default ``time.monotonic``) timestamps frame arrivals so
    :meth:`primary_stale` can drive failover decisions.
    """

    def __init__(self, directory: str,
                 auditor_factory: Optional[AuditorFactory] = None,
                 policy: Optional[CheckpointPolicy] = None,
                 fsync: bool = True,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.directory = directory
        self._factory = auditor_factory
        self._policy = policy
        self._fsync = fsync
        self._clock = clock
        self._wal: Optional[CheckpointedWal] = None
        self._auditor: Any = None
        self._dataset: Optional[Dataset] = None
        self._decisions: Dict[Tuple[AggregateKind, frozenset],
                              AuditDecision] = {}
        self._epoch = 0
        self._promoted = False
        self._decoder = FrameDecoder()
        self.last_contact: Optional[float] = None

    @classmethod
    def open(cls, directory: str,
             auditor_factory: Optional[AuditorFactory] = None,
             policy: Optional[CheckpointPolicy] = None,
             fsync: bool = True,
             clock: Callable[[], float] = time.monotonic) -> "Follower":
        """Open a replica directory (fresh, or resuming after a crash)."""
        os.makedirs(directory, exist_ok=True)
        follower = cls(directory, auditor_factory=auditor_factory,
                       policy=policy, fsync=fsync, clock=clock)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            follower._reopen()
        return follower

    # -- state ----------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Durable events this replica holds (0 before the first sync)."""
        return self._wal.total_events if self._wal is not None else 0

    @property
    def epoch(self) -> int:
        """The fencing epoch this replica last durably adopted."""
        return self._epoch

    @property
    def promoted(self) -> bool:
        """Whether this follower was promoted (it now refuses frames)."""
        return self._promoted

    @property
    def dataset_header(self) -> Optional[Dict[str, Any]]:
        """The replicated stream's initial dataset (values/low/high)."""
        if self._wal is None:
            return None
        return dict(self._wal._dataset_header)

    @property
    def live_dataset(self) -> Optional[Dataset]:
        """The replayed dataset (``None`` without an auditor factory)."""
        return self._dataset

    @property
    def history(self) -> Optional[AuditTrail]:
        """The replayed audit trail (``None`` without a factory)."""
        auditor = self._auditor
        return auditor.trail if auditor is not None else None

    def decision_for(self, query: Query) -> Optional[AuditDecision]:
        """The replicated decision for ``query``, if one was released."""
        return self._decisions.get((query.kind, query.query_set))

    def primary_stale(self, timeout: float) -> bool:
        """Whether the primary has been silent longer than ``timeout``.

        A follower that has never heard from a primary reports stale —
        the conservative reading for a failover decision.
        """
        if self.last_contact is None:
            return True
        return (self._clock() - self.last_contact) > float(timeout)

    def close(self) -> None:
        """Close the replica's active segment handle."""
        if self._wal is not None:
            self._wal.close()

    # -- frame application ---------------------------------------------

    def feed(self, data: bytes) -> List[bytes]:
        """Apply a raw byte chunk; return one encoded ACK per frame.

        The byte-stream entry point used by process followers; partial
        frames buffer until their remainder arrives.
        """
        acks = []
        for ftype, payload in self._decoder.feed(data):
            acks.append(encode_frame(FRAME_ACK,
                                     self.apply_frame(ftype, payload)))
        return acks

    def apply_frame(self, frame_type: int,
                    payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Apply one decoded frame; return the ACK payload.

        Raises :class:`FencedError` for frames from a superseded epoch
        and :class:`ReplicationError` for damaged or out-of-order ships —
        in both cases the replica stays at its last committed state.
        """
        self.last_contact = self._clock()
        try:
            if frame_type == FRAME_HELLO:
                self._check_epoch(payload)
            elif frame_type == FRAME_SYNC:
                self._apply_sync(payload)
            elif frame_type == FRAME_APPEND:
                self._apply_append(payload)
            elif frame_type == FRAME_CHECKPOINT:
                self._apply_checkpoint(payload)
            else:
                raise ReplicationError(
                    f"unexpected replication frame type {frame_type}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(
                f"malformed replication frame (type {frame_type}): {exc}"
            ) from exc
        if frame_type in (FRAME_SYNC, FRAME_APPEND, FRAME_CHECKPOINT):
            fault_site("ship.pre-ack")
        return {"type": "ack", "events": self.total_events,
                "epoch": self._epoch}

    # -- promotion ------------------------------------------------------

    def promote(self, verify: bool = False
                ) -> Tuple[JournaledAuditor, Dataset, RecoveryInfo]:
        """Fail over to this replica: recover its directory and fence.

        Returns the promoted ``(auditor, dataset, recovery_info)`` —
        a fully writable primary (a ``CheckpointedWal`` with no links
        yet; attach fresh followers to re-establish redundancy).
        After the fence commits, the old primary's epoch is dead: any
        frame it ships here (or to a re-opened replica of this
        directory) raises :class:`FencedError`.
        """
        if self._factory is None:
            raise ReplicationError(
                "promotion requires an auditor factory to rebuild the "
                "live auditor from the replica's snapshot + suffix"
            )
        if self._wal is None:
            raise ReplicationError(
                f"replica {self.directory!r} holds no replicated state "
                f"to promote; it was never synced"
            )
        # Refuse further frames immediately: even before the durable
        # fence commits, this follower has left the old primary's
        # replica set.
        self._promoted = True
        self.close()
        wrapped, dataset, info = promote_replica(
            self.directory, self._factory, policy=self._policy,
            fsync=self._fsync, verify=verify,
        )
        self._epoch = wrapped.wal.epoch
        return wrapped, dataset, info

    # -- internals ------------------------------------------------------

    def _check_epoch(self, payload: Mapping[str, Any]) -> None:
        epoch = int(payload.get("epoch", 0))
        if self._promoted or epoch < self._epoch:
            raise FencedError(
                f"rejecting frame from epoch {epoch}: replica "
                f"{self.directory!r} is fenced at epoch {self._epoch}"
                + (" (promoted)" if self._promoted else "")
            )
        if epoch > self._epoch:
            # A legitimately newer primary (post-failover): adopt its
            # epoch.  It becomes durable with the next manifest commit.
            self._epoch = epoch
            if self._wal is not None:
                self._wal._epoch = epoch

    def _apply_append(self, payload: Mapping[str, Any]) -> None:
        self._check_epoch(payload)
        if self._wal is None:
            raise ReplicationError(
                f"replica {self.directory!r} has no installed state; "
                f"the primary must sync before shipping appends"
            )
        seq = int(payload["seq"])
        if seq != self._wal.total_events:
            raise ReplicationError(
                f"append frame for event {seq} but replica "
                f"{self.directory!r} holds {self._wal.total_events} "
                f"events; stream gap — a full re-sync is required"
            )
        data = _unb64(payload["data"])
        if not data.endswith(b"\n"):
            raise ReplicationError(
                f"shipped record {seq} is not newline-terminated; "
                f"torn or corrupt ship"
            )
        try:
            # Re-validate the record's own CRC before any byte lands in
            # the replica segment: a ship corrupted before framing must
            # leave the replica at its last committed state.
            event = _decode_record(data.rstrip(b"\n"), seq)
        except ValueError as exc:
            raise ReplicationError(
                f"shipped record {seq} failed its checksum ({exc}); "
                f"replica stays at its last committed state"
            ) from exc
        self._wal.raw_append(data)
        if self._auditor is not None:
            replay_events(self._auditor, self._dataset, [event])
            self._cache_decision(event)

    def _apply_checkpoint(self, payload: Mapping[str, Any]) -> None:
        self._check_epoch(payload)
        if self._wal is None:
            raise ReplicationError(
                f"replica {self.directory!r} has no installed state; "
                f"the primary must sync before shipping checkpoints"
            )
        seq = int(payload["seq"])
        events = int(payload["events"])
        snap_name = str(payload["snapshot"])
        data = _unb64(payload["data"])
        try:
            record = _decode_record(data.rstrip(b"\n"), 0)
        except ValueError as exc:
            raise ReplicationError(
                f"shipped snapshot {snap_name} failed its checksum "
                f"({exc}); replica stays at its last committed state"
            ) from exc
        if record.get("type") != "snapshot":
            raise ReplicationError(
                f"shipped snapshot {snap_name} is not a snapshot record "
                f"(got type {record.get('type')!r})"
            )
        self._wal.install_checkpoint(seq, snap_name, events, data)

    def _apply_sync(self, payload: Mapping[str, Any]) -> None:
        self._check_epoch(payload)
        events = int(payload["events"])
        if self._wal is not None and self._wal.total_events > events:
            raise ReplicationError(
                f"replica {self.directory!r} holds "
                f"{self._wal.total_events} events but the primary ships "
                f"{events}; refusing to rewind replicated audit history"
            )
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        # The shipped state supersedes whatever partial replica is on
        # disk (the primary is never behind a live replica — checked
        # above).  NOTE: between this wipe and the manifest commit below
        # the replica is not a durable copy; operators should re-sync
        # one replica at a time.
        for name in sorted(os.listdir(self.directory)):
            if (name == MANIFEST_NAME or name.endswith(".tmp")
                    or name.startswith(("segment-", "snapshot-"))):
                os.unlink(os.path.join(self.directory, name))
        wal = CheckpointedWal(self.directory, policy=self._policy,
                              fsync=self._fsync)
        header = payload["dataset"]
        wal._dataset_header = {
            "values": [float(v) for v in header["values"]],
            "low": float(header["low"]),
            "high": float(header["high"]),
        }
        wal._segments = [
            {"name": str(seg["name"]), "base": int(seg["base"]),
             "count": None if seg["count"] is None else int(seg["count"])}
            for seg in payload["segments"]
        ]
        wal._snapshots = [
            {"name": str(snap["name"]), "events": int(snap["events"])}
            for snap in payload["snapshots"]
        ]
        wal._next_seq = int(payload["next_seq"])
        wal._epoch = int(payload.get("epoch", 0))
        for seg in payload["segments"]:
            wal._write_file_atomic(str(seg["name"]), _unb64(seg["data"]))
        for snap in payload["snapshots"]:
            data = _unb64(snap["data"])
            try:
                record = _decode_record(data.rstrip(b"\n"), 0)
            except ValueError as exc:
                raise ReplicationError(
                    f"synced snapshot {snap['name']} failed its "
                    f"checksum ({exc})"
                ) from exc
            if record.get("type") != "snapshot":
                raise ReplicationError(
                    f"synced snapshot {snap['name']} is not a snapshot "
                    f"record"
                )
            wal._write_file_atomic(str(snap["name"]), data,
                                   mid_site="install.mid-snapshot")
        # The manifest commit is the install's atomic switch point: a
        # crash before it leaves an unreferenced (or empty) directory
        # that the next sync simply overwrites.
        wal._commit_manifest()
        self._reopen()

    def _reopen(self) -> None:
        """Rebuild in-memory state from the replica directory."""
        if self._factory is not None:
            wrapped, dataset, _info = CheckpointedWal.recover(
                self.directory, self._factory, policy=self._policy,
                fsync=self._fsync,
            )
            self._wal = wrapped.wal
            self._auditor = wrapped.auditor
            self._dataset = dataset
        else:
            # Pure durability replica: recovery without the snapshot
            # load and replay (its full-replay fallback would need the
            # factory we don't have).
            wal, _records, _torn = CheckpointedWal._load(
                self.directory, self._policy, self._fsync)
            wal._resume()
            self._wal = wal
            self._auditor = None
            self._dataset = None
        self._epoch = self._wal.epoch
        self._decisions = {}
        trail = self.history
        if trail is not None:
            for event in trail.events:
                self._decisions[(event.query.kind,
                                 event.query.query_set)] = event.decision

    def _cache_decision(self, event: Mapping[str, Any]) -> None:
        if event.get("type") not in ("query", "query_replay"):
            return
        query = Query(AggregateKind(event["kind"]),
                      frozenset(int(i) for i in event["members"]))
        if event.get("denied"):
            decision = AuditDecision.deny(_journalled_reason(dict(event)),
                                          "replicated")
        else:
            decision = AuditDecision.answer(float(event["value"]))
        self._decisions[(query.kind, query.query_set)] = decision


def promote_replica(directory: str, auditor_factory: AuditorFactory,
                    policy: Optional[CheckpointPolicy] = None,
                    fsync: bool = True, verify: bool = False,
                    ) -> Tuple[JournaledAuditor, Dataset, RecoveryInfo]:
    """Fail over to the replica at ``directory``: recover, then fence.

    Snapshot-install failover is ordinary recovery — the replica
    directory is a valid checkpointed WAL, so the newest committed
    snapshot plus the replayed suffix reconstructs the exact audit state
    the primary had released — followed by a durable fencing-epoch bump.
    A crash between the two (fault site ``promote.pre-fence``) leaves
    the epoch unbumped and promotion simply retries.
    """
    wrapped, dataset, info = CheckpointedWal.recover(
        directory, auditor_factory, policy=policy, fsync=fsync,
        verify=verify,
    )
    fault_site("promote.pre-fence")
    wrapped.wal.fence()
    return wrapped, dataset, info


def replica_events(directory: str) -> List[Dict[str, Any]]:
    """Read-only parse of every durable event a WAL directory holds.

    The WAL is the only copy of the log, so this is how it is read —
    e.g. to compare a primary's and a replica's decision streams —
    without mutating it (a torn tail is ignored, not healed).
    """
    wal = CheckpointedWal(directory)
    wal._load_manifest(_read_manifest(directory))
    events: List[Dict[str, Any]] = []
    for seg in wal._segments:
        path = os.path.join(directory, str(seg["name"]))
        with open(path, "rb") as handle:
            raw = handle.read()
        records, _good = _parse_records(raw, path)
        events.extend(records)
    return events


# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------

class LocalLink:
    """An in-process link to a :class:`Follower` (tests, read replicas)."""

    def __init__(self, follower: Follower) -> None:
        self.follower = follower
        self._decoder = FrameDecoder()

    def send(self, frame: bytes) -> Dict[str, Any]:
        """Deliver one frame; return the follower's ACK payload."""
        ack: Optional[Dict[str, Any]] = None
        for ftype, payload in self._decoder.feed(frame):
            ack = self.follower.apply_frame(ftype, payload)
        if ack is None:
            raise ReplicationError("frame did not decode to a full frame")
        return ack

    def close(self) -> None:
        """Close the follower's active segment, as a process follower
        does when its link closes; the follower object stays usable (a
        later sync reopens it)."""
        self.follower.close()


def _follower_process_main(directory: str, conn: Any,
                           policy: Optional[CheckpointPolicy],
                           fsync: bool) -> None:
    """Entry point of a spawned follower process.

    Receives only plain data (a directory path and a pipe end) — the
    follower reconstructs and exclusively owns its replica WAL in this
    process, so no live handle ever crosses the fork boundary.
    """
    follower = Follower.open(directory, auditor_factory=None,
                             policy=policy, fsync=fsync)
    try:
        while True:
            data = conn.recv_bytes()
            if data == b"":
                break  # orderly shutdown from the primary
            try:
                acks = follower.feed(data)
            except FencedError as exc:
                conn.send_bytes(encode_frame(
                    FRAME_ACK, {"type": "fenced", "error": str(exc)}))
                continue
            except ReplicationError as exc:
                conn.send_bytes(encode_frame(
                    FRAME_ACK, {"type": "error", "error": str(exc)}))
                continue
            for ack in acks:
                conn.send_bytes(ack)
    except EOFError:
        pass  # primary died; our durable state is the whole point
    finally:
        follower.close()


class ProcessLink:
    """A link to a follower running in a spawned child process.

    The child is handed the replica *directory path* over a pipe-backed
    protocol (spawn context only — fork would duplicate live handles).
    ``send`` blocks for the ACK, preserving the synchronous released ⇒
    replicated contract across the process boundary.
    """

    def __init__(self, directory: str,
                 policy: Optional[CheckpointPolicy] = None,
                 fsync: bool = True, timeout: float = 30.0) -> None:
        self.directory = directory
        self._timeout = float(timeout)
        self._decoder = FrameDecoder()
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_follower_process_main,
            args=(directory, child, policy, fsync),
            daemon=True,
        )
        self._process.start()
        child.close()

    def send(self, frame: bytes) -> Dict[str, Any]:
        """Ship one frame and block for the follower's ACK."""
        try:
            self._conn.send_bytes(frame)
            if not self._conn.poll(self._timeout):
                raise ReplicationError(
                    f"follower process for {self.directory!r} did not "
                    f"acknowledge within {self._timeout}s"
                )
            raw = self._conn.recv_bytes()
        except (OSError, EOFError) as exc:
            raise ReplicationError(
                f"follower process for {self.directory!r} is gone "
                f"({exc}); answers cannot be released until the replica "
                f"set is restored"
            ) from exc
        ack: Optional[Dict[str, Any]] = None
        for ftype, payload in self._decoder.feed(raw):
            if ftype != FRAME_ACK:
                raise ReplicationError(
                    f"expected an ACK frame, got type {ftype}")
            ack = payload
        if ack is None:
            raise ReplicationError("follower sent an incomplete ACK")
        return ack

    def close(self) -> None:
        """Shut the child down and reap it."""
        try:
            self._conn.send_bytes(b"")
        except (OSError, BrokenPipeError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()


# ----------------------------------------------------------------------
# Primary: what CheckpointedWal ships to its links
# ----------------------------------------------------------------------

def sync_link(wal: CheckpointedWal, link: Any) -> None:
    """Snapshot-install ``link``: ship the manifest metadata, every live
    segment and every retained snapshot of ``wal``."""
    segments = []
    for seg in wal._segments:
        with open(os.path.join(wal.directory, str(seg["name"])),
                  "rb") as handle:
            raw = handle.read()
        segments.append({"name": seg["name"], "base": seg["base"],
                         "count": seg["count"], "data": _b64(raw)})
    snapshots = []
    for snap in wal._snapshots:
        with open(os.path.join(wal.directory, str(snap["name"])),
                  "rb") as handle:
            raw = handle.read()
        snapshots.append({"name": snap["name"],
                          "events": snap["events"],
                          "data": _b64(raw)})
    _check_ack(wal, link, link.send(encode_frame(FRAME_SYNC, {
        "epoch": wal.epoch,
        "events": wal.total_events,
        "next_seq": wal._next_seq,
        "dataset": wal._dataset_header,
        "segments": segments,
        "snapshots": snapshots,
    })))


def ship_record(wal: CheckpointedWal, data: bytes) -> None:
    """Ship the record ``wal`` just appended (its exact segment bytes)."""
    _broadcast(wal, encode_frame(FRAME_APPEND, {
        "epoch": wal.epoch,
        "seq": wal.total_events - 1,
        "data": _b64(data),
    }))


def ship_checkpoint(wal: CheckpointedWal, snap_name: str) -> None:
    """Ship the snapshot ``wal`` just sealed."""
    with open(os.path.join(wal.directory, snap_name), "rb") as handle:
        snap_data = handle.read()
    _broadcast(wal, encode_frame(FRAME_CHECKPOINT, {
        "epoch": wal.epoch,
        "seq": wal._next_seq - 1,
        "snapshot": snap_name,
        "events": wal._last_snapshot_events,
        "data": _b64(snap_data),
    }))


def _broadcast(wal: CheckpointedWal, frame: bytes) -> None:
    for link in wal.links:
        _check_ack(wal, link, link.send(frame))


def _check_ack(wal: CheckpointedWal, link: Any, ack: Any) -> None:
    if not isinstance(ack, dict):
        raise ReplicationError(
            f"replication link {link!r} returned no acknowledgement; "
            f"refusing to release answers the replica set has not "
            f"confirmed"
        )
    kind = ack.get("type")
    if kind == "fenced":
        raise FencedError(str(ack.get("error") or
                              "this primary's epoch is fenced"))
    if kind != "ack":
        raise ReplicationError(
            f"replica refused the ship: {ack.get('error', ack)!r}")
    acked = int(ack.get("events", -1))
    if acked != wal.total_events:
        raise ReplicationError(
            f"replica acknowledged {acked} events but the primary "
            f"holds {wal.total_events}; stream divergence — "
            f"re-sync required"
        )


# ----------------------------------------------------------------------
# Read-only serving
# ----------------------------------------------------------------------

class FollowerReadOnlyAuditor:
    """Serves a follower's replicated decisions; denies everything else.

    The read-scale-out endpoint: a hit re-releases a bit the *primary*
    already audited and disclosed — information-free by definition — and
    a miss is denied fail-closed (``POLICY``), never independently
    audited.  The replica therefore needs no access to the sensitive
    values at all; answers come from the replicated decision stream.
    """

    def __init__(self, follower: Follower,
                 dataset: Optional[Dataset] = None) -> None:
        header = follower.dataset_header
        if dataset is not None and header is not None:
            if _dataset_header(dataset) != header:
                raise ReplicationError(
                    f"replica {follower.directory!r} replicates a "
                    f"different dataset; refusing to serve its "
                    f"decisions as this data's audit history"
                )
        self.follower = follower
        self.dataset = (follower.live_dataset if follower.live_dataset
                        is not None else dataset)
        self.trail = AuditTrail()

    def audit(self, query: Query) -> AuditDecision:
        """Re-release the replicated decision, or deny fail-closed."""
        decision = self.follower.decision_for(query)
        if decision is None:
            decision = AuditDecision.deny(
                DenialReason.POLICY,
                "read-only replica: no replicated decision for this "
                "query; pose it to the primary",
            )
        self.trail.record(query, decision)
        return decision

    def record_replay(self, query: Query, decision: AuditDecision) -> None:
        """Log a cache-served re-release on the trail."""
        self.trail.record(query, decision)

    def record_refusal(self, query: Query, decision: AuditDecision) -> None:
        """Log a fail-closed refusal on the trail."""
        self.trail.record(query, decision)

    def apply_update(self, event: Any) -> None:
        """Updates mutate audit state — primaries only."""
        raise ReplicationError(
            "read-only replica cannot apply updates; send them to the "
            "primary"
        )
