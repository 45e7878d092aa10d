"""Primary/follower WAL replication with snapshot-install failover.

A lost or diverged audit history silently voids the simulatability
guarantee, so the decision stream itself must survive machine failure.
This module keeps each replica directory a bitwise copy of the primary's
:class:`~repro.resilience.checkpoint.CheckpointedWal` and makes any
replica promotable:

* the **primary** (a ``CheckpointedWal`` with replicas attached, see its
  ``attach``) hands every durable record, and every checkpoint snapshot,
  to each replica's :class:`Follower` by direct call through a
  :class:`LocalLink` — *synchronously*: an answer is released only after
  the record is fsynced locally **and** acknowledged by every follower,
  extending the single-node fail-closed contract ("released ⇒ durable")
  to "released ⇒ durable on the whole replica set";
* a **follower** is durability-only: it re-validates each shipped
  record's checksum, then writes the primary's exact bytes into its own
  valid checkpointed-WAL directory.  It never replays an event or
  consults the sensitive data;
* **read-only serving** (:class:`FollowerReadOnlyAuditor`, ``serve
  --follow``) loads a replica directory without writing to it and
  re-releases the decisions it holds;
* **failover** is snapshot-install: :func:`promote_replica` recovers the
  replica directory (newest committed snapshot + replayed suffix, the
  ordinary recovery state machine) and durably bumps the **fencing
  epoch** in its MANIFEST.  Every shipment carries the primary's epoch; a
  follower rejects one from an older epoch with :class:`FencedError`, so
  a resurrected old primary's appends are refused — split-brain writes
  cannot merge into the audit history.  A follower re-reads the epoch
  whenever the MANIFEST changed under it, so an old primary that is
  still running is fenced at its next shipment, not its next attach.

The log imports this module only once a replica attaches.  Because
decision replay is re-audit-free and deterministic, a client retrying a
query against a promoted replica gets the original decision replayed
from the journal, never a second independent audit.

Crash-atomicity is proven, not asserted: the cross-boundary chaos sweep
in ``tests/resilience/test_replication_chaos.py`` kills primary or
follower at every instrumented fault site and checks the surviving
stream is bitwise-identical to the fault-free run.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..persistence import JournalError, JournaledAuditor
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
from .wal import AuditorFactory, _decode_record

#: Why a directory is refused as a replica.  Constant on purpose: the
#: refusal depends only on whether a ``MANIFEST`` exists, and nothing is
#: read from or written to the directory.
NOT_A_REPLICA = (
    "the replica directory holds no MANIFEST: it was never synced from a "
    "primary; nothing was read or written — pass a directory a primary "
    "replicates to"
)


class ReplicationError(JournalError):
    """The replication stream is damaged, lagging, or refused."""


class FencedError(ReplicationError):
    """A shipment from a fenced (superseded) epoch was rejected.

    Raised on the *sender's* side of ``CheckpointedWal.append`` too: a
    fenced primary's in-flight answer is never released.
    """


# ----------------------------------------------------------------------
# Shipments: the primary's exact bytes, handed over by direct call
# ----------------------------------------------------------------------

class Append(NamedTuple):
    """One durable record: the exact bytes the primary appended."""

    epoch: int
    seq: int      #: the record's event number
    data: bytes


class Checkpoint(NamedTuple):
    """A sealed checkpoint: the exact bytes of the primary's snapshot."""

    epoch: int
    seq: int      #: the manifest sequence the snapshot was sealed at
    snapshot: str
    events: int
    data: bytes


class Install(NamedTuple):
    """A snapshot-install: the primary's ``MANIFEST`` and every file it
    names, each as its exact bytes."""

    epoch: int
    events: int
    segments: Dict[str, bytes]
    snapshots: Dict[str, bytes]
    manifest: bytes


Shipment = Union[Append, Checkpoint, Install]


def _check_record(data: bytes, what: str,
                  record_type: Optional[str] = None) -> None:
    """Re-validate shipped bytes before any of them lands on disk."""
    try:
        record = _decode_record(data.rstrip(b"\n"), 0)
    except ValueError as exc:
        raise ReplicationError(
            f"shipped {what} failed its checksum ({exc}); replica stays "
            f"at its last committed state"
        ) from exc
    if record_type is not None and record.get("type") != record_type:
        raise ReplicationError(
            f"shipped {what} is not a {record_type} record "
            f"(got type {record.get('type')!r})"
        )


# ----------------------------------------------------------------------
# Follower
# ----------------------------------------------------------------------

class Follower:
    """A durability-only replica the primary writes by direct call.

    The follower's directory is itself a valid checkpointed WAL: shipped
    records are appended verbatim (bitwise-identical segment bytes) and
    shipped snapshots are installed through the same crash-atomic
    seal/rotate/commit sequence the primary uses.  Promotion is therefore
    just ordinary recovery on the replica directory plus a fencing-epoch
    bump — see :func:`promote_replica`.
    """

    def __init__(self, directory: str,
                 policy: Optional[CheckpointPolicy] = None,
                 fsync: bool = True) -> None:
        self.directory = directory
        self._policy = policy
        self._fsync = fsync
        self._wal: Optional[CheckpointedWal] = None
        self._epoch = 0
        #: ``(inode, size, mtime)`` of the MANIFEST as this follower
        #: last wrote or read it; a change means another writer (a
        #: promoted replica) committed one.
        self._manifest_seen: Optional[Tuple[int, int, int]] = None

    @classmethod
    def open(cls, directory: str,
             policy: Optional[CheckpointPolicy] = None,
             fsync: bool = True) -> "Follower":
        """Open a replica directory (fresh, or resuming after a crash)."""
        os.makedirs(directory, exist_ok=True)
        follower = cls(directory, policy=policy, fsync=fsync)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            follower._reopen()
        return follower

    @property
    def total_events(self) -> int:
        """Durable events this replica holds (0 before the first sync)."""
        return self._wal.total_events if self._wal is not None else 0

    @property
    def epoch(self) -> int:
        """The fencing epoch this replica last durably adopted."""
        return self._epoch

    def close(self) -> None:
        """Close the replica's active segment handle."""
        if self._wal is not None:
            self._wal.close()

    def apply(self, ship: Shipment) -> int:
        """Apply one shipment; return the event count it acknowledges.

        Raises :class:`FencedError` for a shipment from a superseded
        epoch and :class:`ReplicationError` for a damaged or out-of-order
        one — in both cases the replica stays at its last committed state.
        """
        self._check_epoch(ship.epoch)
        if isinstance(ship, Append):
            self._apply_append(ship)
        elif isinstance(ship, Checkpoint):
            self._apply_checkpoint(ship)
        else:
            self._apply_install(ship)
        fault_site("ship.pre-ack")
        return self.total_events

    # -- internals ------------------------------------------------------

    def _manifest_stat(self) -> Optional[Tuple[int, int, int]]:
        try:
            st = os.stat(os.path.join(self.directory, MANIFEST_NAME))
        except FileNotFoundError:
            return None
        return st.st_ino, st.st_size, st.st_mtime_ns

    def _check_epoch(self, epoch: int) -> None:
        seen = self._manifest_stat()
        if seen is not None and seen != self._manifest_seen:
            # Another writer committed a MANIFEST here since this
            # follower last wrote or read one: a promotion fences that way.
            self._manifest_seen = seen
            self._adopt(int(_read_manifest(self.directory).get("epoch", 0)))
        if epoch < self._epoch:
            raise FencedError(
                f"rejecting a shipment from epoch {epoch}: replica "
                f"{self.directory!r} is fenced at epoch {self._epoch}"
            )
        # A legitimately newer primary (post-failover): adopt its epoch.
        # It becomes durable with the next manifest commit.
        self._adopt(epoch)

    def _adopt(self, epoch: int) -> None:
        if epoch > self._epoch:
            self._epoch = epoch
            if self._wal is not None:
                self._wal._epoch = epoch

    def _installed(self) -> CheckpointedWal:
        if self._wal is None:
            raise ReplicationError(
                f"replica {self.directory!r} was never synced; the primary "
                f"installs it before shipping records or checkpoints"
            )
        return self._wal

    def _apply_append(self, ship: Append) -> None:
        wal = self._installed()
        if ship.seq != wal.total_events:
            raise ReplicationError(
                f"shipped record {ship.seq} but replica "
                f"{self.directory!r} holds {wal.total_events} events; "
                f"stream gap — a full re-sync is required"
            )
        if not ship.data.endswith(b"\n"):
            raise ReplicationError(
                f"shipped record {ship.seq} is not newline-terminated; "
                f"torn or corrupt ship"
            )
        _check_record(ship.data, f"record {ship.seq}")
        wal.raw_append(ship.data)

    def _apply_checkpoint(self, ship: Checkpoint) -> None:
        wal = self._installed()
        _check_record(ship.data, f"snapshot {ship.snapshot}", "snapshot")
        wal.install_checkpoint(ship.seq, ship.snapshot, ship.events,
                               ship.data)
        self._manifest_seen = self._manifest_stat()

    def _apply_install(self, ship: Install) -> None:
        if self._wal is not None and self._wal.total_events > ship.events:
            raise ReplicationError(
                f"replica {self.directory!r} holds "
                f"{self._wal.total_events} events but the primary ships "
                f"{ship.events}; refusing to rewind replicated audit "
                f"history"
            )
        files = {**ship.segments, **ship.snapshots,
                 MANIFEST_NAME: ship.manifest}
        if self._holds(files):
            return  # already the primary's exact bytes: nothing to write
        for name, data in ship.snapshots.items():
            _check_record(data, f"snapshot {name}", "snapshot")
        _check_record(ship.manifest, "manifest", "manifest")
        self.close()
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
        for name, data in ship.segments.items():
            wal._write_file_atomic(name, data)
        for name, data in ship.snapshots.items():
            wal._write_file_atomic(name, data,
                                   mid_site="install.mid-snapshot")
        # The manifest is the install's atomic switch point: a crash
        # before it lands leaves an unreferenced (or empty) directory
        # that the next install simply overwrites.
        wal._write_file_atomic(MANIFEST_NAME, ship.manifest,
                               mid_site="manifest.mid-write")
        self._reopen()

    def _holds(self, files: Mapping[str, bytes]) -> bool:
        """Whether every file in ``files`` is on disk with these bytes."""
        for name, data in files.items():
            try:
                with open(os.path.join(self.directory, name),
                          "rb") as handle:
                    if handle.read() != data:
                        return False
            except FileNotFoundError:
                return False
        return True

    def _reopen(self) -> None:
        """Rebuild in-memory state from the replica directory."""
        self._manifest_seen = self._manifest_stat()
        wal, _records = CheckpointedWal._load(self.directory, self._policy,
                                              self._fsync)
        wal._resume()
        self._wal = wal
        self._epoch = wal.epoch


class LocalLink:
    """The primary's link to one :class:`Follower`."""

    def __init__(self, follower: Follower) -> None:
        self.follower = follower

    def send(self, ship: Shipment) -> int:
        """Hand one shipment to the follower; return its acknowledged
        event count."""
        return self.follower.apply(ship)

    def close(self) -> None:
        """Close the follower's active segment."""
        self.follower.close()


# ----------------------------------------------------------------------
# Primary: what CheckpointedWal ships to its replicas
# ----------------------------------------------------------------------

def open_replica(wal: CheckpointedWal, directory: str) -> LocalLink:
    """Open the replica at ``directory`` and install ``wal`` on it.

    The install ships the primary's manifest and every file it names; a
    replica already holding exactly those bytes writes nothing.
    """
    link = LocalLink(Follower.open(directory, policy=wal.policy,
                                   fsync=wal._fsync))
    try:
        _check_ack(wal, link.send(Install(
            epoch=wal.epoch,
            events=wal.total_events,
            segments={str(seg["name"]): _read(wal, str(seg["name"]))
                      for seg in wal._segments},
            snapshots={str(snap["name"]): _read(wal, str(snap["name"]))
                       for snap in wal._snapshots},
            manifest=_read(wal, MANIFEST_NAME),
        )))
    except Exception:
        link.close()
        raise
    return link


def _read(wal: CheckpointedWal, name: str) -> bytes:
    with open(os.path.join(wal.directory, name), "rb") as handle:
        return handle.read()


def ship_record(wal: CheckpointedWal, data: bytes) -> None:
    """Ship the record ``wal`` just appended (its exact segment bytes)."""
    _broadcast(wal, Append(wal.epoch, wal.total_events - 1, data))


def ship_checkpoint(wal: CheckpointedWal, snap_name: str,
                    data: bytes) -> None:
    """Ship the snapshot ``wal`` just sealed (its exact file bytes)."""
    _broadcast(wal, Checkpoint(wal.epoch, wal._next_seq - 1, snap_name,
                               wal._last_snapshot_events, data))


def _broadcast(wal: CheckpointedWal, ship: Shipment) -> None:
    for link in wal.links:
        _check_ack(wal, link.send(ship))


def _check_ack(wal: CheckpointedWal, acked: Optional[int]) -> None:
    if acked is None:
        raise ReplicationError(
            "a replica returned no acknowledgement; refusing to release "
            "answers the replica set has not confirmed"
        )
    if acked != wal.total_events:
        raise ReplicationError(
            f"replica acknowledged {acked} events but the primary "
            f"holds {wal.total_events}; stream divergence — "
            f"re-sync required"
        )


# ----------------------------------------------------------------------
# Failover and reading a replica
# ----------------------------------------------------------------------

def promote_replica(directory: str, auditor_factory: AuditorFactory,
                    policy: Optional[CheckpointPolicy] = None,
                    fsync: bool = True, verify: bool = False,
                    ) -> Tuple[JournaledAuditor, Dataset, RecoveryInfo]:
    """Fail over to the replica at ``directory``: recover, then fence.

    Snapshot-install failover is ordinary recovery — the replica
    directory is a valid checkpointed WAL, so the newest committed
    snapshot plus the replayed suffix reconstructs the exact audit state
    the primary had released — followed by a durable fencing-epoch bump.
    Returns a fully writable primary with no replicas yet.  A crash
    between the two (fault site ``promote.pre-fence``) leaves the epoch
    unbumped and promotion simply retries.
    """
    if auditor_factory is None:
        raise ReplicationError(
            "promotion requires an auditor factory to rebuild the live "
            "auditor from the replica's snapshot + suffix"
        )
    _require_manifest(directory)
    wrapped, dataset, info = CheckpointedWal.recover(
        directory, auditor_factory, policy=policy, fsync=fsync,
        verify=verify,
    )
    fault_site("promote.pre-fence")
    wrapped.wal.fence()
    return wrapped, dataset, info


def _require_manifest(directory: str) -> None:
    if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        raise ReplicationError(NOT_A_REPLICA)


def replica_events(directory: str) -> List[Dict[str, Any]]:
    """Read-only parse of every durable event a WAL directory holds.

    The WAL is the only copy of the log, so this is how it is read —
    e.g. to compare a primary's and a replica's decision streams —
    without mutating it (a torn tail is ignored, not healed).
    """
    wal, seg_records = CheckpointedWal._load(directory, None, True)
    return [record for seg in wal._segments
            for record in seg_records[str(seg["name"])]]


class FollowerReadOnlyAuditor:
    """Serves a replica's decisions; denies everything else.

    The read-scale-out endpoint: a hit re-releases a bit the *primary*
    already audited and disclosed — information-free by definition — and
    a miss is denied fail-closed (``POLICY``), never independently
    audited.  The replica directory is loaded once, without writing to
    it: a live primary may be writing the same directory.
    """

    def __init__(self, directory: str, auditor_factory: AuditorFactory,
                 dataset: Optional[Dataset] = None) -> None:
        _require_manifest(directory)
        wal, auditor, live, _info = CheckpointedWal.load(directory,
                                                         auditor_factory)
        if dataset is not None and _dataset_header(dataset) \
                != wal._dataset_header:
            raise ReplicationError(
                f"replica {directory!r} replicates a different dataset; "
                f"refusing to serve its decisions as this data's audit "
                f"history"
            )
        self.directory = directory
        self.total_events = wal.total_events
        self.epoch = wal.epoch
        self.dataset = live
        self.trail = AuditTrail()
        self._decisions: Dict[Tuple[AggregateKind, frozenset],
                              AuditDecision] = {
            (event.query.kind, event.query.query_set): event.decision
            for event in auditor.trail.events
        }

    def audit(self, query: Query) -> AuditDecision:
        """Re-release the replicated decision, or deny fail-closed."""
        decision = self._decisions.get((query.kind, query.query_set))
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
