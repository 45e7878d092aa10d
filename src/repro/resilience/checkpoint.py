"""Checkpointed, segmented write-ahead audit log with compaction.

The audit log's one on-disk format.  A log that only ever grew would
replay its entire history on every restart, so recovery time would grow
without bound — the opposite of an always-on online auditor.  This
module bounds both recovery time and disk usage while keeping the
fail-closed contract:

* the log is split into **segments** (append-only files of checksummed
  records, framed as described in :mod:`repro.resilience.wal`);
* a **checkpoint** atomically persists a snapshot of the auditor's full
  decision state (temp-file + rename + parent-directory fsync), seals the
  active segment, and starts a fresh one;
* **recovery** loads the newest valid snapshot and replays only the
  post-checkpoint suffix of the log; a torn or corrupt snapshot falls
  back to the previous one (longer suffix), and to a full replay while
  the pre-checkpoint segments still exist;
* **compaction** deletes segments and snapshots that every retained
  recovery path has stopped needing — never before the manifest that
  stops referencing them is durably committed.

A single ``MANIFEST`` file — one checksummed record, only ever replaced
by atomic rename — is the recovery root: it names the live segments (with
their event offsets), the retained snapshots, and the initial dataset.
Files the manifest does not reference are orphans from a crash inside a
checkpoint or compaction; recovery sweeps them.

Snapshot contents are the pickled auditor object (its synopsis/row-space
state, trail counters, dataset, and — for probabilistic auditors — RNG
state), so restoring one replays **zero** pre-checkpoint events.  The
log, not the snapshot, holds the decisions themselves.  The pickle rides
inside a CRC-checked frame, which catches torn or bit-rotted snapshots;
it is *not* a defence against an adversary who can write the WAL
directory — the directory carries the same trust as the audit log itself.

Durability invariant: an answer is released only after its record is
fsynced into the active segment.  Every checkpoint/compaction step is
crash-atomic: whatever instant the process dies, recovery reconstructs
the exact decision state — the chaos sweep in
``tests/resilience/test_chaos.py`` proves it at every instrumented point.

Serving code opens a log through
:func:`repro.resilience.wal.open_wal_auditor`, which creates or recovers
it and attaches the replicas.  Replication (:meth:`CheckpointedWal.
attach`) loads :mod:`repro.resilience.replication` only once a replica
attaches, so a log without replicas never imports it.
"""

from __future__ import annotations

import base64
import os
import pickle
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple

from ..persistence import JournaledAuditor, JournalError, replay_events
from ..sdb.dataset import Dataset
from .faults import fault_site, plan_active
from .wal import (
    WAL_VERSION,
    AuditorFactory,
    _decode_record,
    _encode_record,
    _parse_records,
    fsync_directory,
)

MANIFEST_VERSION = 1
MANIFEST_NAME = "MANIFEST"

#: Files recovery/create may sweep when the manifest does not claim them.
_OWNED_PREFIXES = ("segment-", "snapshot-")


def _segment_name(seq: int) -> str:
    return f"segment-{seq:06d}.log"


def _snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:06d}.snap"


def _dataset_header(dataset: Dataset) -> Dict[str, Any]:
    """The manifest's record of the dataset a log was recorded over."""
    return {
        "values": [float(v) for v in dataset.values],
        "low": float(dataset.low),
        "high": float(dataset.high),
    }


#: Snapshots the manifest retains: two means recovery survives one
#: torn/corrupt snapshot without resorting to a full replay.
KEEP_SNAPSHOTS = 2


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to checkpoint, and how much history to retain.

    Parameters
    ----------
    every_records:
        Checkpoint after this many journal events since the last snapshot
        (``None`` disables the record trigger).
    every_bytes:
        Checkpoint once the active segment holds at least this many bytes
        (``None`` disables the byte trigger).
    compact:
        Whether to delete segments every retained snapshot has covered.
        Compaction bounds disk usage but retires the full-replay fallback
        for the compacted prefix — recovery then needs at least one valid
        retained snapshot.
    """

    every_records: Optional[int] = 256
    every_bytes: Optional[int] = None
    compact: bool = True

    @classmethod
    def from_flags(cls, every_records: Optional[int] = None,
                   every_bytes: Optional[int] = None) -> "CheckpointPolicy":
        """The policy of ``serve --checkpoint-every N --checkpoint-bytes B``.

        Checkpoint every ``N`` records (the default 256 when omitted) and
        also once the active segment holds ``B`` bytes: the byte trigger
        adds to the record trigger, it never replaces it.
        """
        return cls(every_records=every_records or cls.every_records,
                   every_bytes=every_bytes)

    def __post_init__(self) -> None:
        if self.every_records is not None and self.every_records < 1:
            raise JournalError("every_records must be positive or None")
        if self.every_bytes is not None and self.every_bytes < 1:
            raise JournalError("every_bytes must be positive or None")


@dataclass
class RecoveryInfo:
    """What one recovery actually did (asserted by the chaos sweep).

    ``snapshot_events + replayed_events`` always equals the durable event
    count; ``replayed_events`` is the suffix replay the snapshot bounded.
    """

    snapshot_name: Optional[str]  #: snapshot used (``None`` = full replay)
    snapshot_events: int          #: events restored from the snapshot
    replayed_events: int          #: events replayed from segments
    snapshots_skipped: int        #: torn/corrupt snapshots passed over
    torn_tail_healed: bool        #: active segment had a torn final record
    orphans_removed: int = 0      #: unreferenced files swept (by recover)


class CheckpointedWal:
    """Segmented WAL directory with snapshots, a manifest, and compaction.

    Construct via :meth:`create` (fresh directory) or :meth:`recover`
    (after a crash or clean shutdown); serving code goes through
    :func:`repro.resilience.wal.open_wal_auditor`.

    :class:`~repro.persistence.JournaledAuditor` calls :meth:`append`
    for every event and then :meth:`maybe_checkpoint`.

    The log is also the replication primary: with replicas attached
    (:meth:`attach`), :meth:`append` returns — and therefore the answer
    is released — only after the record is durable locally **and**
    every replica acknowledged it, and :meth:`checkpoint` ships the
    sealed snapshot.  Any replica failure raises
    :class:`~repro.resilience.replication.ReplicationError` out of the
    serving path: fail-closed, the answer is withheld rather than
    released under-replicated.
    """

    def __init__(self, directory: str,
                 policy: Optional[CheckpointPolicy] = None,
                 fsync: bool = True) -> None:
        self.directory = directory
        self.policy = policy or CheckpointPolicy()
        self._fsync = fsync
        self._active: Optional[IO[bytes]] = None
        self._active_bytes = 0
        self._segments: List[Dict[str, Any]] = []
        self._snapshots: List[Dict[str, Any]] = []
        self._dataset_header: Dict[str, Any] = {}
        self._next_seq = 1
        self._total_events = 0
        self._last_snapshot_events = 0
        self._epoch = 0
        self._torn_tail: Optional[int] = None
        self._links: List[Any] = []
        self.last_recovery: Optional[RecoveryInfo] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, directory: str, dataset: Dataset,
               policy: Optional[CheckpointPolicy] = None,
               fsync: bool = True) -> "CheckpointedWal":
        """Start a fresh checkpointed WAL for ``dataset``.

        Refuses a directory that already holds a manifest (use
        :meth:`recover`) or any non-empty log files without one (that
        history may matter; only a crashed *creation* — empty strays, no
        manifest — is cleaned up and retried).
        """
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise JournalError(
                f"checkpointed WAL {directory!r} already exists; use "
                f"CheckpointedWal.recover() to resume it"
            )
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if name.endswith(".tmp"):
                os.unlink(path)
                continue
            if not name.startswith(_OWNED_PREFIXES):
                continue
            if os.path.getsize(path) > 0:
                raise JournalError(
                    f"directory {directory!r} holds log files but no "
                    f"manifest; refusing to overwrite possible audit "
                    f"history — restore the MANIFEST from a replica or "
                    f"point at an empty directory"
                )
            os.unlink(path)  # empty stray from a crashed create()
        wal = cls(directory, policy=policy, fsync=fsync)
        wal._dataset_header = _dataset_header(dataset)
        wal._segments = [{"name": _segment_name(1), "base": 0,
                          "count": None}]
        wal._next_seq = 2
        wal._open_active()
        if fsync:
            fsync_directory(directory)
        wal._commit_manifest()
        return wal

    @classmethod
    def recover(cls, directory: str, auditor_factory: AuditorFactory,
                policy: Optional[CheckpointPolicy] = None,
                fsync: bool = True, verify: bool = False,
                ) -> Tuple[JournaledAuditor, Dataset, RecoveryInfo]:
        """Reopen after a crash or clean shutdown.

        The recovery state machine, in order:

        1. read the ``MANIFEST`` (atomically replaced, so damage here is
           corruption or tampering — refused, never healed);
        2. parse every live segment; a torn tail is tolerated on the
           *active* (final) segment only, damage anywhere else refused;
        3. load the newest retained snapshot; on a torn/corrupt one fall
           back to the previous, then to a full replay — but only while
           the manifest still references the pre-checkpoint segments
           (compaction retires that path);
        4. replay the post-snapshot suffix through the auditor's state
           hooks (``verify=True`` re-runs the suffix's decisions — only
           meaningful for deterministic auditors);
        5. truncate the active segment's torn tail, sweep orphan files no
           manifest references, and reopen the active segment for
           appending.

        Steps 1–4 write nothing; step 5 is the only one that does.
        """
        wal, seg_records = cls._load(directory, policy, fsync)

        auditor: Any = None
        chosen: Optional[Dict[str, Any]] = None
        skipped = 0
        # Fast path: a young log (no snapshot taken yet) has no recovery
        # root to resolve — the "suffix" is the whole log, and the load
        # drops straight to the full replay below without probing any
        # snapshot files.
        for snap in reversed(wal._snapshots):
            try:
                auditor = _load_snapshot(
                    os.path.join(directory, str(snap["name"])),
                    int(snap["events"]),
                )
            except Exception:
                # Torn, bit-rotted, or unreadable snapshot: fall back to
                # an older recovery root.  (InjectedCrash is a
                # BaseException and deliberately not caught.)
                skipped += 1
                continue
            chosen = snap
            break

        if chosen is not None:
            dataset = auditor.dataset
            suffix = []
            base_events = int(chosen["events"])
            for seg in wal._segments:
                records = seg_records[str(seg["name"])]
                base = int(seg["base"])
                if base + len(records) <= base_events:
                    # Wholly pre-checkpoint segment: retained only as a
                    # fallback recovery root — nothing here to replay.
                    continue
                suffix.extend(records[max(0, base_events - base):])
            replayed = replay_events(auditor, dataset, suffix,
                                     verify=verify)
            snapshot_name: Optional[str] = str(chosen["name"])
        elif int(wal._segments[0]["base"]) == 0:
            header = wal._dataset_header
            dataset = Dataset(list(header["values"]), low=header["low"],
                              high=header["high"])
            auditor = auditor_factory(dataset)
            replayed = replay_events(
                auditor, dataset,
                [record for seg in wal._segments
                 for record in seg_records[seg["name"]]],
                verify=verify)
            base_events = 0
            snapshot_name = None
        else:
            raise JournalError(
                f"checkpointed WAL {directory!r} has no readable snapshot "
                f"and its pre-checkpoint segments were compacted away; "
                f"refusing to serve from an incomplete audit history — "
                f"restore from a replica or archive"
            )

        info = RecoveryInfo(
            snapshot_name=snapshot_name,
            snapshot_events=base_events,
            replayed_events=replayed,
            snapshots_skipped=skipped,
            torn_tail_healed=wal._torn_tail is not None,
        )
        info.orphans_removed = wal._resume()
        wal.last_recovery = info
        return JournaledAuditor(auditor, wal=wal), dataset, info

    @classmethod
    def _load(cls, directory: str, policy: Optional[CheckpointPolicy],
              fsync: bool,
              ) -> Tuple["CheckpointedWal", Dict[str, List[Dict[str, Any]]]]:
        """Steps 1–2 of :meth:`recover`: read the manifest and every live
        segment and count the events, writing nothing.

        A durability-only replica (:class:`~repro.resilience.replication.
        Follower`) reopens through this and :meth:`_resume` alone: it
        keeps the bytes and never replays them.
        """
        wal = cls(directory, policy=policy, fsync=fsync)
        wal._load_manifest(_read_manifest(directory))
        seg_records = wal._read_segments()
        last = wal._segments[-1]
        wal._total_events = (int(last["base"])
                             + len(seg_records[str(last["name"])]))
        wal._last_snapshot_events = (int(wal._snapshots[-1]["events"])
                                     if wal._snapshots else 0)
        return wal, seg_records

    def _resume(self) -> int:
        """Step 5 of :meth:`recover`: truncate a torn active tail, sweep
        orphans and reopen the active segment; returns the number of
        orphans removed."""
        if self._torn_tail is not None:
            path = os.path.join(self.directory,
                                str(self._segments[-1]["name"]))
            with open(path, "r+b") as handle:
                handle.truncate(self._torn_tail)
                handle.flush()
                os.fsync(handle.fileno())
            self._torn_tail = None
        removed = self._sweep_orphans()
        self._open_active()
        return removed

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, event: Mapping[str, Any]) -> None:
        """Durably append one record, then ship it to every link."""
        if self._active is None:
            raise JournalError(
                f"checkpointed WAL {self.directory!r} is closed")
        data = _encode_record(event)
        half = len(data) // 2
        self._active.write(data[:half])
        if plan_active():
            # Make the half-written state visible before a simulated kill,
            # the way a real partial page write would be.
            self._active.flush()
        fault_site("wal.mid-append")
        self._active.write(data[half:])
        self._active.flush()
        if self._fsync:
            os.fsync(self._active.fileno())
        self._active_bytes += len(data)
        self._total_events += 1
        fault_site("wal.post-fsync")
        if self._links:
            from .replication import ship_record

            ship_record(self, data)

    def raw_append(self, data: bytes) -> None:
        """Durably append one *pre-encoded* record (replication ship path).

        The follower applies exactly the bytes the primary appended — the
        caller has already CRC-validated them — so the replica segment is
        a bitwise copy of the primary's record stream.
        """
        if self._active is None:
            raise JournalError(
                f"checkpointed WAL {self.directory!r} is closed")
        half = len(data) // 2
        self._active.write(data[:half])
        if plan_active():
            # Make the half-written state visible before a simulated kill,
            # the way a real torn transfer would be.
            self._active.flush()
        fault_site("ship.mid-segment")
        self._active.write(data[half:])
        self._active.flush()
        if self._fsync:
            os.fsync(self._active.fileno())
        self._active_bytes += len(data)
        self._total_events += 1

    def close(self) -> None:
        """Close every replica, then the active segment handle."""
        for link in self._links:
            try:
                link.close()
            except OSError:  # pragma: no cover - platform-dependent
                pass
        self._links = []
        if self._active is not None:
            self._active.close()
            self._active = None

    def __enter__(self) -> "CheckpointedWal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Journal events durably appended over the log's lifetime."""
        return self._total_events

    @property
    def events_since_checkpoint(self) -> int:
        """Events appended after the newest snapshot."""
        return self._total_events - self._last_snapshot_events

    @property
    def epoch(self) -> int:
        """The manifest's fencing epoch (bumped by failover promotion)."""
        return self._epoch

    def fence(self) -> int:
        """Durably bump the fencing epoch (the promotion commit point).

        A replica rejects shipments from any primary whose epoch is older
        than its own, so once a promoted replica's bump is committed a
        resurrected old primary can no longer ship appends to it —
        split-brain writes are refused, not merged.
        """
        self._epoch += 1
        self._commit_manifest()
        return self._epoch

    def should_checkpoint(self) -> bool:
        """Whether the policy's record/byte thresholds have tripped."""
        if self.events_since_checkpoint <= 0:
            return False
        policy = self.policy
        if (policy.every_records is not None
                and self.events_since_checkpoint >= policy.every_records):
            return True
        return (policy.every_bytes is not None
                and self._active_bytes >= policy.every_bytes)

    def maybe_checkpoint(self, auditor: Any) -> bool:
        """Checkpoint ``auditor`` if the policy says it is time.

        Called by :class:`~repro.persistence.JournaledAuditor` after each
        durable append; returns whether a checkpoint was taken.
        """
        if not self.should_checkpoint():
            return False
        self.checkpoint(auditor)
        return True

    def checkpoint(self, auditor: Any) -> str:
        """Snapshot ``auditor``, rotate the active segment, compact.

        Crash-atomic: the manifest commit (atomic rename) is the single
        point where the new snapshot becomes the recovery root; a crash
        on either side leaves only orphan files, which recovery sweeps.
        Returns the snapshot file name.
        """
        if self._active is None:
            raise JournalError(
                f"checkpointed WAL {self.directory!r} is closed")
        events = self._total_events
        seq = self._next_seq
        snap_name = _snapshot_name(seq)
        data = _encode_record({
            "type": "snapshot",
            "snapshot_version": 1,
            "events": events,
            "state": base64.b64encode(
                pickle.dumps(auditor)).decode("ascii"),
        })
        self._write_file_atomic(snap_name, data,
                                mid_site="checkpoint.mid-snapshot")
        fault_site("checkpoint.pre-commit")
        self._seal_and_commit(seq, snap_name, events)
        fault_site("primary.post-seal")
        if self._links:
            from .replication import ship_checkpoint

            ship_checkpoint(self, snap_name, data)
        return snap_name

    # ------------------------------------------------------------------
    # Replication links
    # ------------------------------------------------------------------

    @property
    def links(self) -> Tuple[Any, ...]:
        """The links to the attached replicas."""
        return tuple(self._links)

    def attach(self, directory: str) -> None:
        """Attach the replica directory ``directory``.

        It becomes an in-process, durability-only follower that this log
        writes by direct call, and opens and closes.  Unless the replica
        already holds this log's exact bytes, it is snapshot-installed
        first (the manifest, every live segment and every retained
        snapshot), so a fresh or stale replica is a full copy before the
        first append is shipped.
        """
        from .replication import open_replica

        self._links.append(open_replica(self, directory))

    def install_checkpoint(self, seq: int, snap_name: str, events: int,
                           snapshot_data: bytes) -> None:
        """Install a *shipped* snapshot (replication's checkpoint ship).

        The follower-side twin of :meth:`checkpoint`: instead of pickling
        a local auditor it installs the primary's already-encoded snapshot
        record, then runs the same crash-atomic seal/rotate/commit/compact
        sequence so the follower directory stays a valid checkpointed WAL
        whose file names track the primary's.
        """
        if self._active is None:
            raise JournalError(
                f"checkpointed WAL {self.directory!r} is closed")
        if events != self._total_events:
            raise JournalError(
                f"shipped snapshot covers {events} events but this "
                f"replica holds {self._total_events}; refusing to "
                f"install a checkpoint that skips or rewinds history"
            )
        if seq < self._next_seq:
            raise JournalError(
                f"shipped checkpoint sequence {seq} is stale (replica is "
                f"at {self._next_seq}); refusing to rewind the manifest"
            )
        self._write_file_atomic(snap_name, snapshot_data,
                                mid_site="install.mid-snapshot")
        fault_site("checkpoint.pre-commit")
        self._seal_and_commit(seq, snap_name, events)

    def _seal_and_commit(self, seq: int, snap_name: str,
                         events: int) -> None:
        """Rotate the active segment and commit the new recovery root.

        Crash-atomic tail shared by :meth:`checkpoint` and
        :meth:`install_checkpoint`; the snapshot file ``snap_name`` is
        already durable when this runs.
        """
        # Seal the active segment and start a fresh one so the snapshot
        # boundary coincides with a segment boundary.
        assert self._active is not None
        self._active.close()
        self._active = None
        for seg in self._segments:
            if seg["count"] is None:
                seg["count"] = events - int(seg["base"])
        self._segments.append({"name": _segment_name(seq), "base": events,
                               "count": None})
        self._next_seq = seq + 1
        self._open_active()
        if self._fsync:
            fsync_directory(self.directory)
        fault_site("segment.post-roll")

        # Retention: the new manifest stops referencing superseded files;
        # only then may compaction delete them.
        self._snapshots.append({"name": snap_name, "events": events})
        dropped = self._snapshots[:-KEEP_SNAPSHOTS]
        self._snapshots = self._snapshots[-KEEP_SNAPSHOTS:]
        if self.policy.compact:
            horizon = int(self._snapshots[0]["events"])
            live = []
            for seg in self._segments:
                count = seg["count"]
                if count is not None and int(seg["base"]) + count <= horizon:
                    dropped.append(seg)
                else:
                    live.append(seg)
            self._segments = live
        self._last_snapshot_events = events
        self._commit_manifest()
        fault_site("checkpoint.post-commit")

        for stale in dropped:
            fault_site("compact.mid-delete")
            try:
                os.unlink(os.path.join(self.directory, str(stale["name"])))
            except OSError:  # already gone: compaction is idempotent
                pass
        if dropped and self._fsync:
            fsync_directory(self.directory)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _open_active(self) -> None:
        path = os.path.join(self.directory, str(self._segments[-1]["name"]))
        self._active = open(path, "ab")
        self._active_bytes = os.path.getsize(path)

    def _load_manifest(self, payload: Dict[str, Any]) -> None:
        try:
            self._dataset_header = {
                "values": [float(v) for v in payload["dataset"]["values"]],
                "low": float(payload["dataset"]["low"]),
                "high": float(payload["dataset"]["high"]),
            }
            self._segments = [dict(seg) for seg in payload["segments"]]
            self._snapshots = [dict(snap) for snap in payload["snapshots"]]
            self._next_seq = int(payload["next_seq"])
            # Fencing epoch (replication): absent in pre-replication
            # manifests, which are all epoch 0.
            self._epoch = int(payload.get("epoch", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"checkpointed WAL manifest in {self.directory!r} is "
                f"malformed: {exc}"
            ) from exc
        if not self._segments:
            raise JournalError(
                f"checkpointed WAL manifest in {self.directory!r} names "
                f"no segments"
            )

    def _read_segments(self) -> Dict[str, List[Dict[str, Any]]]:
        """Parse every live segment; note (not heal) a torn active tail."""
        seg_records: Dict[str, List[Dict[str, Any]]] = {}
        for pos, seg in enumerate(self._segments):
            name = str(seg["name"])
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError as exc:
                raise JournalError(
                    f"checkpointed WAL {self.directory!r} is missing "
                    f"segment {name} ({exc}); restore from a replica or "
                    f"archive"
                ) from exc
            records, good_bytes = _parse_records(raw, path)
            if good_bytes < len(raw):
                if pos != len(self._segments) - 1:
                    raise JournalError(
                        f"sealed segment {name} of {self.directory!r} is "
                        f"damaged; only the active segment may carry a "
                        f"torn tail — restore from a replica or archive"
                    )
                self._torn_tail = good_bytes
            expected = seg["count"]
            if expected is not None and len(records) != int(expected):
                raise JournalError(
                    f"sealed segment {name} of {self.directory!r} holds "
                    f"{len(records)} records where the manifest sealed "
                    f"{expected}; refusing to serve from a damaged audit "
                    f"history — restore from a replica or archive"
                )
            seg_records[name] = records
        return seg_records

    def _write_file_atomic(self, name: str, data: bytes,
                           mid_site: Optional[str] = None) -> None:
        """Write ``data`` to ``name`` via tmp-file + fsync + atomic rename.

        The single durable-artifact protocol shared by snapshots, the
        manifest, and replication's installs.  ``mid_site`` names the
        fault site fired half-way through the tmp write.
        """
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            half = len(data) // 2
            handle.write(data[:half])
            if plan_active():
                # Make the half-written state visible before a simulated
                # kill, the way a real partial page write would be.
                handle.flush()
            if mid_site is not None:
                fault_site(mid_site)
            handle.write(data[half:])
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self._fsync:
            fsync_directory(self.directory)

    def _commit_manifest(self) -> None:
        payload = {
            "type": "manifest",
            "manifest_version": MANIFEST_VERSION,
            "wal_version": WAL_VERSION,
            "dataset": self._dataset_header,
            "segments": self._segments,
            "snapshots": self._snapshots,
            "next_seq": self._next_seq,
            "epoch": self._epoch,
        }
        self._write_file_atomic(MANIFEST_NAME, _encode_record(payload),
                                mid_site="manifest.mid-write")

    def _sweep_orphans(self) -> int:
        referenced = {MANIFEST_NAME}
        referenced.update(str(seg["name"]) for seg in self._segments)
        referenced.update(str(snap["name"]) for snap in self._snapshots)
        removed = 0
        for name in sorted(os.listdir(self.directory)):
            if name in referenced:
                continue
            if (name.startswith(_OWNED_PREFIXES)
                    or name.endswith(".tmp")):
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        return removed


def _read_manifest(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise JournalError(
            f"{directory!r} holds no checkpointed-WAL manifest ({exc}); "
            f"start a fresh WAL or point at the right directory"
        ) from exc
    try:
        payload = _decode_record(raw.rstrip(b"\n"), 0)
    except ValueError as exc:
        raise JournalError(
            f"checkpointed WAL manifest {path!r} is corrupt ({exc}); the "
            f"manifest is only ever replaced atomically, so this is "
            f"damage or tampering — restore from a replica or archive"
        ) from exc
    if payload.get("type") != "manifest":
        raise JournalError(
            f"{path!r} is not a checkpointed WAL manifest "
            f"(got type {payload.get('type')!r})"
        )
    version = payload.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise JournalError(
            f"checkpointed WAL manifest {path!r} has unsupported version "
            f"{version!r} (this build reads version {MANIFEST_VERSION}); "
            f"upgrade or migrate before serving"
        )
    return payload


def _load_snapshot(path: str, expected_events: int) -> Any:
    """Validate and unpickle one snapshot; raises on any damage."""
    with open(path, "rb") as handle:
        raw = handle.read()
    payload = _decode_record(raw.rstrip(b"\n"), 0)
    if payload.get("type") != "snapshot":
        raise ValueError(f"{path!r} is not a snapshot record")
    if payload.get("snapshot_version") != 1:
        raise ValueError(
            f"unsupported snapshot version {payload.get('snapshot_version')!r}"
        )
    if int(payload.get("events", -1)) != expected_events:
        raise ValueError(
            f"snapshot covers {payload.get('events')!r} events, manifest "
            f"says {expected_events}"
        )
    return pickle.loads(base64.b64decode(payload["state"]))

