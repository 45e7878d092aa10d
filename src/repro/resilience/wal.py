"""Crash-safe write-ahead audit log (WAL): record framing and the opener.

The audit log is a checkpointed WAL *directory* (see
:mod:`repro.resilience.checkpoint`): a ``MANIFEST`` naming the initial
dataset, the live log segments and the retained snapshots.  Every file in
it — segment records, the manifest, snapshots — uses one frame, one
record per line::

    <crc32 of payload, 8 hex digits> <space> <payload JSON> <newline>

Segment records are exactly the journal events
:class:`~repro.persistence.JournaledAuditor` emits, so recovery replays
them through the journal's replay path (including its *verify* mode for
deterministic auditors).

Durability contract: ``CheckpointedWal.append`` writes, flushes, and
``fsync``\\ s before returning, and :class:`~repro.persistence.
JournaledAuditor` appends *before* releasing an answer.  Therefore: **an
answer was released ⇒ its record is durable**.  The converse may fail — a
crash between fsync and release persists a decision whose answer was never
seen — and recovery resolves that ambiguity in the fail-closed direction by
treating every durable answer as disclosed.

Recovery tolerates exactly one kind of damage without erroring: a *torn
tail*, i.e. a final record that is incomplete (no newline) or fails its
checksum, as a crash mid-``write`` can leave.  The tail is truncated and
serving resumes from the last durable record; the in-flight answer was
never released, so nothing is forgotten.  Damage anywhere *before* the
tail is not a crash artefact of an append-only file — it is corruption
or tampering — and raises :class:`~repro.persistence.JournalError`.

:func:`open_wal_auditor` is the one way to open or recover a log.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..persistence import JournalError, JournaledAuditor
from ..sdb.dataset import Dataset

WAL_VERSION = 1

AuditorFactory = Callable[[Dataset], Any]

#: Why a WAL path naming a regular file is refused.  Constant on purpose:
#: the refusal depends only on the path's type, never on its contents.
SINGLE_FILE_LOG = (
    "the WAL path names a regular file, the retired single-file audit "
    "log format; refusing to overwrite it or to start an empty log beside "
    "the answers it holds — pass a WAL directory"
)


def fsync_directory(path: str) -> None:
    """``fsync`` a directory so a freshly created/renamed entry survives.

    POSIX durability is two-level: ``fsync`` on the file makes its *bytes*
    durable, but the directory entry pointing at the file is metadata of
    the parent directory and needs its own ``fsync``.  Platforms that
    cannot open directories (Windows) are silently skipped — they have no
    equivalent call.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _encode_record(payload: Mapping[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    data = body.encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, data)


def _decode_record(line: bytes, index: int) -> Dict[str, Any]:
    """Decode one complete line; raises ``ValueError`` on any mismatch."""
    if len(line) < 10 or line[8:9] != b" ":
        raise ValueError(f"record {index}: malformed frame")
    try:
        crc = int(line[:8], 16)
    except ValueError:
        raise ValueError(f"record {index}: malformed checksum") from None
    data = line[9:]
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if actual != crc:
        raise ValueError(
            f"record {index}: checksum mismatch "
            f"(stored {crc:08x}, computed {actual:08x})"
        )
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"record {index}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"record {index}: payload is not an object")
    return payload


def _parse_records(raw: bytes, path: str
                   ) -> Tuple[List[Dict[str, Any]], int]:
    """Decode all complete records; returns ``(records, good_bytes)``.

    Only the *final* record may be damaged (torn tail); a bad record
    with durable records after it is corruption and raises.
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    index = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # incomplete final line: torn tail
        line = raw[offset:newline]
        try:
            payload = _decode_record(line, index)
        except ValueError as exc:
            # A damaged *final* record is a torn tail; a damaged record
            # with durable records after it cannot be a crash artefact
            # of an append-only log — that is corruption or tampering.
            if raw[newline + 1:].strip():
                raise JournalError(
                    f"WAL {path!r} is corrupt before its tail "
                    f"({exc}); refusing to serve from a damaged audit "
                    f"history — restore from a replica or archive"
                ) from exc
            break
        records.append(payload)
        offset = newline + 1
        index += 1
    return records, offset


def open_wal_auditor(directory: str, auditor_factory: AuditorFactory,
                     dataset: Dataset, fsync: bool = True,
                     verify: bool = False, policy: Any = None,
                     replicate_to: Optional[Sequence[str]] = None,
                     ) -> Tuple[JournaledAuditor, Dataset]:
    """Open-or-recover the WAL directory: the one entry point serving
    code uses.

    If ``directory`` holds a manifest, recover from it (``dataset`` must
    match the log's initial dataset — serving a log recorded over
    different data is refused); otherwise start a fresh log over
    ``dataset``.  A path naming a regular file is refused
    (:data:`SINGLE_FILE_LOG`) and left untouched.  Returns the WAL-backed
    auditor and its live dataset; ``.wal.last_recovery`` says what a
    recovery did.

    ``policy`` is the :class:`~repro.resilience.checkpoint.
    CheckpointPolicy` (default: checkpoint every 256 records).
    ``replicate_to`` names replica directories, which become in-process
    durability-only followers that the log opens and closes; each one
    holds the log's exact bytes before this returns, and from then on an
    answer is released only after every replica acknowledges its record
    (see :meth:`~repro.resilience.checkpoint.CheckpointedWal.attach`).
    Without replicas :mod:`repro.resilience.replication` is never
    imported.
    """
    from .checkpoint import MANIFEST_NAME, CheckpointedWal, _dataset_header

    if os.path.isfile(directory):
        raise JournalError(SINGLE_FILE_LOG)
    if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        wrapped, live, _info = CheckpointedWal.recover(
            directory, auditor_factory, policy=policy, fsync=fsync,
            verify=verify,
        )
    else:
        wal = CheckpointedWal.create(directory, dataset, policy=policy,
                                     fsync=fsync)
        wrapped, live = JournaledAuditor(auditor_factory(dataset),
                                         wal=wal), dataset
    try:
        if wrapped.wal._dataset_header != _dataset_header(dataset):
            raise JournalError(
                f"WAL {directory!r} was recorded over a different "
                f"dataset; refusing to resume (pass a fresh WAL directory "
                f"or the original data)"
            )
        for replica in replicate_to or ():
            wrapped.wal.attach(replica)
    except Exception:
        wrapped.close()
        raise
    return wrapped, live
