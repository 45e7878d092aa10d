"""Write-ahead audit log: durability, recovery, and corruption handling.

Every log is a checkpointed WAL directory; its ``MANIFEST`` is the log's
header (format version, initial dataset, live segments).
"""

import json
import os

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.persistence import JournalError
from repro.resilience.checkpoint import MANIFEST_NAME, CheckpointedWal
from repro.resilience.wal import (
    SINGLE_FILE_LOG,
    _encode_record,
    open_wal_auditor,
)
from repro.sdb.dataset import Dataset
from repro.types import DenialReason, sum_query


def make_dataset():
    return Dataset([10.0, 20.0, 30.0, 40.0], low=0.0, high=100.0)


def factory(ds):
    return SumClassicAuditor(ds)


def serve_session(path, queries=((0, 1, 2, 3), (0, 1), (0, 1, 2))):
    """Open a WAL-backed auditor and pose ``queries``; returns decisions."""
    wrapped, _ = open_wal_auditor(path, factory, make_dataset())
    decisions = [wrapped.audit(sum_query(list(q))) for q in queries]
    wrapped.close()
    return decisions


def active_segment(path):
    """The segment new records go to (no checkpoint within 256 events)."""
    return os.path.join(path, "segment-000001.log")


def rewrite_manifest(path, **changes):
    """Replace the manifest with a validly framed, edited copy."""
    manifest = os.path.join(path, MANIFEST_NAME)
    with open(manifest, "rb") as handle:
        payload = json.loads(handle.read().split(b" ", 1)[1])
    payload.update(changes)
    with open(manifest, "wb") as handle:
        handle.write(_encode_record(payload))


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------

def test_roundtrip_recovers_trail_and_keeps_serving(tmp_path):
    path = str(tmp_path / "wal")
    decisions = serve_session(path)
    assert [d.denied for d in decisions] == [False, False, True]

    wrapped, dataset = open_wal_auditor(path, factory, make_dataset(),
                                        verify=True)
    assert dataset.values == make_dataset().values
    assert len(wrapped.trail) == 3
    assert wrapped.trail.denial_count() == 1
    # The WAL is the only copy of the log: no in-memory journal.
    assert not hasattr(wrapped, "journal")
    # The recovered auditor keeps appending to the same log.
    again = wrapped.audit(sum_query([0, 1]))
    assert again.answered and again.value == decisions[1].value
    wrapped.close()

    wrapped, _ = open_wal_auditor(path, factory, make_dataset(), verify=True)
    assert len(wrapped.trail) == 4
    wrapped.close()


def test_denial_reasons_survive_recovery(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    wrapped, _ = open_wal_auditor(path, factory, make_dataset())
    summary = wrapped.trail.summary()
    assert summary["denied_by_reason"] == {
        DenialReason.FULL_DISCLOSURE.value: 1
    }
    wrapped.close()


def test_create_refuses_existing_log(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    with pytest.raises(JournalError, match="already exists"):
        CheckpointedWal.create(path, make_dataset())


def test_open_wal_auditor_refuses_different_dataset(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    other = Dataset([1.0, 2.0], low=0.0, high=10.0)
    with pytest.raises(JournalError, match="different dataset"):
        open_wal_auditor(path, factory, other)


def test_append_after_close_raises(tmp_path):
    path = str(tmp_path / "wal")
    wal = CheckpointedWal.create(path, make_dataset())
    wal.close()
    with pytest.raises(JournalError, match="closed"):
        wal.append({"type": "query"})


def test_regular_file_is_refused_and_left_untouched(tmp_path):
    """A path naming a regular file — a log in the retired single-file
    format — is neither overwritten nor served from a new log beside it."""
    path = tmp_path / "audit.wal"
    old_log = (_encode_record({"type": "header", "wal_version": 1,
                               "dataset": {"values": [10.0, 20.0, 30.0,
                                                      40.0],
                                           "low": 0.0, "high": 100.0}})
               + _encode_record({"type": "query", "kind": "sum",
                                 "members": [0, 1, 2, 3], "denied": False,
                                 "value": 100.0}))
    path.write_bytes(old_log)
    with pytest.raises(JournalError) as exc:
        open_wal_auditor(str(path), factory, make_dataset())
    assert str(exc.value) == SINGLE_FILE_LOG
    assert path.read_bytes() == old_log
    assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.wal"]


# ----------------------------------------------------------------------
# Torn tails (crash artefacts) are healed
# ----------------------------------------------------------------------

def test_torn_tail_is_truncated_and_serving_resumes(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    segment = active_segment(path)
    whole = os.path.getsize(segment)
    with open(segment, "r+b") as handle:
        handle.truncate(whole - 7)  # chop mid-record, as a crash would

    wrapped, _ = open_wal_auditor(path, factory, make_dataset(), verify=True)
    # The torn final record (the denial) is gone; earlier ones survive.
    assert len(wrapped.trail) == 2
    assert wrapped.trail.denial_count() == 0
    assert wrapped.wal.last_recovery.torn_tail_healed
    wrapped.close()
    # The heal truncated the segment back to complete records.
    assert os.path.getsize(segment) < whole - 7
    wrapped, _ = open_wal_auditor(path, factory, make_dataset(), verify=True)
    assert len(wrapped.trail) == 2
    wrapped.close()


def test_torn_final_record_without_newline(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    with open(active_segment(path), "ab") as handle:
        handle.write(b"0badc0de {\"type\":\"query\"")  # no newline
    wrapped, _ = open_wal_auditor(path, factory, make_dataset(), verify=True)
    assert len(wrapped.trail) == 3
    wrapped.close()


# ----------------------------------------------------------------------
# Real corruption is refused with actionable errors
# ----------------------------------------------------------------------

def test_bitflip_before_tail_is_corruption(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    with open(active_segment(path), "r+b") as handle:
        raw = handle.read()
        first_nl = raw.find(b"\n")
        # Flip one payload byte of the *first* record: damage with durable
        # records after it cannot be a torn tail.
        handle.seek(first_nl - 2)
        handle.write(b"~")
    with pytest.raises(JournalError) as exc:
        open_wal_auditor(path, factory, make_dataset())
    message = str(exc.value)
    assert "corrupt before its tail" in message
    assert "restore from a replica" in message
    assert "checksum mismatch" in message


def test_empty_file_has_no_header(tmp_path):
    """An empty MANIFEST is damage (it is only ever replaced by atomic
    rename), never an invitation to start over."""
    path = str(tmp_path / "wal")
    serve_session(path)
    open(os.path.join(path, MANIFEST_NAME), "wb").close()
    with pytest.raises(JournalError, match="manifest .* is corrupt"):
        open_wal_auditor(path, factory, make_dataset())
    assert os.path.getsize(active_segment(path)) > 0


def test_version_mismatch_is_refused(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    rewrite_manifest(path, manifest_version=99)
    with pytest.raises(JournalError) as exc:
        open_wal_auditor(path, factory, make_dataset())
    assert "unsupported version 99" in str(exc.value)
    assert "migrate" in str(exc.value)


def test_missing_header_record_is_refused(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    rewrite_manifest(path, type="query")
    with pytest.raises(JournalError,
                       match="is not a checkpointed WAL manifest"):
        open_wal_auditor(path, factory, make_dataset())


def test_malformed_header_dataset_is_refused(tmp_path):
    path = str(tmp_path / "wal")
    serve_session(path)
    rewrite_manifest(path, dataset={"low": 0.0})  # no values
    with pytest.raises(JournalError, match="manifest .* is malformed"):
        open_wal_auditor(path, factory, make_dataset())


def test_verify_mode_catches_semantic_tampering(tmp_path):
    """A forged record with a *valid* checksum still fails verify replay."""
    path = str(tmp_path / "wal")
    wal = CheckpointedWal.create(path, make_dataset())
    wal.append({"type": "query", "kind": "sum", "members": [0, 1, 2, 3],
                "denied": False, "value": 999.0})  # true sum is 100.0
    wal.close()
    with pytest.raises(JournalError, match="replay divergence"):
        open_wal_auditor(path, factory, make_dataset(), verify=True)
    # Without verify the forgery is accepted (checksums only cover frames),
    # which is exactly why deterministic deployments should verify.
    wrapped, _ = open_wal_auditor(path, factory, make_dataset())
    assert len(wrapped.trail) == 1
    wrapped.close()
