"""Journal replay: a WAL directory recovers to the same audit state."""

import glob
import json
import os
import tempfile

import numpy as np
import pytest

from repro.auditors.max_classic import MaxClassicAuditor
from repro.auditors.maxmin_classic import MaxMinClassicAuditor
from repro.auditors.sum_classic import SumClassicAuditor
from repro.persistence import JournalError
from repro.resilience.checkpoint import CheckpointedWal
from repro.resilience.wal import _encode_record, open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.sdb.updates import Insert, Modify
from repro.types import max_query, min_query, sum_query


def sum_data():
    return Dataset([10.0, 20.0, 30.0, 40.0], low=0.0, high=100.0)


def build_sum_session(path):
    """Four audits and a modify, logged to the WAL directory ``path``."""
    wrapped, data = open_wal_auditor(path, SumClassicAuditor, sum_data())
    wrapped.audit(sum_query([0, 1, 2, 3]))
    wrapped.audit(sum_query([0, 1]))
    wrapped.audit(sum_query([0, 1, 2]))       # denied: minus {0,1} is x_2
    wrapped.apply_update(Modify(0, 55.0))
    data.set_value(0, 55.0)
    wrapped.audit(sum_query([0, 1]))          # answerable post-update
    wrapped.close()
    return wrapped


def copy_of(data):
    return Dataset(list(data.values), low=data.low, high=data.high)


def test_roundtrip_restores_equivalent_state(tmp_path):
    path = str(tmp_path / "wal")
    fresh = build_sum_session(path).auditor
    restored, _ = open_wal_auditor(path, SumClassicAuditor, sum_data())
    # Same audit state: the same follow-up queries get the same verdicts.
    for members in ([0], [2, 3], [1, 2, 3], [0, 2]):
        q = sum_query(members)
        assert restored.audit(q).denied == fresh.audit(q).denied
    restored.close()


def test_verify_mode_replays_decisions(tmp_path):
    path = str(tmp_path / "wal")
    session = build_sum_session(path)
    restored, _ = open_wal_auditor(path, SumClassicAuditor, sum_data(),
                                   verify=True)
    assert restored.trail.denial_count() == session.trail.denial_count()
    restored.close()


def test_verify_detects_tampered_journal(tmp_path):
    path = str(tmp_path / "wal")
    build_sum_session(path)
    (segment,) = glob.glob(os.path.join(path, "segment-*.log"))
    with open(segment, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    events = [json.loads(line.split(b" ", 1)[1]) for line in lines]
    # Flip a denial into an answer and re-frame it with a valid checksum.
    pos = next(i for i, e in enumerate(events)
               if e["type"] == "query" and e["denied"])
    events[pos].update(denied=False, value=12.3)
    lines[pos] = _encode_record(events[pos])
    with open(segment, "wb") as handle:
        handle.write(b"".join(lines))
    with pytest.raises(JournalError):
        open_wal_auditor(path, SumClassicAuditor, sum_data(), verify=True)


def test_maxmin_journal_roundtrip(tmp_path):
    path = str(tmp_path / "wal")
    data = Dataset([1.0, 2.0, 3.0, 4.0, 5.0], low=0.0, high=10.0)
    wrapped, _ = open_wal_auditor(path, MaxMinClassicAuditor, copy_of(data))
    wrapped.audit(max_query([0, 1, 2, 3, 4]))
    wrapped.audit(min_query([0, 1, 2, 3, 4]))
    wrapped.audit(max_query([0, 1]))
    wrapped.close()
    restored, _ = open_wal_auditor(path, MaxMinClassicAuditor, data)
    assert ({repr(p) for p in restored.auditor.synopsis.predicates()}
            == {repr(p) for p in wrapped.auditor.synopsis.predicates()})
    restored.close()


def test_insert_event_roundtrip(tmp_path):
    path = str(tmp_path / "wal")
    wrapped, data = open_wal_auditor(
        path, SumClassicAuditor, Dataset([1.0, 2.0], low=0.0, high=10.0))
    wrapped.audit(sum_query([0, 1]))
    wrapped.apply_update(Insert(5.0, {"zip": 1}))
    data.append(5.0)
    wrapped.audit(sum_query([0, 1, 2]))
    wrapped.close()
    restored, restored_data = open_wal_auditor(
        path, SumClassicAuditor, Dataset([1.0, 2.0], low=0.0, high=10.0))
    assert restored_data.n == 3
    assert restored.audit(sum_query([2])).denied
    restored.close()


def test_unknown_event_type_rejected(tmp_path):
    path = str(tmp_path / "wal")
    wal = CheckpointedWal.create(path, Dataset([1.0, 2.0]))
    wal.append({"type": "mystery"})
    wal.close()
    with pytest.raises(JournalError):
        open_wal_auditor(path, SumClassicAuditor, Dataset([1.0, 2.0]))


def test_max_classic_journal_roundtrip_same_future_decisions(tmp_path):
    path = str(tmp_path / "wal")
    rng = np.random.default_rng(8)
    data = Dataset.uniform(10, rng=rng)
    wrapped, _ = open_wal_auditor(path, MaxClassicAuditor, copy_of(data))
    for _ in range(15):
        size = int(rng.integers(1, 11))
        members = [int(i) for i in rng.choice(10, size=size, replace=False)]
        wrapped.audit(max_query(members))
    wrapped.close()
    restored, _ = open_wal_auditor(path, MaxClassicAuditor, data)
    for _ in range(10):
        size = int(rng.integers(1, 11))
        members = [int(i) for i in rng.choice(10, size=size, replace=False)]
        q = max_query(members)
        assert (restored.auditor.audit(q).denied
                == wrapped.auditor.audit(q).denied)
    restored.close()


def test_journal_roundtrip_property():
    """Random sessions: restored auditors make identical future decisions."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def sessions(draw):
        seed = draw(st.integers(min_value=0, max_value=2_000))
        steps = draw(st.integers(min_value=1, max_value=20))
        return seed, steps

    @given(sessions())
    @settings(max_examples=25, deadline=None)
    def run(case):
        seed, steps = case
        rng = np.random.default_rng(seed)
        n = 8
        initial = Dataset.uniform(n, rng=rng, duplicate_free=False)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "wal")
            # Replay equivalence, not durability: skip the fsyncs.
            wrapped, data = open_wal_auditor(path, SumClassicAuditor,
                                             copy_of(initial), fsync=False)
            for _ in range(steps):
                action = rng.integers(4)
                if action == 0:
                    victim = int(rng.integers(n))
                    value = float(rng.uniform())
                    data.set_value(victim, value)
                    wrapped.apply_update(Modify(victim, value))
                else:
                    size = int(rng.integers(1, n + 1))
                    members = [int(i) for i in
                               rng.choice(n, size=size, replace=False)]
                    wrapped.audit(sum_query(members))
            wrapped.close()
            restored, _ = open_wal_auditor(path, SumClassicAuditor,
                                           initial, fsync=False)
            for _ in range(10):
                size = int(rng.integers(1, n + 1))
                members = [int(i) for i in
                           rng.choice(n, size=size, replace=False)]
                q = sum_query(members)
                assert (restored.auditor.audit(q).denied
                        == wrapped.auditor.audit(q).denied)
            restored.close()

    run()
