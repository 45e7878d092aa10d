"""Collusion: pooled auditing blocks what independent auditing leaks (§7)."""

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.exceptions import InvalidQueryError
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.sdb.multiuser import MultiUserFrontend
from repro.types import sum_query


def make(mode):
    data = Dataset([10.0, 20.0, 30.0], low=0.0, high=50.0)
    return MultiUserFrontend(data, lambda ds: SumClassicAuditor(ds),
                             mode=mode)


def test_independent_mode_enables_collusion():
    frontend = make("independent")
    alice = frontend.ask("alice", sum_query([0, 1, 2]))
    bob = frontend.ask("bob", sum_query([0, 1]))
    assert alice.answered and bob.answered
    # Colluding, Alice and Bob compute x_2 exactly.
    assert alice.value - bob.value == pytest.approx(30.0)


def test_pooled_mode_blocks_the_collusion():
    frontend = make("pooled")
    assert frontend.ask("alice", sum_query([0, 1, 2])).answered
    assert frontend.ask("bob", sum_query([0, 1])).denied


def test_pooled_mode_shares_denials_across_users():
    frontend = make("pooled")
    frontend.ask("alice", sum_query([0, 1, 2]))
    frontend.ask("bob", sum_query([0, 1]))       # denied
    frontend.ask("bob", sum_query([2]))          # denied
    counts = frontend.denial_counts()
    assert counts == {"alice": 0, "bob": 2}
    assert frontend.users() == ["alice", "bob"]


def test_unknown_mode_rejected():
    data = Dataset([1.0, 2.0])
    with pytest.raises(InvalidQueryError):
        MultiUserFrontend(data, lambda ds: SumClassicAuditor(ds),
                          mode="hybrid")


def test_pooled_frontend_recovers_from_wal(tmp_path):
    path = str(tmp_path / "wal")

    def build():
        data = Dataset([10.0, 20.0, 30.0], low=0.0, high=50.0)
        wrapped, live = open_wal_auditor(path, SumClassicAuditor, data,
                                         verify=True)
        return MultiUserFrontend(live, lambda _ds: wrapped), wrapped

    frontend, wrapped = build()
    assert frontend.ask("alice", sum_query([0, 1, 2])).answered
    wrapped.close()
    revived, wrapped = build()
    # Alice's answer survives the restart, so Bob's completing query is
    # denied even though this process never served Alice.
    assert revived.ask("bob", sum_query([0, 1])).denied
    wrapped.close()
