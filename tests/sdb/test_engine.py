"""Integration tests for the StatisticalDatabase engine."""

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.exceptions import InvalidQueryError
from repro.sdb.dataset import Dataset
from repro.resilience.wal import open_wal_auditor
from repro.sdb.engine import StatisticalDatabase, split_records
from repro.sdb.predicates import All, Eq, Range
from repro.sdb.table import Table
from repro.sdb.updates import Delete, Insert, Modify
from repro.types import AggregateKind


def make_db():
    records = [
        {"zip": 94305, "salary": 100.0},
        {"zip": 94305, "salary": 120.0},
        {"zip": 94306, "salary": 90.0},
        {"zip": 94306, "salary": 110.0},
    ]
    return StatisticalDatabase.from_records(
        records, sensitive_column="salary",
        auditor_factory=lambda ds: SumClassicAuditor(ds),
    )


def test_from_records_splits_sensitive_column():
    db = make_db()
    assert db.dataset.values == [100.0, 120.0, 90.0, 110.0]
    assert "salary" not in db.table.columns
    assert "zip" in db.table.columns


def test_query_via_predicate_answers_sum():
    db = make_db()
    decision = db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert decision.answered
    assert decision.value == pytest.approx(220.0)


def test_repeated_then_differencing_query_denied():
    db = make_db()
    assert db.query(All(), AggregateKind.SUM).answered
    # All records minus one zip leaves the other zip derivable but that is a
    # group, not an individual -- still answerable.
    assert db.query(Eq("zip", 94305), AggregateKind.SUM).answered
    # But now a query isolating a single record's complement is dangerous:
    denied = db.query_indices([0], AggregateKind.SUM)
    assert denied.denied


def test_updates_flow_through_engine():
    db = make_db()
    assert db.query(All(), AggregateKind.SUM).answered
    db.apply(Modify(0, 130.0))
    assert db.dataset[0] == 130.0
    db.apply(Insert(80.0, {"zip": 94307}))
    assert db.table.n == 5
    db.apply(Delete(1))
    assert 1 not in db.table.live_indices()
    # Remaining records still queryable.
    assert db.query(All(), AggregateKind.SUM).answered is not None


def test_empty_predicate_selection_rejected():
    db = make_db()
    with pytest.raises(InvalidQueryError):
        db.query(Eq("zip", 11111), AggregateKind.SUM)


def test_size_mismatch_rejected():
    table = Table(["a"])
    table.insert({"a": 1})
    with pytest.raises(InvalidQueryError):
        StatisticalDatabase(table, Dataset([1.0, 2.0]), auditor=None)


def test_engine_routes_updates_to_maxmin_auditor():
    from repro.auditors.maxmin_classic import MaxMinClassicAuditor

    records = [
        {"zip": 1, "salary": 10.0},
        {"zip": 1, "salary": 20.0},
        {"zip": 2, "salary": 90.0},
        {"zip": 2, "salary": 30.0},
    ]
    db = StatisticalDatabase.from_records(
        records, sensitive_column="salary",
        auditor_factory=lambda ds: MaxMinClassicAuditor(ds),
    )
    assert db.query(Eq("zip", 1), AggregateKind.MAX).answered
    # min{1,2} overlaps the answered max set in exactly one element: the
    # equal-answer candidate would pin record 1 -> denied.
    assert db.query_indices([1, 2], AggregateKind.MIN).denied
    db.apply(Modify(1, 55.0))
    decision = db.query_indices([1, 2], AggregateKind.MIN)
    assert decision.answered
    assert decision.value == 55.0


def test_degenerate_envelope_widening_warns():
    records = [{"zip": 1, "salary": 50.0}, {"zip": 2, "salary": 50.0}]
    with pytest.warns(UserWarning, match="degenerate sensitive-value "
                                         "envelope"):
        db = StatisticalDatabase.from_records(
            records, sensitive_column="salary",
            auditor_factory=lambda ds: SumClassicAuditor(ds),
        )
    # The widened envelope still takes effect, as before.
    assert db.dataset.low == 49.0 and db.dataset.high == 51.0


def test_explicit_envelope_does_not_warn(recwarn):
    records = [{"zip": 1, "salary": 50.0}, {"zip": 2, "salary": 50.0}]
    StatisticalDatabase.from_records(
        records, sensitive_column="salary",
        auditor_factory=lambda ds: SumClassicAuditor(ds),
        low=0.0, high=100.0,
    )
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_from_records_with_wal_recovers_history(tmp_path):
    path = str(tmp_path / "wal")
    records = [
        {"zip": 1, "salary": 10.0},
        {"zip": 1, "salary": 20.0},
        {"zip": 2, "salary": 30.0},
    ]

    def build():
        table, dataset = split_records(records, "salary",
                                       low=0.0, high=100.0)
        wrapped, live = open_wal_auditor(path, SumClassicAuditor, dataset,
                                         verify=True)
        return StatisticalDatabase(table, live, wrapped)

    db = build()
    assert db.query(All(), AggregateKind.SUM).answered
    db.auditor.close()
    db2 = build()
    # The total is remembered across the restart: the subset query that
    # would complete a disclosure is still denied.
    assert db2.query(Eq("zip", 1), AggregateKind.SUM).denied
    db2.auditor.close()
