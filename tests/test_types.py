"""Unit tests for the core value types."""

import pickle

import pytest

from repro.exceptions import InvalidQueryError
from repro.types import (
    AggregateKind,
    AuditDecision,
    AuditTrail,
    DenialReason,
    Query,
    max_query,
    min_query,
    sum_query,
)


def test_query_constructors():
    q = sum_query([2, 0, 1])
    assert q.kind is AggregateKind.SUM
    assert q.sorted_indices() == (0, 1, 2)
    assert q.size == 3
    assert max_query([1]).kind is AggregateKind.MAX
    assert min_query([1]).kind is AggregateKind.MIN


def test_query_validation():
    with pytest.raises(InvalidQueryError):
        Query(AggregateKind.SUM, frozenset())
    with pytest.raises(InvalidQueryError):
        Query(AggregateKind.SUM, frozenset({-1}))


def test_query_repr_is_deterministic():
    assert repr(sum_query([3, 1])) == "sum({1,3})"


def test_query_hashable_and_equal():
    assert sum_query([1, 2]) == sum_query([2, 1])
    assert len({sum_query([1, 2]), sum_query([2, 1])}) == 1


def test_decision_factories():
    ans = AuditDecision.answer(4.2)
    assert ans.answered and not ans.denied
    assert ans.value == 4.2
    den = AuditDecision.deny(DenialReason.FULL_DISCLOSURE, "x")
    assert den.denied and den.value is None
    assert "full-disclosure" in repr(den)
    assert "4.2" in repr(ans)


def test_trail_bookkeeping():
    trail = AuditTrail()
    trail.record(sum_query([0]), AuditDecision.deny(DenialReason.POLICY))
    trail.record(sum_query([0, 1]), AuditDecision.answer(1.0))
    assert len(trail) == 2
    assert trail.denial_count() == 1


def test_trail_summary():
    trail = AuditTrail()
    trail.record(sum_query([0]), AuditDecision.deny(DenialReason.POLICY))
    trail.record(sum_query([0]),
                 AuditDecision.deny(DenialReason.FULL_DISCLOSURE))
    trail.record(sum_query([0, 1]), AuditDecision.answer(1.0))
    summary = trail.summary()
    assert summary == {
        "queries": 3,
        "answered": 1,
        "denied": 2,
        "denied_by_reason": {"policy": 1, "full-disclosure": 1},
    }


def test_audit_logging_emits_debug_records(caplog):
    import logging
    from repro.auditors.sum_classic import SumClassicAuditor
    from repro.sdb.dataset import Dataset

    auditor = SumClassicAuditor(Dataset([1.0, 2.0]))
    with caplog.at_level(logging.DEBUG, logger="repro.audit"):
        auditor.audit(sum_query([0, 1]))
        auditor.audit(sum_query([0]))
    messages = [r.message for r in caplog.records]
    assert any("answered" in m for m in messages)
    assert any("DENIED" in m for m in messages)


def test_trail_keeps_exact_counters_and_no_decisions():
    trail = AuditTrail()
    queries = [sum_query([0, 1, 2]), sum_query([0, 1]), sum_query([2])]
    trail.record(queries[0], AuditDecision.answer(6.0))
    trail.record(queries[1], AuditDecision.deny(DenialReason.FULL_DISCLOSURE,
                                                "x"))
    trail.record(queries[2], AuditDecision.deny(DenialReason.POLICY, "y"))
    assert len(trail) == 3
    assert trail.denial_count() == 2
    assert trail.summary() == {
        "queries": 3,
        "answered": 1,
        "denied": 2,
        "denied_by_reason": {"full-disclosure": 1, "policy": 1},
    }
    # The write-ahead log is the decision history; the trail holds counts.
    assert sorted(vars(trail)) == ["_answered", "_denied",
                                   "_denied_by_reason", "_total"]
    assert pickle.loads(pickle.dumps(trail)).summary() == trail.summary()

