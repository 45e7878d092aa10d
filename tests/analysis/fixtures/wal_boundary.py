"""Fixture: WAL rule true positives and a fail-closed twin.

Injected as ``repro._fixture_wal_boundary``.  Every class holds the
journal itself (boundary classes), so their release methods carry the
append-before-release obligation.  Never imported at runtime.
"""

from repro.resilience.checkpoint import CheckpointedWal
from repro.types import AuditDecision, Query


class LeakyJournaledAuditor:
    """Releases the cheap path without journalling it (WAL001)."""

    def __init__(self, inner, journal: CheckpointedWal) -> None:
        self.inner = inner
        self.journal = journal

    def audit(self, query: Query, decision: AuditDecision):
        if not query.query_set:
            return decision  # WAL001: no dominating append
        self.journal.record_decision(query, decision)
        return decision


class SwallowingJournaledAuditor:
    """Swallows the journal-write failure but still answers (WAL002)."""

    def __init__(self, inner, journal: CheckpointedWal) -> None:
        self.inner = inner
        self.journal = journal

    def audit(self, query: Query, decision: AuditDecision):
        try:
            self.journal.record_decision(query, decision)
        except OSError:
            pass  # WAL002: failure swallowed, answer still released
        return decision


class StrictJournaledAuditor:
    """Fail-closed twin: zero findings expected."""

    def __init__(self, inner, journal: CheckpointedWal) -> None:
        self.inner = inner
        self.journal = journal

    def audit(self, query: Query, decision: AuditDecision):
        try:
            self.journal.record_decision(query, decision)
        except OSError:
            raise
        return decision
