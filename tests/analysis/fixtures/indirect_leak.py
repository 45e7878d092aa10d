"""Fixture: an auditor leaking the true answer through a two-hop helper chain.

Never imported at runtime — the analyzer tests feed this file to
``analyze_package(extra_modules=...)`` to prove that *indirect* sensitive
reads (decision path -> helper -> helper -> ``dataset.values``) are caught.
The second hop is deliberately un-annotated so the test also exercises
argument-type propagation across calls.
"""

from typing import Optional

from repro.auditors.base import Auditor
from repro.sdb.dataset import Dataset
from repro.types import AggregateKind, AuditDecision, DenialReason, Query


def _peek_values(dataset, members):  # un-annotated: type flows from caller
    return max(dataset.values[i] for i in members)


def _hypothetical_answer(dataset: Dataset, query: Query) -> float:
    return _peek_values(dataset, sorted(query.query_set))


class IndirectLeakAuditor(Auditor):
    """Denies when the (peeked!) true answer looks dangerous — not simulatable."""

    supported_kinds = frozenset({AggregateKind.MAX})

    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        if _hypothetical_answer(self.dataset, query) > 0.9:
            return AuditDecision.deny(DenialReason.FULL_DISCLOSURE,
                                      "the true answer is extreme")
        return None
