"""Fixture: the sensitive dataset escaping into a call nobody can follow.

Injected as ``repro._fixture_sim_escape``.  Never imported at runtime.
Both auditors score a query with a caller-supplied function held in an
untyped attribute, so the analyzer cannot resolve the callee:

* ``OpaqueScoringAuditor`` hands it ``self.dataset`` — the scorer may
  read any sensitive value, so the decision is not provably simulatable
  (SIM003);
* ``EnvelopeScoringAuditor`` is its twin that hands over only the public
  size ``self.dataset.n`` and must stay silent.
"""

from typing import Optional

from repro.auditors.base import Auditor
from repro.types import AggregateKind, AuditDecision, DenialReason, Query


class OpaqueScoringAuditor(Auditor):
    """Lets an opaque scorer see the whole dataset (SIM003)."""

    supported_kinds = frozenset({AggregateKind.SUM})

    def __init__(self, dataset, scorer) -> None:
        super().__init__(dataset)
        self.scorer = scorer

    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        if self.scorer(self.dataset, sorted(query.query_set)) > 0.5:
            return AuditDecision.deny(DenialReason.POLICY, "scored risky")
        return None


class EnvelopeScoringAuditor(Auditor):
    """Clean twin: the scorer sees the public envelope only."""

    supported_kinds = frozenset({AggregateKind.SUM})

    def __init__(self, dataset, scorer) -> None:
        super().__init__(dataset)
        self.scorer = scorer

    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        if self.scorer(self.dataset.n, sorted(query.query_set)) > 0.5:
            return AuditDecision.deny(DenialReason.POLICY, "scored risky")
        return None
