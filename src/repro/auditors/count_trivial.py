"""Count queries are free: the answer is a function of public data only.

In the paper's model a query set is specified by predicates over *public*
attributes, so ``count(Q) = |Q|`` reveals nothing about the sensitive
values; a correct auditor answers every count query.  This auditor makes
that semantic explicit (and composes with the others through the
multi-auditor dispatch below).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import UnsupportedQueryError
from ..sdb.dataset import Dataset
from ..types import AggregateKind, AuditDecision, Query
from .base import Auditor


class CountAuditor(Auditor):
    """Answers every count query — counts disclose only public structure."""

    supported_kinds = frozenset({AggregateKind.COUNT})

    def __init__(self, dataset: Dataset):
        super().__init__(dataset)

    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        return None

    def apply_update(self, event) -> None:
        """Counts carry no sensitive state; updates are no-ops here."""


class DispatchingAuditor:
    """Routes each query to a per-aggregate auditor (one shared trail each).

    A real SDB serves several aggregate kinds at once; this front-end keeps
    one auditor per kind so, e.g., sums flow through the row-space auditor
    while counts are free::

        auditor = DispatchingAuditor({
            AggregateKind.SUM: SumClassicAuditor(dataset),
            AggregateKind.COUNT: CountAuditor(dataset),
        })

    Note the privacy caveat: the *combination* of different aggregate kinds
    over the same data can disclose more than each kind alone (the paper
    cites sum-and-max offline auditing as NP-hard), so dispatching is only
    sound for combinations whose interactions are harmless — counts with
    anything, or kinds over disjoint sensitive attributes.  The class
    documents rather than hides that assumption.
    """

    def __init__(self, auditors: Dict[AggregateKind, Auditor]):
        if not auditors:
            raise UnsupportedQueryError("need at least one auditor")
        self._auditors = dict(auditors)

    def audit(self, query: Query) -> AuditDecision:
        """Route to the auditor registered for the query's kind."""
        return self._responsible(query).audit(query)

    def would_answer(self, query: Query) -> bool:
        """Side-effect-free probe on the responsible auditor."""
        return self._responsible(query).would_answer(query)

    def record_replay(self, query: Query, decision: AuditDecision) -> None:
        """Log a cache-served re-release on the responsible auditor."""
        self._responsible(query).record_replay(query, decision)

    def record_refusal(self, query: Query, decision: AuditDecision) -> None:
        """Log a fail-closed refusal on the responsible auditor."""
        self._responsible(query).record_refusal(query, decision)

    def _responsible(self, query: Query) -> Auditor:
        auditor = self._auditors.get(query.kind)
        if auditor is None:
            raise UnsupportedQueryError(
                f"no auditor registered for {query.kind.value} queries"
            )
        return auditor

    def apply_update(self, event) -> None:
        """Broadcast updates to every registered auditor."""
        for auditor in self._auditors.values():
            auditor.apply_update(event)

    @property
    def auditors(self) -> Dict[AggregateKind, Auditor]:
        """The registered per-kind auditors."""
        return dict(self._auditors)
