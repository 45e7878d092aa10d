"""Abstract base class shared by all auditors.

The control flow enforces simulatability structurally: subclasses implement
:meth:`Auditor._deny_reason`, which receives the query and the *past*
queries/answers (via internal state) but **not** the true answer to the
current query.  Only after the decision to answer is made does the base class
evaluate the aggregate on the real data.
"""

from __future__ import annotations

import abc
import logging
from typing import FrozenSet, Optional

from ..exceptions import UnsupportedQueryError, UnsupportedUpdateError
from ..sdb.aggregates import true_answer
from ..sdb.dataset import Dataset
from ..sdb.updates import UpdateEvent
from ..types import AggregateKind, AuditDecision, AuditTrail, Query

logger = logging.getLogger("repro.audit")


class Auditor(abc.ABC):
    """Online simulatable auditor over a live dataset."""

    #: Aggregate kinds this auditor knows how to protect.
    supported_kinds: FrozenSet[AggregateKind] = frozenset()

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.trail = AuditTrail()

    # ------------------------------------------------------------------
    # Template method
    # ------------------------------------------------------------------

    def audit(self, query: Query) -> AuditDecision:
        """Decide on ``query``: deny, or answer with the true aggregate.

        The denial decision is taken by :meth:`_deny_reason` *without access
        to the current true answer* (simulatability).  Answered queries are
        fed back through :meth:`_record_answer` so subclasses can update
        their audit state (row space, synopsis, ...).
        """
        if query.kind not in self.supported_kinds:
            raise UnsupportedQueryError(
                f"{type(self).__name__} does not audit {query.kind.value} queries"
            )
        denial = self._deny_reason(query)
        if denial is not None:
            self.trail.record(query, denial)
            logger.debug("%s DENIED %r (%s: %s)", type(self).__name__,
                         query, denial.reason and denial.reason.value,
                         denial.detail)
            return denial
        value = true_answer(query, self.dataset)
        decision = AuditDecision.answer(value)
        self._record_answer(query, value)
        self.trail.record(query, decision)
        logger.debug("%s answered %r", type(self).__name__, query)
        return decision

    def would_answer(self, query: Query) -> bool:
        """Whether :meth:`audit` would answer ``query`` right now.

        Side-effect free: nothing is recorded and no answer is computed.
        Because decisions are simulatable, exposing this probe gives the
        client nothing it could not compute itself — but saves it from
        burning a denial to find out.
        """
        if query.kind not in self.supported_kinds:
            raise UnsupportedQueryError(
                f"{type(self).__name__} does not audit {query.kind.value} queries"
            )
        return self._deny_reason(query) is None

    def record_replay(self, query: Query, decision: AuditDecision) -> None:
        """Log a cache-served re-release of a past decision on the trail.

        Nothing is re-decided: a replayed bit carries no new information
        and must not touch audit state.  A journalled auditor
        (:class:`~repro.persistence.JournaledAuditor`) also logs it.
        """
        self.trail.record(query, decision)

    def record_refusal(self, query: Query, decision: AuditDecision) -> None:
        """Log a fail-closed refusal that never consulted this auditor.

        Admission sheds and expired deadlines deny before the decision
        procedure runs; the denial is still an output, so it goes on the
        trail.  A journalled auditor also logs it.
        """
        self.trail.record(query, decision)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        """Return a denial decision, or None to allow the query.

        Must not read the current true answer (only past answers and the
        query itself), so the attacker could simulate the decision.
        """

    def _record_answer(self, query: Query, value: float) -> None:
        """Update audit state after an answered query (default: no-op)."""

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply_update(self, event: UpdateEvent) -> None:
        """Incorporate a database update into the audit state.

        Static auditors reject updates; update-aware subclasses override.
        """
        raise UnsupportedUpdateError(
            f"{type(self).__name__} does not support database updates"
        )
