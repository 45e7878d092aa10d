"""Core value types shared across the library.

A *statistical query* ``q = (Q, f)`` (paper, Section 1) specifies a subset
``Q`` of record indices and an aggregate function ``f``.  The auditor's
verdict on a query is an :class:`AuditDecision` — either an answer or a
denial, optionally annotated with the reason for the denial.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, Optional, Tuple

from .exceptions import InvalidQueryError


class AggregateKind(enum.Enum):
    """Aggregate functions the statistical database understands."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    AVG = "avg"
    COUNT = "count"
    MEDIAN = "median"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Query:
    """A statistical query ``(Q, f)`` over record indices.

    Parameters
    ----------
    kind:
        The aggregate function ``f``.
    query_set:
        The subset ``Q`` of record indices the aggregate ranges over.
    """

    kind: AggregateKind
    query_set: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.query_set:
            raise InvalidQueryError("query set must be non-empty")
        if any(i < 0 for i in self.query_set):
            raise InvalidQueryError("record indices must be non-negative")

    @property
    def size(self) -> int:
        """Number of records the query ranges over."""
        return len(self.query_set)

    def sorted_indices(self) -> Tuple[int, ...]:
        """Record indices in ascending order (deterministic iteration)."""
        return tuple(sorted(self.query_set))

    def __repr__(self) -> str:
        ids = ",".join(str(i) for i in self.sorted_indices())
        return f"{self.kind.value}({{{ids}}})"


def sum_query(indices) -> Query:
    """Convenience constructor for a sum query over ``indices``."""
    return Query(AggregateKind.SUM, frozenset(indices))


def max_query(indices) -> Query:
    """Convenience constructor for a max query over ``indices``."""
    return Query(AggregateKind.MAX, frozenset(indices))


def min_query(indices) -> Query:
    """Convenience constructor for a min query over ``indices``."""
    return Query(AggregateKind.MIN, frozenset(indices))


class DenialReason(enum.Enum):
    """Why an auditor denied a query."""

    FULL_DISCLOSURE = "full-disclosure"
    PARTIAL_DISCLOSURE = "partial-disclosure"
    STRUCTURAL = "structural"  # e.g. Lemma 2 precondition enforcement
    UNSUPPORTED = "unsupported"
    POLICY = "policy"  # e.g. deny-all baseline
    # The auditor could not finish deciding within its resource budget
    # (deadline, sampler attempts, chain steps).  Failing closed: an
    # undecided query is denied, never answered.
    RESOURCE_EXHAUSTED = "resource-exhausted"


#: The detail of every sampled ``PARTIAL_DISCLOSURE`` denial.  Constant on
#: purpose: a breach count would be one more output channel, and an
#: auditor that stops at the first breach has no full count to report.
SAMPLED_BREACH_DETAIL = (
    "sampled answers breach the lambda band more often than delta/2T allows"
)


@dataclass(frozen=True)
class AuditDecision:
    """The auditor's verdict on one query: an answer or a denial."""

    denied: bool
    value: Optional[float] = None
    reason: Optional[DenialReason] = None
    detail: str = ""

    @staticmethod
    def answer(value: float) -> "AuditDecision":
        """An *answered* decision carrying the true aggregate value."""
        return AuditDecision(denied=False, value=float(value))

    @staticmethod
    def deny(reason: DenialReason, detail: str = "") -> "AuditDecision":
        """A *denied* decision with a reason code."""
        return AuditDecision(denied=True, reason=reason, detail=detail)

    @property
    def answered(self) -> bool:
        """True when the query was answered."""
        return not self.denied

    def __repr__(self) -> str:
        if self.denied:
            tag = self.reason.value if self.reason else "denied"
            return f"Denied({tag})"
        return f"Answered({self.value})"


@dataclass
class AuditEvent:
    """One entry of an audit trail: the query and the decision taken."""

    query: Query
    decision: AuditDecision
    step: int = 0


class AuditTrail:
    """Ordered log of all queries posed to an auditor and their outcomes.

    The trail is *reporting* state only — no auditor bases decisions on it —
    so a long-running deployment may bound its memory with ``limit``: the
    event buffer becomes a ring holding the most recent ``limit`` events.
    Aggregate counts (:meth:`__len__`, :meth:`denial_count`,
    :meth:`summary`) are maintained cumulatively and stay exact no matter
    how many events the ring has dropped.  Auditor *decision* state
    (row spaces, synopses) lives elsewhere and is never truncated —
    forgetting what was disclosed would be a privacy hole, not a memory
    optimisation.
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 1:
            raise ValueError("history limit must be a positive integer")
        self._limit = limit
        self.events: Deque[AuditEvent] = deque(maxlen=limit)
        self._total = 0
        self._answered = 0
        self._denied = 0
        self._denied_by_reason: dict = {}

    @property
    def limit(self) -> Optional[int]:
        """Ring-buffer capacity of the event buffer (``None`` = unbounded)."""
        return self._limit

    @limit.setter
    def limit(self, limit: Optional[int]) -> None:
        if limit is not None and limit < 1:
            raise ValueError("history limit must be a positive integer")
        self._limit = limit
        self.events = deque(self.events, maxlen=limit)

    def record(self, query: Query, decision: AuditDecision) -> AuditEvent:
        """Append an event and return it."""
        event = AuditEvent(query=query, decision=decision, step=self._total)
        self.events.append(event)
        self._total += 1
        if decision.denied:
            self._denied += 1
            key = decision.reason.value if decision.reason else "unspecified"
            self._denied_by_reason[key] = (
                self._denied_by_reason.get(key, 0) + 1
            )
        else:
            self._answered += 1
        return event

    @property
    def answered_events(self):
        """Buffered events whose query was answered."""
        return [e for e in self.events if e.decision.answered]

    @property
    def denied_events(self):
        """Buffered events whose query was denied."""
        return [e for e in self.events if e.decision.denied]

    def denial_count(self) -> int:
        """Number of denials so far (cumulative, limit-independent)."""
        return self._denied

    def summary(self) -> dict:
        """Counts by outcome and denial reason (for dashboards/logs)."""
        return {
            "queries": self._total,
            "answered": self._answered,
            "denied": self._denied,
            "denied_by_reason": dict(self._denied_by_reason),
        }

    def __len__(self) -> int:
        return self._total

    def __iter__(self):
        return iter(self.events)
