"""Audit-journal events and their replay.

A production statistical database must survive restarts without forgetting
what it has already disclosed — an auditor that reboots amnesiac is an open
door.  :class:`JournaledAuditor` writes every decision, cache replay,
refusal and update to the write-ahead log (a
:class:`~repro.resilience.checkpoint.CheckpointedWal` directory, opened by
:func:`repro.resilience.wal.open_wal_auditor`) before it is released; the
log's header records the initial sensitive values and range.

Recovery replays the events with :func:`replay_events`: answered queries
are folded back through the auditor's state hooks (no re-decision, so
randomized probabilistic auditors restore deterministically), denials are
re-logged, updates re-applied.  For the deterministic classical auditors a
*verify* mode re-runs every decision and flags any divergence (journal
corruption or version drift).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .exceptions import ReproError
from .resilience.budget import Budget
from .resilience.faults import fault_site
from .sdb.dataset import Dataset
from .sdb.updates import Delete, Insert, Modify
from .types import AggregateKind, AuditDecision, DenialReason, Query


class JournalError(ReproError):
    """The journal is malformed or diverges from the auditor's behaviour."""


def _decision_event(query: Query, decision: AuditDecision) -> Dict[str, Any]:
    """An audited query and its outcome."""
    event: Dict[str, Any] = {
        "type": "query",
        "kind": query.kind.value,
        "members": sorted(query.query_set),
        "denied": decision.denied,
    }
    if decision.answered:
        event["value"] = decision.value
    if decision.denied and decision.reason is not None:
        event["reason"] = decision.reason.value
    return event


def _replay_event(query: Query, decision: AuditDecision) -> Dict[str, Any]:
    """A cache-served re-release of a past decision.

    Replays keep the disclosure log complete without implying any new
    audit state; :func:`replay_events` skips them (the original ``query``
    event already carries the state change).
    """
    event: Dict[str, Any] = {
        "type": "query_replay",
        "kind": query.kind.value,
        "members": sorted(query.query_set),
        "denied": decision.denied,
    }
    if decision.answered:
        event["value"] = decision.value
    return event


def _refusal_event(query: Query, decision: AuditDecision) -> Dict[str, Any]:
    """A fail-closed refusal that never consulted the auditor.

    The audit worker's admission gate and the network edge deny queries
    *before* the audit decision procedure runs; the refusal still goes
    into the disclosure log (denials are observable outputs too), but
    :func:`replay_events` re-logs it without re-auditing — even in verify
    mode, because there is no auditor decision to re-check.
    """
    event: Dict[str, Any] = {
        "type": "denial",
        "kind": query.kind.value,
        "members": sorted(query.query_set),
    }
    if decision.reason is not None:
        event["reason"] = decision.reason.value
    return event


def _update_event(event) -> Dict[str, Any]:
    """An update event in its journalled form."""
    if isinstance(event, Modify):
        return {"type": "modify", "index": event.index,
                "value": event.value}
    if isinstance(event, Insert):
        return {"type": "insert", "value": event.value,
                "public": dict(event.public or {})}
    if isinstance(event, Delete):
        return {"type": "delete", "index": event.index}
    raise JournalError(f"unknown update event {event!r}")  # pragma: no cover


def _journalled_reason(event: Dict[str, Any]) -> DenialReason:
    try:
        return (DenialReason(event["reason"])
                if event.get("reason") else DenialReason.POLICY)
    except ValueError as exc:
        raise JournalError(
            f"unknown denial reason {event.get('reason')!r}"
        ) from exc


def _replay_query(auditor, event: Dict[str, Any], verify: bool) -> None:
    query = Query(AggregateKind(event["kind"]),
                  frozenset(int(i) for i in event["members"]))
    if verify:
        decision = auditor.audit(query)
        if decision.denied != bool(event["denied"]):
            raise JournalError(
                f"replay divergence on {query!r}: journal says "
                f"denied={event['denied']}, auditor says "
                f"denied={decision.denied}"
            )
        if decision.answered and decision.value != event.get("value"):
            raise JournalError(
                f"replay divergence on {query!r}: answer "
                f"{decision.value} != journalled {event.get('value')}"
            )
        return
    if event["denied"]:
        auditor.trail.record(
            query, AuditDecision.deny(_journalled_reason(event), "journalled")
        )
    else:
        value = float(event["value"])
        auditor._record_answer(query, value)
        auditor.trail.record(query, AuditDecision.answer(value))


def replay_events(auditor, dataset: Dataset, events, verify: bool = False) -> int:
    """Fold journal ``events`` into a live ``(auditor, dataset)`` pair.

    The workhorse of WAL recovery: a full replay from the initial dataset,
    or a suffix replay onto a snapshot-restored auditor.  Returns the
    number of events applied.
    """
    applied = 0
    for event in events:
        etype = event.get("type")
        if etype == "query":
            _replay_query(auditor, event, verify)
        elif etype == "query_replay":
            # A cache-served re-release: no audit state to rebuild
            # (the original "query" event already carried it).
            pass
        elif etype == "denial":
            # A fail-closed refusal (admission shed, edge refusal): the
            # auditor was never consulted, so there is nothing to
            # verify — re-log it and move on.
            query = Query(AggregateKind(event["kind"]),
                          frozenset(int(i) for i in event["members"]))
            auditor.trail.record(
                query,
                AuditDecision.deny(_journalled_reason(event), "journalled"),
            )
        elif etype == "modify":
            dataset.set_value(int(event["index"]), float(event["value"]))
            auditor.apply_update(Modify(int(event["index"]),
                                        float(event["value"])))
        elif etype == "insert":
            dataset.append(float(event["value"]))
            auditor.apply_update(Insert(float(event["value"]),
                                        event.get("public") or {}))
        elif etype == "delete":
            auditor.apply_update(Delete(int(event["index"])))
        else:
            raise JournalError(f"unknown journal event type {etype!r}")
        applied += 1
    return applied


class JournaledAuditor:
    """Wraps any auditor, journalling every decision and update to a WAL.

    Drop-in replacement: exposes ``audit`` / ``apply_update`` plus the
    disclosure trail.  Decisions, cache replays, refusals and updates all
    reach the log through one path, :meth:`_journal`, which durably
    appends each event (fsync-per-record) *before* the method returns —
    an answer is never released unless the log already remembers it, so
    no crash can make the auditor forget a disclosure.  Build it with
    :func:`repro.resilience.wal.open_wal_auditor`, which creates or
    recovers the log.
    """

    def __init__(self, auditor, wal) -> None:
        self.auditor = auditor
        self.wal = wal
        #: A budget for one request's decisions (the serving worker sets
        #: it around each request); ``None`` keeps the auditor's own.
        self.request_budget: Optional[Budget] = None

    def audit(self, query: Query) -> AuditDecision:
        """Audit, then persist the decision before releasing it.

        A :attr:`request_budget` holds for the wrapped auditor's decision
        only.  The append and the checkpoint it may take see the
        auditor's standing budget, so no snapshot keeps a request's.
        """
        budget, inner = self.request_budget, self.auditor
        if budget is None:
            decision = inner.audit(query)
        else:
            standing = inner.budget
            inner.budget = budget
            try:
                decision = inner.audit(query)
            finally:
                inner.budget = standing
        self._journal(_decision_event(query, decision))
        return decision

    def record_replay(self, query: Query, decision: AuditDecision) -> None:
        """Durably log a cache-served re-release before it goes out.

        The wrapped auditor is *not* re-run (a replayed bit carries no new
        information and must not mutate audit state), but the log still
        gains a ``query_replay`` event — cache hits never bypass the
        disclosure log.
        """
        self.trail.record(query, decision)
        self._journal(_replay_event(query, decision))

    def record_refusal(self, query: Query, decision: AuditDecision) -> None:
        """Durably log a fail-closed refusal before it goes out.

        Used for admission sheds and edge refusals, denials that never
        consulted the wrapped auditor: the denial is trail-recorded and
        logged like any other decision, but carries a dedicated
        ``denial`` event type so replay never tries to re-audit it.
        """
        self.trail.record(query, decision)
        self._journal(_refusal_event(query, decision))

    def apply_update(self, event) -> None:
        """Apply and durably journal an update."""
        self.auditor.apply_update(event)
        self._journal(_update_event(event))

    def _journal(self, event: Dict[str, Any]) -> None:
        """Log one event: append it, then give the WAL its checkpoint.

        The checkpoint runs *after* the event's own record is durable, so
        a crash at any point inside it leaves a WAL that still replays to
        exactly the same state.
        """
        fault_site("journal.pre-record")
        self.wal.append(event)
        self.wal.maybe_checkpoint(self.auditor)
        fault_site("journal.post-record")

    def close(self) -> None:
        """Close the WAL and its replicas."""
        self.wal.close()

    @property
    def trail(self):
        """The wrapped auditor's trail."""
        return self.auditor.trail

    @property
    def dataset(self):
        """The wrapped auditor's dataset."""
        return self.auditor.dataset
