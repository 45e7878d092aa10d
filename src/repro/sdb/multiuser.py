"""Multi-user serving and the collusion problem (paper §§5, 7).

"All users would have to be considered as one in order to prevent collusion
attacks … the queries of all the users would have to be pooled together and
this may result in a user receiving more than his fair share of denials."

:class:`MultiUserFrontend` serves named users in either mode:

* ``"pooled"`` (safe, the paper's assumption) — a single auditor sees the
  union of everyone's queries;
* ``"independent"`` (insecure, for demonstration) — one auditor per user,
  so colluders can stitch their individually-safe answers together.

The collusion demo in ``tests/sdb/test_multiuser.py`` shows two users
extracting an exact value in independent mode while pooled mode denies the
completing query.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List

from ..exceptions import InvalidQueryError
from ..types import AuditDecision, Query
from .dataset import Dataset

AuditorFactory = Callable[[Dataset], object]


class MultiUserFrontend:
    """Routes per-user queries to pooled or per-user auditors.

    Parameters
    ----------
    dataset:
        The shared sensitive dataset.
    auditor_factory:
        Called with ``dataset`` to build each auditor.
    mode:
        ``"pooled"`` or ``"independent"`` (see module docstring).

    Admission control is the audit worker's job
    (:class:`~repro.serving.shards.ShardWorker`), which hands its sheds
    to :meth:`refuse`.  To serve over a durable audit log, open it with
    :func:`repro.resilience.wal.open_wal_auditor` and build a pooled
    frontend over the live dataset it returns, with a factory that
    returns its journalled auditor.  A log records one auditor's
    decision stream, so only pooled mode can have one.
    """

    MODES = ("pooled", "independent")

    def __init__(self, dataset: Dataset, auditor_factory: AuditorFactory,
                 mode: str = "pooled"):
        if mode not in self.MODES:
            raise InvalidQueryError(f"mode must be one of {self.MODES}")
        self.dataset = dataset
        self.mode = mode
        self._factory = auditor_factory
        self._pooled = auditor_factory(dataset) if mode == "pooled" else None
        self._per_user: Dict[str, object] = {}
        # Serializes auditor runs and bookkeeping: auditors mutate
        # posterior state per decision.
        self._lock = threading.RLock()
        # Exact cumulative counters: the auditor's own state keeps every
        # past answer, so the frontend keeps only counts.
        self._denials: Dict[str, int] = {}
        self._users: List[str] = []

    def _auditor_for(self, user: str):
        if self.mode == "pooled":
            return self._pooled
        with self._lock:
            if user not in self._per_user:
                self._per_user[user] = self._factory(self.dataset)
            return self._per_user[user]

    def ask(self, user: str, query: Query) -> AuditDecision:
        """Audit ``query`` on behalf of ``user``."""
        with self._lock:
            decision = self._auditor_for(user).audit(query)
            return self._bookkeep(user, decision)

    def refuse(self, user: str, query: Query,
               decision: AuditDecision) -> AuditDecision:
        """Journal and bookkeep a fail-closed refusal, without auditing.

        The public entry point for every deny-before-audit path — the
        audit worker's admission sheds and the network edge's
        expired-deadline and backpressure refusals.  The refusal is
        recorded through the auditor's disclosure trail (durably, when
        the auditor carries a WAL) and counted in the per-user
        bookkeeping: a refused query is never a silent drop, and never
        an unaudited answer.
        """
        with self._lock:
            self._auditor_for(user).record_refusal(query, decision)
            return self._bookkeep(user, decision)

    def _bookkeep(self, user: str, decision: AuditDecision) -> AuditDecision:
        with self._lock:
            if user not in self._denials:
                self._denials[user] = 0
                self._users.append(user)
            self._denials[user] += int(decision.denied)
            return decision

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def denial_counts(self) -> Dict[str, int]:
        """Denials per user (the "fair share" the paper worries about),
        cumulative over the frontend's lifetime."""
        return dict(self._denials)

    def users(self) -> List[str]:
        """Users seen so far (cumulative, in first-seen order)."""
        return list(self._users)
