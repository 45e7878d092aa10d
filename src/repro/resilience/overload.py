"""Overload-safe serving: per-user admission control.

The fail-closed story of :mod:`repro.resilience.budget` bounds *one*
decision; this module bounds the *load*.  An auditing frontend that accepts
unbounded queries is a denial-of-service surface (see
``attack/dos_attack.py``): an attacker who floods it with expensive
probabilistic audits starves everyone else, and an operator who "fixes"
that with an unbounded queue merely converts the outage into unbounded
latency.  The gate here sheds load instead of queueing it, and every shed
query is a first-class **journalled denial** — admission decisions are
observable outputs, so they go through the same disclosure log as audit
decisions (see :meth:`repro.persistence.JournaledAuditor.record_refusal`),
and they depend only on public state (arrival times and public policy
constants), never on the sensitive data, so simulatability is preserved.

:class:`AdmissionController` keeps per-user token buckets (sustained rate
+ burst).  The audit worker (:class:`~repro.serving.shards.ShardWorker`)
applies it *before* the auditor runs; over-limit queries are denied with
:attr:`~repro.types.DenialReason.RESOURCE_EXHAUSTED`, never queued.  The
gate is deliberately *deny*-biased: the degraded mode of an auditor must
never be "answer without auditing".
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..exceptions import PrivacyParameterError
from ..types import AuditDecision, DenialReason

Clock = Callable[[], float]


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Starts full (a fresh user gets their burst immediately).  The clock is
    injectable so admission behaviour is deterministic under test — pass a
    :class:`~repro.resilience.faults.FaultClock`'s ``now``.

    Thread-safe on its own: refill + take is one read-modify-write, so it
    carries an internal lock rather than relying on every caller to
    serialize (the :class:`AdmissionController` does, but a bucket handed
    to other gating code must not silently lose tokens).
    """

    def __init__(self, rate: float, burst: int,
                 clock: Optional[Clock] = None) -> None:
        if rate <= 0:
            raise PrivacyParameterError("rate must be positive")
        if burst < 1:
            raise PrivacyParameterError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock: Clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._stamp = self._clock()

    def _refill_locked(self, now: float) -> None:
        self._tokens = min(self.burst,
                           self._tokens + max(0.0, now - self._stamp)
                           * self.rate)
        self._stamp = now

    def try_take(self) -> bool:
        """Take one token if available; never blocks."""
        now = self._clock()
        with self._lock:
            self._refill_locked(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def tokens(self) -> float:
        """Current token count (after refill), for introspection."""
        now = self._clock()
        with self._lock:
            self._refill_locked(now)
            return self._tokens


@dataclass(frozen=True)
class AdmissionPolicy:
    """Limits the :class:`AdmissionController` enforces.

    Parameters
    ----------
    user_rate:
        Sustained queries/second allowed per user (``None`` disables the
        rate gate).
    user_burst:
        Bucket capacity: how many queries a user may issue back-to-back
        before the sustained rate applies.
    clock:
        Injectable monotonic time source for the buckets.
    """

    user_rate: Optional[float] = None
    user_burst: int = 10
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        if self.user_rate is not None and self.user_rate <= 0:
            raise PrivacyParameterError("user_rate must be positive")
        if self.user_burst < 1:
            raise PrivacyParameterError("user_burst must be at least 1")


class AdmissionController:
    """Fail-closed load shedding in front of the auditor.

    ``try_admit(user)`` either admits (returns ``None``) or returns a
    ready-made ``RESOURCE_EXHAUSTED`` denial for the worker to journal
    and return.  Thread-safe: one lock guards the bucket table and the
    shed counter.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._shed_rate = 0

    def try_admit(self, user: str) -> Optional[AuditDecision]:
        """Admit (``None``) or deny (a journallable decision), atomically."""
        policy = self.policy
        if policy.user_rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(user)
            if bucket is None:
                bucket = TokenBucket(policy.user_rate, policy.user_burst,
                                     clock=policy.clock)
                self._buckets[user] = bucket
            if bucket.try_take():
                return None
            self._shed_rate += 1
        # audit: LEAK001 -- rate and burst are public policy constants
        # from AdmissionPolicy
        return AuditDecision.deny(
            DenialReason.RESOURCE_EXHAUSTED,
            f"per-user rate limit exceeded ({policy.user_rate:g}/s "
            f"sustained, burst {policy.user_burst}); retry later",
        )

    def shed_counts(self) -> Dict[str, int]:
        """How many queries the gate has shed (cumulative)."""
        with self._lock:
            return {"rate": self._shed_rate}
