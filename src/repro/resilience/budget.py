"""Per-query deadlines, resource budgets, and the fail-closed guard.

A probabilistic auditor that hangs or dies mid-decision is a privacy hole:
an operator who restarts it and retries, or a client who infers state from
a timeout, is interacting with an auditor outside its analysed behaviour.
:class:`Budget` bounds every decision — wall time, sampling attempts, MCMC
chain steps — and :func:`run_fail_closed` turns any exhaustion into a
*denial* carrying :attr:`~repro.types.DenialReason.RESOURCE_EXHAUSTED`,
journalled like any other denial so the decision stream stays simulatable
(the denial depends only on public resource limits and the passage of time,
never on the sensitive data).

Determinism contract (asserted by the test suite): with a budget active,
each decision draws exactly **one** seed from the auditor's master stream
and every sampling attempt re-derives a fresh generator from that same
seed.  A transient :class:`~repro.exceptions.SamplingError` therefore
discards the failed attempt's partially-consumed stream and the retry
replays an identical one — a run with injected transient faults produces
bitwise-identical answers to an uninjected run with the same master seed,
while a *persistent* sampler failure exhausts ``max_sampler_attempts`` and
fails closed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..exceptions import (
    PrivacyParameterError,
    ResourceExhaustedError,
    SamplingError,
)
from ..types import AuditDecision, DenialReason
from .faults import fault_site

Clock = Callable[[], float]

#: Seed space for per-decision derived generators.
_SEED_SPAN = 2**63 - 1


@dataclass(frozen=True)
class Budget:
    """Resource limits for one audit decision.

    Parameters
    ----------
    wall_time:
        Deadline in seconds per decision (``None`` = unlimited).
    max_sampler_attempts:
        Bounded retry-and-reseed: how many times a decision's sampling
        phase may be restarted after a :class:`SamplingError` before the
        auditor gives up and denies.
    max_chain_steps:
        Cap on cooperative-cancellation checkpoints (≈ MCMC transitions)
        per decision (``None`` = unlimited).
    clock:
        Monotonic time source; injectable for tests and fault drills
        (defaults to :func:`time.monotonic`).
    """

    wall_time: Optional[float] = None
    max_sampler_attempts: int = 3
    max_chain_steps: Optional[int] = None
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        if self.wall_time is not None and self.wall_time <= 0:
            raise PrivacyParameterError("wall_time must be positive")
        if self.max_sampler_attempts < 1:
            raise PrivacyParameterError(
                "max_sampler_attempts must be at least 1"
            )
        if self.max_chain_steps is not None and self.max_chain_steps < 1:
            raise PrivacyParameterError("max_chain_steps must be positive")

    def start(self) -> "BudgetScope":
        """Open a scope for one decision (starts the deadline clock)."""
        return BudgetScope(self)


class BudgetScope:
    """Live accounting for one decision under a :class:`Budget`.

    Pass :meth:`checkpoint` into the samplers as their cooperative
    cancellation hook; it raises :class:`ResourceExhaustedError` the moment
    the deadline passes or the step cap is hit.
    """

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self._clock: Clock = budget.clock or time.monotonic
        self._t0 = self._clock()
        self.steps = 0

    def elapsed(self) -> float:
        """Seconds since the scope opened."""
        return self._clock() - self._t0

    def checkpoint(self) -> None:
        """Cooperative cancellation point; raises on exhaustion."""
        self.steps += 1
        cap = self.budget.max_chain_steps
        if cap is not None and self.steps > cap:
            raise ResourceExhaustedError(
                f"chain-step budget exhausted ({self.steps} > {cap})"
            )
        deadline = self.budget.wall_time
        if deadline is not None:
            elapsed = self.elapsed()
            if elapsed > deadline:
                raise ResourceExhaustedError(
                    f"deadline exceeded ({elapsed:.3f}s > {deadline}s "
                    f"after {self.steps} steps)"
                )


DecideFn = Callable[[Optional[BudgetScope], np.random.Generator],
                    Optional[AuditDecision]]


def run_fail_closed(budget: Optional[Budget], rng: np.random.Generator,
                    decide: DecideFn) -> Optional[AuditDecision]:
    """Run one sampling-based decision under ``budget``, failing closed.

    ``decide(scope, gen)`` is the auditor's sampling decision body; it
    returns a denial or ``None`` (= answer).  Without a budget the body
    runs once on the auditor's own stream, exactly as before this layer
    existed.  With a budget:

    * every attempt gets a fresh generator derived from one per-decision
      seed (see the module docstring's determinism contract);
    * :class:`SamplingError` triggers a bounded retry with a re-derived
      (identical) generator;
    * :class:`ResourceExhaustedError` — raised by the scope's checkpoints —
      and attempt exhaustion both yield a ``RESOURCE_EXHAUSTED`` denial.

    This guard sits on the auditor decision path, so it must stay
    taint-clean: it touches the query's decision machinery only through
    the opaque ``decide`` callback and never the sensitive dataset.
    """
    if budget is None:
        return decide(None, rng)
    seed = int(rng.integers(_SEED_SPAN))
    attempts = budget.max_sampler_attempts
    last_error: Optional[SamplingError] = None
    scope = budget.start()  # deadline and step cap span all attempts
    for _attempt in range(attempts):
        try:
            fault_site("auditor.attempt")
            return decide(scope, np.random.default_rng(seed))
        except SamplingError as exc:
            last_error = exc
            continue
        except ResourceExhaustedError as exc:
            # audit: LEAK001 -- relays budget diagnostics (step caps,
            # deadlines) built from policy constants, never data values
            return AuditDecision.deny(DenialReason.RESOURCE_EXHAUSTED,
                                      str(exc))
    # audit: LEAK001 -- attempt count and sampler error are policy/operational
    # diagnostics; SamplingError messages carry no data values
    return AuditDecision.deny(
        DenialReason.RESOURCE_EXHAUSTED,
        f"sampling failed after {attempts} attempt(s): {last_error}",
    )
