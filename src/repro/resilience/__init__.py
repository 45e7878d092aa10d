"""Fail-closed serving infrastructure (robustness layer).

An online auditor is only private if it never forgets what it has disclosed
and never answers under uncertainty.  This package supplies the three pieces
of that guarantee:

* :mod:`repro.resilience.wal` — a crash-safe write-ahead audit log: every
  decision is durably persisted (fsync-per-record, checksummed) *before*
  its answer is released, into a checkpointed log directory
  (:mod:`~repro.resilience.checkpoint`) optionally replicated to followers
  (:mod:`~repro.resilience.replication`); ``open_wal_auditor`` creates or
  recovers it;
* :mod:`repro.resilience.budget` — per-query deadlines and resource
  budgets with cooperative cancellation inside the MCMC samplers, bounded
  deterministic retry-and-reseed on :class:`~repro.exceptions.SamplingError`,
  and a fail-closed fallback denial
  (:attr:`~repro.types.DenialReason.RESOURCE_EXHAUSTED`);
* :mod:`repro.resilience.faults` — a deterministic fault-injection harness
  driving the crash/recover/replay test suite that proves every failure
  mode degrades to *deny*, never to *answer*.

See ``docs/ROBUSTNESS.md`` for the design.
"""

from typing import Any

from .budget import Budget, BudgetScope, run_fail_closed
from .faults import (
    Crash,
    FaultClock,
    FaultPlan,
    InjectedCrash,
    KNOWN_SITES,
    Raise,
    Stall,
    fault_site,
    inject,
)
from .overload import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)

#: WAL and checkpoint names are exported lazily (PEP 562):
#: ``repro.persistence`` imports this package for the fault sites, while
#: ``.wal``/``.checkpoint`` import ``repro.persistence`` for the journal
#: types — eager re-export here would close that cycle during interpreter
#: start-up.
_WAL_EXPORTS = ("open_wal_auditor",)
_CHECKPOINT_EXPORTS = (
    "CheckpointPolicy",
    "CheckpointedWal",
    "RecoveryInfo",
)
_REPLICATION_EXPORTS = (
    "FencedError",
    "Follower",
    "LocalLink",
    "ReplicationError",
    "promote_replica",
    "replica_events",
)


def __getattr__(name: str) -> Any:
    if name in _WAL_EXPORTS:
        from . import wal

        return getattr(wal, name)
    if name in _CHECKPOINT_EXPORTS:
        from . import checkpoint

        return getattr(checkpoint, name)
    if name in _REPLICATION_EXPORTS:
        from . import replication

        return getattr(replication, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Budget",
    "BudgetScope",
    "CheckpointPolicy",
    "CheckpointedWal",
    "Crash",
    "FaultClock",
    "FaultPlan",
    "FencedError",
    "Follower",
    "InjectedCrash",
    "KNOWN_SITES",
    "LocalLink",
    "Raise",
    "RecoveryInfo",
    "ReplicationError",
    "Stall",
    "TokenBucket",
    "fault_site",
    "inject",
    "open_wal_auditor",
    "promote_replica",
    "replica_events",
    "run_fail_closed",
]
