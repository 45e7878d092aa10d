"""Deadlines, retry-and-reseed determinism, and fail-closed denials."""

import numpy as np
import pytest

from repro.auditors.max_prob import MaxProbabilisticAuditor
from repro.auditors.sum_prob import SumProbabilisticAuditor
from repro.exceptions import (
    PrivacyParameterError,
    ResourceExhaustedError,
    SamplingError,
)
from repro.resilience.budget import Budget, run_fail_closed
from repro.resilience.faults import FaultClock, FaultPlan, Raise, Stall, inject
from repro.resilience.replication import replica_events
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import DenialReason, max_query, sum_query


def make_max_auditor(budget=None, seed=5):
    data = Dataset.uniform(12, rng=3, duplicate_free=True)
    return MaxProbabilisticAuditor(data, lam=0.3, gamma=4, delta=0.5,
                                   rounds=5, num_samples=12, rng=seed,
                                   budget=budget)


def make_sum_auditor(budget=None, seed=5, data=None):
    if data is None:
        data = Dataset.uniform(6, rng=3)
    return SumProbabilisticAuditor(data, num_outer=2, num_inner=10,
                                   rng=seed, budget=budget)


# ----------------------------------------------------------------------
# Parameter validation
# ----------------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(PrivacyParameterError):
        Budget(wall_time=0.0)
    with pytest.raises(PrivacyParameterError):
        Budget(max_sampler_attempts=0)
    with pytest.raises(PrivacyParameterError):
        Budget(max_chain_steps=0)


def test_scope_checkpoint_raises_on_step_cap():
    scope = Budget(max_chain_steps=3).start()
    for _ in range(3):
        scope.checkpoint()
    with pytest.raises(ResourceExhaustedError, match="chain-step budget"):
        scope.checkpoint()


def test_scope_checkpoint_raises_past_deadline():
    clock = FaultClock()
    scope = Budget(wall_time=2.0, clock=clock.now).start()
    scope.checkpoint()
    clock.advance(5.0)
    with pytest.raises(ResourceExhaustedError, match="deadline exceeded"):
        scope.checkpoint()


# ----------------------------------------------------------------------
# Fail-closed denials
# ----------------------------------------------------------------------

def test_step_cap_exhaustion_denies_resource_exhausted():
    auditor = make_sum_auditor(budget=Budget(max_chain_steps=5))
    decision = auditor.audit(sum_query([0, 1, 2]))
    assert decision.denied
    assert decision.reason is DenialReason.RESOURCE_EXHAUSTED
    assert "chain-step budget" in decision.detail


def test_deadline_stall_denies_resource_exhausted():
    clock = FaultClock()
    budget = Budget(wall_time=1.0, clock=clock.now)
    auditor = make_sum_auditor(budget=budget)
    plan = FaultPlan({"hit_and_run.step": [None, Stall(clock, 10.0)]})
    with inject(plan):
        decision = auditor.audit(sum_query([0, 1, 2]))
    assert decision.denied
    assert decision.reason is DenialReason.RESOURCE_EXHAUSTED
    assert "deadline exceeded" in decision.detail
    assert plan.hit_count("hit_and_run.step") >= 2


def test_persistent_sampling_failure_exhausts_attempts():
    calls = []

    def decide(scope, gen):
        calls.append(int(gen.integers(1000)))
        raise SamplingError("chain stuck")

    decision = run_fail_closed(Budget(max_sampler_attempts=3),
                               np.random.default_rng(0), decide)
    assert decision.denied
    assert decision.reason is DenialReason.RESOURCE_EXHAUSTED
    assert "after 3 attempt(s)" in decision.detail
    assert "chain stuck" in decision.detail
    # Every retry re-derived the *same* generator (determinism contract).
    assert len(set(calls)) == 1


def test_exhaustion_denial_is_journalled_and_replayable(tmp_path):
    budget = Budget(max_chain_steps=5)
    path = str(tmp_path / "wal")

    def factory(ds):
        return make_sum_auditor(budget=budget, data=ds)

    wrapped, _ = open_wal_auditor(path, factory, Dataset.uniform(6, rng=3))
    decision = wrapped.audit(sum_query([0, 1, 2]))
    assert decision.reason is DenialReason.RESOURCE_EXHAUSTED
    wrapped.close()
    event = replica_events(path)[-1]
    assert event["denied"] and event["reason"] == "resource-exhausted"
    restored, _ = open_wal_auditor(path, factory, Dataset.uniform(6, rng=3))
    summary = restored.trail.summary()
    assert summary["denied_by_reason"] == {"resource-exhausted": 1}
    restored.close()


# ----------------------------------------------------------------------
# Determinism: transient faults are invisible in the output
# ----------------------------------------------------------------------

def run_stream(auditor, queries):
    return [(d.denied, d.value) for d in
            (auditor.audit(q) for q in queries)]


def test_transient_sampling_errors_replay_bitwise_identically():
    queries = [max_query([0, 1, 2]), max_query([3, 4]),
               max_query([5, 6, 7, 8])]
    budget = Budget(max_sampler_attempts=3)

    baseline = run_stream(make_max_auditor(budget=budget), queries)
    plan = FaultPlan({"auditor.attempt": [Raise(SamplingError), None,
                                          Raise(SamplingError), None,
                                          None]})
    with inject(plan):
        faulted = run_stream(make_max_auditor(budget=budget), queries)

    assert plan.fired == [("auditor.attempt", 0), ("auditor.attempt", 2)]
    assert faulted == baseline


def test_budgeted_runs_are_reproducible_across_processes():
    queries = [sum_query([0, 1, 2]), sum_query([2, 3, 4])]
    budget = Budget(max_sampler_attempts=2)
    first = run_stream(make_sum_auditor(budget=budget), queries)
    second = run_stream(make_sum_auditor(budget=budget), queries)
    assert first == second


def test_without_budget_legacy_stream_is_untouched():
    """budget=None must run on the auditor's own rng, exactly as before."""
    queries = [max_query([0, 1, 2]), max_query([3, 4])]
    plain = run_stream(make_max_auditor(), queries)
    explicit_none = run_stream(make_max_auditor(budget=None), queries)
    assert plain == explicit_none
