"""Fault, budget and degeneracy parity of the ensemble walk, both modes.

The vectorized ensemble fires its fault sites and budget checkpoints
once per transition, ``count`` per lockstep step, and skips that loop
only when nothing could observe it.  These tests pin what that must
preserve: hit counts, bitwise decisions with and without a fault plan,
and the occurrence at which a step cap or a clock stall denies.
"""

import numpy as np
import pytest

from repro.auditors.sum_prob import SumProbabilisticAuditor
from repro.exceptions import SamplingError
from repro.polytope import hit_and_run
from repro.polytope.halfspace import AffineSlice
from repro.polytope.hit_and_run import HitAndRunSampler
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultClock, FaultPlan, Stall, inject
from repro.sdb.dataset import Dataset
from repro.types import DenialReason, sum_query

pytestmark = pytest.mark.faults

MODES = pytest.mark.parametrize("vectorized", [True, False],
                                ids=["vectorized", "reference"])

NUM_OUTER, NUM_INNER, STEPS = 2, 10, 4
#: Transitions in one decision: per outer sample, ``STEPS`` for the
#: candidate, then an ensemble of NUM_INNER chains of ``2 * STEPS``.
DECISION_STEPS = NUM_OUTER * (STEPS + NUM_INNER * 2 * STEPS)


def make_auditor(vectorized, budget=None):
    data = Dataset.uniform(6, rng=3)
    return SumProbabilisticAuditor(
        data, lam=0.5, gamma=2, delta=0.6, rounds=3, num_outer=NUM_OUTER,
        num_inner=NUM_INNER, mc_tolerance=0.25, steps_per_sample=STEPS,
        rng=5, budget=budget, vectorized=vectorized)


def record(decision):
    return (decision.denied, decision.reason, decision.detail,
            float(decision.value).hex() if decision.answered else None)


QUERIES = [sum_query(range(6)), sum_query([0, 1, 2]), sum_query([1, 3]),
           sum_query([0, 2, 4, 5]), sum_query([3, 4, 5])]


def run_stream(auditor):
    return [record(auditor.audit(q)) for q in QUERIES]


@MODES
def test_inert_plan_counts_every_transition(vectorized):
    plan = FaultPlan({"hit_and_run.step": []})
    with inject(plan):
        make_auditor(vectorized).audit(QUERIES[0])
    assert plan.hit_count("hit_and_run.step") == DECISION_STEPS


@MODES
def test_decisions_are_bitwise_equal_with_and_without_a_plan(vectorized):
    plain = run_stream(make_auditor(vectorized))
    with inject(FaultPlan({"hit_and_run.step": []})):
        planned = run_stream(make_auditor(vectorized))
    assert planned == plain
    assert any(r[0] for r in plain) and not all(r[0] for r in plain)
    assert any(r[2] and "sampled answers" in r[2] for r in plain)


def test_modes_release_the_same_stream():
    assert run_stream(make_auditor(True)) == run_stream(make_auditor(False))


def deny_under(vectorized, budget, plan):
    with inject(plan):
        decision = make_auditor(vectorized, budget=budget).audit(QUERIES[0])
    return record(decision), plan.hit_count("hit_and_run.step")


@pytest.mark.parametrize("cap", [STEPS + 37, STEPS + NUM_INNER * 2 * STEPS
                                 + STEPS + 5])
def test_step_cap_mid_ensemble_denies_at_the_same_occurrence(cap):
    outcomes = [deny_under(vectorized, Budget(max_chain_steps=cap),
                           FaultPlan({"hit_and_run.step": []}))
                for vectorized in (True, False)]
    assert outcomes[0] == outcomes[1]
    (denied, reason, detail, _), hits = outcomes[0]
    assert denied and reason is DenialReason.RESOURCE_EXHAUSTED
    assert detail == f"chain-step budget exhausted ({cap + 1} > {cap})"
    assert hits == cap + 1


@pytest.mark.parametrize("occurrence", [STEPS + 23, STEPS + 61])
def test_stall_mid_ensemble_denies_at_the_same_occurrence(occurrence):
    outcomes = []
    for vectorized in (True, False):
        clock = FaultClock()
        budget = Budget(wall_time=1.0, clock=clock.now)
        script = [None] * occurrence + [Stall(clock, 10.0)]
        outcomes.append(deny_under(vectorized, budget,
                                   FaultPlan({"hit_and_run.step": script})))
    assert outcomes[0] == outcomes[1]
    (denied, reason, detail, _), hits = outcomes[0]
    assert denied and reason is DenialReason.RESOURCE_EXHAUSTED
    assert detail.startswith("deadline exceeded")
    assert detail.endswith(f"after {occurrence + 1} steps)")
    assert hits == occurrence + 1


# ----------------------------------------------------------------------
# Sampler level: the skipped loop and the non-moving-lane mask
# ----------------------------------------------------------------------

def trial_slice():
    s = AffineSlice(12, 0.0, 10.0)
    row = np.zeros(12)
    row[[1, 4, 7, 9]] = 1.0
    s.add_equality(row, 20.0)
    return s, np.full(12, 5.0)


#: 30 chains take the whole-block direction product, 100 the per-step one.
CHAINS = pytest.mark.parametrize("chains", [30, 100])


@CHAINS
def test_chain_counts_cover_both_direction_products(chains):
    s, _ = trial_slice()
    basis = s.null_basis()
    steps = 2 * 4 * basis.shape[1]
    gauss = np.random.default_rng(0).standard_normal(
        (steps * chains, basis.shape[1]))
    directions = hit_and_run._EnsembleDirections(basis, gauss, chains)
    assert (directions.block is None) == (chains == 100)


@CHAINS
def test_skipping_the_transition_loop_changes_no_bit(chains):
    s, start = trial_slice()
    calls = []
    fast = HitAndRunSampler(s, start, rng=3).samples_ensemble(chains)
    counted = HitAndRunSampler(s, start, rng=3,
                               checkpoint=lambda: calls.append(1))
    assert np.array_equal(counted.samples_ensemble(chains), fast)
    assert len(calls) == chains * 2 * counted.steps_per_sample


def flatten_lanes(monkeypatch, lanes):
    """Zero chosen ``(step, element, chain)`` direction components."""
    fill = hit_and_run._EnsembleDirections.fill

    def patched(self, s, out):
        zero = fill(self, s, out)
        for step, element, chain in lanes:
            if step == s:
                out[element, chain] = 0.0
        return zero

    monkeypatch.setattr(hit_and_run._EnsembleDirections, "fill", patched)


@CHAINS
def test_non_moving_lanes_are_masked_identically(monkeypatch, chains):
    s, start = trial_slice()
    plain = HitAndRunSampler(s, start, rng=4).samples_ensemble(chains)
    flatten_lanes(monkeypatch, [(0, 3, 0), (5, 0, 7), (5, 11, 7),
                                (9, 4, 29)])
    fast = HitAndRunSampler(s, start, rng=4).samples_ensemble(chains)
    slow = HitAndRunSampler(s, start, rng=4,
                            vectorized=False).samples_ensemble(chains)
    assert np.array_equal(fast, slow)
    assert not np.array_equal(fast, plain)  # the lanes were masked


@CHAINS
@MODES
def test_a_chain_that_cannot_move_raises(monkeypatch, vectorized, chains):
    s, start = trial_slice()
    step, chain = 6, 11
    flatten_lanes(monkeypatch, [(step, j, chain) for j in range(12)])
    plan = FaultPlan({"hit_and_run.step": []})
    sampler = HitAndRunSampler(s, start, rng=4, vectorized=vectorized)
    with inject(plan), pytest.raises(SamplingError, match="degenerate"):
        sampler.samples_ensemble(chains)
    steps = 2 * sampler.steps_per_sample
    # Lockstep raises once step 6 has fired for every chain; the
    # chain-by-chain reference reaches chain 11's step 6 later.
    expected = ((step + 1) * chains if vectorized
                else chain * steps + step + 1)
    assert plan.hit_count("hit_and_run.step") == expected


@CHAINS
def test_boundary_landings_are_clipped_identically(monkeypatch, chains):
    # Every jump lands on its chord's end, where rounding can step just
    # outside the box; both walks must clip it back the same way.
    draw = hit_and_run.uniform_block
    monkeypatch.setattr(hit_and_run, "uniform_block",
                        lambda gen, k: np.zeros_like(draw(gen, k)))
    s, start = trial_slice()
    fast = HitAndRunSampler(s, start, rng=2).samples_ensemble(chains)
    slow = HitAndRunSampler(s, start, rng=2,
                            vectorized=False).samples_ensemble(chains)
    assert np.array_equal(fast, slow)
    assert fast.min() >= 0.0 and fast.max() <= 10.0
