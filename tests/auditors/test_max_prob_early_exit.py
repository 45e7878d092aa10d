"""Max-prob stops at the first sample that fixes its decision.

``MaxProbabilisticAuditor`` draws a decision's whole sample block, then
checks the samples in order and returns as soon as the unsafe count can
no longer change the outcome.  These tests hold it to a reference that
checks all N samples before comparing, decision by decision: the same
deny bit, reason and value, and the same generator state afterwards.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditors import max_prob
from repro.auditors.max_prob import MaxProbabilisticAuditor
from repro.auditors.maxmin_prob import MaxMinProbabilisticAuditor
from repro.auditors.sum_prob import SumProbabilisticAuditor
from repro.exceptions import InconsistentAnswersError
from repro.privacy.distributions import TruncatedGaussianDistribution
from repro.resilience.budget import Budget
from repro.sdb.dataset import Dataset
from repro.types import (
    SAMPLED_BREACH_DETAIL,
    AggregateKind,
    AuditDecision,
    DenialReason,
    max_query,
    min_query,
    sum_query,
)
from tests.golden.workloads import SERVING_WORKLOADS, _query_stream


class FullEvaluationAuditor(MaxProbabilisticAuditor):
    """Checks every sample of the block, then compares the count."""

    def _deny_reason_sampled(self, query, scope, gen):
        members = list(query.sorted_indices())
        samples = self.sample_consistent_datasets(self.num_samples, gen)
        unsafe = 0
        for s in range(self.num_samples):
            if scope is not None:
                scope.checkpoint()
            trial = self._synopsis.copy()
            try:
                trial.insert(query.query_set,
                             float(samples[s][members].max()))
            except InconsistentAnswersError:  # pragma: no cover
                unsafe += 1
                continue
            if not max_prob.algorithm1_safe(trial, self.grid, self.lam,
                                            distribution=self.distribution):
                unsafe += 1
        if unsafe / self.num_samples > self.threshold:
            return AuditDecision.deny(DenialReason.PARTIAL_DISCLOSURE,
                                      SAMPLED_BREACH_DETAIL)
        return None


@contextlib.contextmanager
def recorded_verdicts():
    """Per decision, the Algorithm 1 verdict of every evaluated sample."""
    log = []
    check = max_prob.algorithm1_safe

    def recording(*args, **kwargs):
        safe = check(*args, **kwargs)
        log[-1].append(safe)
        return safe

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(max_prob, "algorithm1_safe", recording)
        yield log


def samples_deciding(verdicts, num_samples, threshold):
    """How many samples it takes until the remaining ones cannot change
    whether ``unsafe / num_samples > threshold``."""
    unsafe = 0
    for s, safe in enumerate(verdicts):
        unsafe += not safe
        remaining = num_samples - s - 1
        all_safe = unsafe / num_samples > threshold
        all_unsafe = (unsafe + remaining) / num_samples > threshold
        if all_safe == all_unsafe:
            return s + 1
    return len(verdicts)


def outcome(decision):
    return decision.denied, decision.reason, decision.value


def assert_streams_agree(make, queries, verdicts_log=None):
    """Early exit and full evaluation release the same decisions and
    leave the same generator state; with ``verdicts_log`` (from
    :func:`recorded_verdicts`), the early exit evaluates exactly the
    samples that fix each decision."""
    early = make(MaxProbabilisticAuditor)
    full = make(FullEvaluationAuditor)
    for query in queries:
        if verdicts_log is not None:
            verdicts_log.append([])
        got = early.audit(query)
        if verdicts_log is not None:
            verdicts_log.append([])
        want = full.audit(query)
        assert outcome(got) == outcome(want)
        assert got.detail == want.detail
        assert (early._rng.bit_generator.state
                == full._rng.bit_generator.state)
        if verdicts_log is not None:
            evaluated, verdicts = verdicts_log[-2], verdicts_log[-1]
            assert len(verdicts) == full.num_samples
            assert evaluated == verdicts[:len(evaluated)]
            assert len(evaluated) == samples_deciding(
                verdicts, full.num_samples, full.threshold)


def gaussian_dataset(n, seed):
    dist = TruncatedGaussianDistribution(0.0, 1.0, mean=0.6, std=0.2)
    gen = np.random.default_rng(seed)
    while True:
        values = dist.sample(gen, n)
        if len(set(values.tolist())) == n:
            return Dataset(values.tolist(), low=0.0, high=1.0), dist


# ----------------------------------------------------------------------
# Early exit equals full evaluation
# ----------------------------------------------------------------------

@st.composite
def settings_and_queries(draw):
    n = draw(st.integers(4, 30))
    config = {
        "n": n,
        "num_samples": draw(st.integers(1, 40)),
        # delta/2T * N lands below 1 (one breach denies) and at or above
        # 1 (an answer can be fixed before the last sample), with ties
        # such as 0.5/(2*5) * 40 == 2 exactly.
        "delta": draw(st.sampled_from([0.05, 0.2, 0.5, 0.9])),
        "rounds": draw(st.sampled_from([1, 2, 5, 100])),
        "lam": draw(st.sampled_from([0.05, 0.3, 0.6])),
        "gamma": draw(st.sampled_from([2, 4, 10])),
        "seed": draw(st.integers(0, 2**16)),
        "vectorized": draw(st.booleans()),
        "gaussian": draw(st.booleans()),
    }
    queries = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1).map(max_query),
        min_size=1, max_size=6,
    ))
    return config, queries


def factory(config, budget=None):
    if config["gaussian"]:
        data, dist = gaussian_dataset(config["n"], config["seed"])
    else:
        data = Dataset.uniform(config["n"], rng=config["seed"],
                               duplicate_free=True)
        dist = None

    def make(cls, budget=budget):
        return cls(data, lam=config["lam"], gamma=config["gamma"],
                   delta=config["delta"], rounds=config["rounds"],
                   num_samples=config["num_samples"], rng=config["seed"],
                   distribution=dist, budget=budget,
                   vectorized=config["vectorized"])
    return make


@given(settings_and_queries())
@settings(max_examples=60, deadline=None)
def test_early_exit_releases_what_full_evaluation_releases(case):
    config, queries = case
    with recorded_verdicts() as log:
        assert_streams_agree(factory(config), queries, log)


@given(settings_and_queries())
@settings(max_examples=30, deadline=None)
def test_early_exit_agrees_under_a_budget(case):
    # A budget derives each decision's generator from one seed of the
    # master stream; the early exit must leave both where they were.
    config, queries = case
    assert_streams_agree(factory(config, budget=Budget()), queries)


@pytest.mark.parametrize("vectorized", [True, False],
                         ids=["vectorized", "reference"])
def test_exits_at_the_deciding_sample_on_ties(vectorized):
    # delta/2T * N == 2 exactly: answers with exactly 2 breaches, answers
    # fixed at sample 38 and denials at the third breach all occur here.
    data = Dataset.uniform(40, rng=7, duplicate_free=True)

    def make(cls):
        return cls(data, lam=0.3, gamma=4, delta=0.5, rounds=5,
                   num_samples=40, rng=12, vectorized=vectorized)

    queries = _query_stream(40, 101, [AggregateKind.MAX], count=100)
    with recorded_verdicts() as log:
        assert_streams_agree(make, queries, log)
    # Every decision logs its early and its full verdicts; both exits
    # fired, and some answer carried exactly threshold * N breaches.
    pairs = list(zip(log[0::2], log[1::2]))
    assert any(len(e) < 40 and all(e) for e, _ in pairs)
    assert any(f.count(False) == 2 for _, f in pairs)
    assert any(len(e) > 3 and not all(e) for e, _ in pairs)


def test_a_denial_stops_at_its_first_breach_at_cli_defaults():
    # delta/2T * N = 0.015 < 1: the first unsafe sample decides.
    workload_auditor, queries = SERVING_WORKLOADS["max_prob_n1000"](True)

    def make(cls):
        return cls(workload_auditor.dataset, rng=0)

    with recorded_verdicts() as log:
        assert_streams_agree(make, queries, log)
    late = 0
    for evaluated, verdicts in zip(log[0::2], log[1::2]):
        if False in verdicts:
            assert len(evaluated) == verdicts.index(False) + 1
            late += verdicts.index(False) > 0
        else:
            assert len(evaluated) == 60
    assert late > 0


# ----------------------------------------------------------------------
# Step caps
# ----------------------------------------------------------------------

@given(settings_and_queries())
@settings(max_examples=15, deadline=None)
def test_a_step_cap_exhausts_or_agrees_with_the_uncapped_decision(case):
    config, queries = case
    make = factory(config)
    uncapped = make(MaxProbabilisticAuditor, budget=Budget())
    wanted = [uncapped.audit(q) for q in queries]
    for cap in range(1, config["num_samples"] + 1):
        capped = make(MaxProbabilisticAuditor,
                      budget=Budget(max_chain_steps=cap))
        for query, want in zip(queries, wanted):
            got = capped.audit(query)
            if got.reason is DenialReason.RESOURCE_EXHAUSTED:
                if want.answered:
                    break  # the synopses part ways from here
                continue
            assert outcome(got) == outcome(want)


def test_one_step_suffices_for_a_first_sample_breach():
    # At CLI defaults a 2-member max query over 1000 records breaches on
    # every sample; one checkpoint is all the decision needs.
    data = Dataset.uniform(1000, rng=7, duplicate_free=True)
    auditor = MaxProbabilisticAuditor(data, rng=0,
                                      budget=Budget(max_chain_steps=1))
    decision = auditor.audit(max_query([3, 5]))
    assert decision.reason is DenialReason.PARTIAL_DISCLOSURE
    assert decision.detail == SAMPLED_BREACH_DETAIL


# ----------------------------------------------------------------------
# One constant detail
# ----------------------------------------------------------------------

def _first_sampled_denial(auditor, queries):
    for query in queries:
        decision = auditor.audit(query)
        if decision.reason is DenialReason.PARTIAL_DISCLOSURE:
            return decision
    raise AssertionError("no partial-disclosure denial")


def test_every_probabilistic_auditor_denies_with_the_constant_detail():
    data = Dataset.uniform(8, rng=7, duplicate_free=True)
    auditors = [
        (MaxProbabilisticAuditor(data, lam=0.3, gamma=4, delta=0.5,
                                 rounds=5, num_samples=40, rng=12),
         [max_query([i]) for i in range(8)]),
        (SumProbabilisticAuditor(data, lam=0.5, gamma=2, delta=0.6,
                                 rounds=3, num_outer=3, num_inner=20,
                                 mc_tolerance=0.25, steps_per_sample=8,
                                 rng=11),
         [sum_query(range(i, 8)) for i in range(7)]),
        (MaxMinProbabilisticAuditor(data, lam=0.35, gamma=4, delta=0.6,
                                    rounds=4, num_outer=3, num_inner=20,
                                    rng=13),
         [q(range(i, 8)) for i in range(6) for q in (max_query, min_query)]),
    ]
    for auditor, queries in auditors:
        denial = _first_sampled_denial(auditor, queries)
        assert denial.detail == SAMPLED_BREACH_DETAIL
        assert "sampled answers" in denial.detail
