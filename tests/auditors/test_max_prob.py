"""Tests for the Section 3.1 probabilistic max auditor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditors.max_prob import (
    MaxProbabilisticAuditor,
    algorithm1_safe,
    algorithm1_safe_reference,
)
from repro.exceptions import PrivacyParameterError
from repro.privacy.intervals import IntervalGrid
from repro.sdb.dataset import Dataset
from repro.synopsis.extreme_synopsis import MaxSynopsis
from repro.types import max_query


# ----------------------------------------------------------------------
# Algorithm 1
# ----------------------------------------------------------------------

def test_empty_synopsis_is_safe():
    syn = MaxSynopsis(5, limit=1.0)
    assert algorithm1_safe(syn, IntervalGrid(10), lam=0.05)


def test_low_bound_is_unsafe():
    # A predicate value outside the top bucket zeroes later buckets.
    syn = MaxSynopsis(5, limit=1.0)
    syn.insert({0, 1, 2}, 0.5)
    assert not algorithm1_safe(syn, IntervalGrid(10), lam=0.05)


def test_high_bound_large_set_is_safe():
    # Large query set, answer in the top bucket, loose lambda.
    syn = MaxSynopsis(300, limit=1.0)
    syn.insert(set(range(250)), 0.995)
    assert algorithm1_safe(syn, IntervalGrid(4), lam=0.3)


def test_small_equality_set_point_mass_unsafe():
    # |S| = 2 concentrates probability 1/2 at the bound: ratio blows up.
    syn = MaxSynopsis(10, limit=1.0)
    syn.insert({0, 1}, 0.99)
    assert not algorithm1_safe(syn, IntervalGrid(10), lam=0.05)


@st.composite
def random_synopses(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    queries = draw(st.integers(min_value=1, max_value=5))
    gamma = draw(st.integers(min_value=2, max_value=8))
    lam = draw(st.sampled_from([0.05, 0.2, 0.5]))
    return n, seed, queries, gamma, lam


@given(random_synopses())
@settings(max_examples=60, deadline=None)
def test_vectorised_matches_reference(case):
    n, seed, queries, gamma, lam = case
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.linspace(0.05, 0.97, n)).tolist()
    syn = MaxSynopsis(n, limit=1.0)
    for _ in range(queries):
        size = int(rng.integers(1, n + 1))
        members = {int(i) for i in rng.choice(n, size=size, replace=False)}
        syn.insert(members, max(values[i] for i in members))
    grid = IntervalGrid(gamma)
    assert (algorithm1_safe(syn, grid, lam)
            == algorithm1_safe_reference(syn, grid, lam))


# ----------------------------------------------------------------------
# Algorithm 2 (the simulatable auditor)
# ----------------------------------------------------------------------

def gentle_auditor(n=300, rng=0):
    data = Dataset.uniform(n, rng=rng)
    return MaxProbabilisticAuditor(
        data, lam=0.3, gamma=4, delta=0.5, rounds=5, num_samples=50, rng=rng
    ), data


def test_large_query_answered_small_denied():
    auditor, data = gentle_auditor()
    big = max_query(range(280))
    small = max_query([0, 1])
    big_decision = auditor.audit(big)
    assert big_decision.answered
    assert big_decision.value == pytest.approx(
        max(data[i] for i in range(280))
    )
    assert auditor.audit(small).denied


def test_sampled_datasets_are_consistent_with_synopsis():
    auditor, _ = gentle_auditor()
    auditor.audit(max_query(range(280)))
    for _ in range(10):
        sample = auditor.sample_consistent_dataset()
        for pred in auditor.synopsis.predicates():
            members = sorted(pred.elements)
            sub = sample[members]
            if pred.equality:
                assert sub.max() == pred.value
            else:
                assert sub.max() < pred.value


def test_decision_does_not_peek_at_current_answer():
    # Poison the dataset: _deny_reason must work without the true values.
    auditor, _ = gentle_auditor()
    poisoned = auditor.dataset
    auditor.dataset = None
    try:
        assert auditor._deny_reason(max_query([0, 1])) is not None
    finally:
        auditor.dataset = poisoned


def test_parameter_validation():
    data = Dataset.uniform(10, rng=1)
    with pytest.raises(PrivacyParameterError):
        MaxProbabilisticAuditor(data, delta=0.0)
    with pytest.raises(PrivacyParameterError):
        MaxProbabilisticAuditor(data, rounds=0)
    with pytest.raises(PrivacyParameterError):
        MaxProbabilisticAuditor(data, num_samples=0)


def test_denial_does_not_change_synopsis():
    auditor, _ = gentle_auditor()
    before = auditor.synopsis.size
    auditor.audit(max_query([0, 1]))   # denied
    assert auditor.synopsis.size == before
