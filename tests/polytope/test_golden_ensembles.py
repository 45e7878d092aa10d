"""Replay of the serving-shape hit-and-run golden, in both sampler modes.

``tests/golden/hit_and_run_n40_ensembles.json`` pins
``samples_ensemble(100)`` and five ``sample()`` calls at n = 40 (the
``sumprob_n40`` shape: 100 chains, default steps) as per-element
integer histograms.  Both the vectorized walk and the scalar reference
walk must replay it exactly.
"""

import pytest

from tests.golden.ensemble_workloads import (
    BUCKETS,
    CHAINS,
    ENSEMBLE_SEEDS,
    ENSEMBLE_WORKLOADS,
    N,
    SAMPLE_CALLS,
    load_ensemble_golden,
    run_ensemble_workload,
)

NAMES = sorted(ENSEMBLE_WORKLOADS)


@pytest.mark.parametrize("vectorized", [True, False],
                         ids=["vectorized", "reference"])
@pytest.mark.parametrize("name", NAMES)
def test_ensemble_golden_replays_exactly(name, vectorized):
    golden = load_ensemble_golden()[name]
    assert run_ensemble_workload(name, vectorized=vectorized) == golden


@pytest.mark.parametrize("name", NAMES)
def test_ensemble_golden_has_the_serving_shape(name):
    records = load_ensemble_golden()[name]
    assert [r["seed"] for r in records] == ENSEMBLE_SEEDS
    for record in records:
        assert len(record["ensemble"]) == len(record["samples"]) == N
        for hist in record["ensemble"]:
            assert len(hist) == BUCKETS and sum(hist) == CHAINS
        for hist in record["samples"]:
            assert len(hist) == BUCKETS and sum(hist) == SAMPLE_CALLS
    # The trial slice has one row, the other five independent rows.
    rows = 1 if name == "trial" else 5
    assert all(r["dimension"] == N - rows for r in records)
