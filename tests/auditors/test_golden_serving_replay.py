"""Differential replay at serving size: the n=1000 goldens.

The 200-query goldens run at n <= 40.  These pin the deployed shape
— CLI-default parameters over 1000 records, 250-500-member queries — so
work that only matters at that size is locked bitwise too: range
tables, witness mass and colour weights for ``maxmin-prob``, and
``max-prob``'s early exit at delta/2T * N < 1.  Both the vectorized
serving path and the scalar reference path must replay them exactly.
"""

import pytest

from tests.golden.workloads import (
    SERVING_NUM_QUERIES,
    SERVING_WORKLOADS,
    load_golden,
    run_workload,
)

NAMES = sorted(SERVING_WORKLOADS)


@pytest.mark.parametrize("vectorized", [True, False],
                         ids=["vectorized", "reference"])
@pytest.mark.parametrize("name", NAMES)
def test_serving_golden_replays_bitwise(name, vectorized):
    golden = load_golden(name)
    assert len(golden) == SERVING_NUM_QUERIES
    assert run_workload(name, vectorized=vectorized) == golden


@pytest.mark.parametrize("name", NAMES)
def test_serving_golden_exercises_answers_and_sampled_denials(name):
    golden = load_golden(name)
    assert any(not d["denied"] for d in golden)
    assert any(d["reason"] == "partial-disclosure" for d in golden)
    for record in golden:
        assert 250 <= len(record["members"]) <= 500
