"""Differential tests: vectorized hit-and-run == scalar reference, bitwise.

The vectorized walks must not change a single released bit: for every
slice shape and seed, the batched ufunc kernels produce float-for-float
the same trajectories as the scalar reference walk over the same
pre-drawn randomness blocks.
"""

import numpy as np
import pytest

from repro.polytope.halfspace import AffineSlice
from repro.polytope.hit_and_run import HitAndRunSampler, _EnsembleDirections
from repro.rng import direction_block


def box_2d():
    return AffineSlice(2)


def diagonal_2d():
    s = AffineSlice(2)
    s.add_equality([1, 1], 0.8)
    return s


def slice_3d():
    s = AffineSlice(3)
    s.add_equality([1, 1, 1], 1.5)
    return s


def point_2d():
    s = AffineSlice(2)
    s.add_equality([1, 0], 0.3)
    s.add_equality([0, 1], 0.7)
    return s


CASES = [
    (box_2d, np.array([0.5, 0.5])),
    (diagonal_2d, np.array([0.4, 0.4])),
    (slice_3d, np.array([0.5, 0.5, 0.5])),
    (point_2d, np.array([0.3, 0.7])),
]


@pytest.mark.parametrize("make_slice,start", CASES,
                         ids=["box", "diagonal", "3d-slice", "point"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_samples_bitwise_identical_across_modes(make_slice, start, seed):
    fast = HitAndRunSampler(make_slice(), start, rng=seed,
                            steps_per_sample=6, vectorized=True)
    slow = HitAndRunSampler(make_slice(), start, rng=seed,
                            steps_per_sample=6, vectorized=False)
    a = fast.samples(40)
    b = slow.samples(40)
    assert np.array_equal(a, b)  # bitwise, no tolerance
    assert np.array_equal(fast.state, slow.state)


@pytest.mark.parametrize("make_slice,start", CASES,
                         ids=["box", "diagonal", "3d-slice", "point"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_ensemble_bitwise_identical_across_modes(make_slice, start, seed):
    fast = HitAndRunSampler(make_slice(), start, rng=seed,
                            steps_per_sample=6, vectorized=True)
    slow = HitAndRunSampler(make_slice(), start, rng=seed,
                            steps_per_sample=6, vectorized=False)
    a = fast.samples_ensemble(25)
    b = slow.samples_ensemble(25)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 3])
def test_samples_stream_depends_on_call_not_chunking_modes_still_agree(seed):
    # The block layout (all directions, then all positions, per *call*)
    # makes one samples(30) a different — equally valid — trajectory than
    # thirty sample() calls; what must hold is that for any chunking the
    # two evaluation modes stay bitwise-locked.
    for chunks in ([30], [10, 10, 10], [1] * 5 + [25]):
        fast = HitAndRunSampler(diagonal_2d(), np.array([0.4, 0.4]),
                                rng=seed, steps_per_sample=5,
                                vectorized=True)
        slow = HitAndRunSampler(diagonal_2d(), np.array([0.4, 0.4]),
                                rng=seed, steps_per_sample=5,
                                vectorized=False)
        for chunk in chunks:
            assert np.array_equal(fast.samples(chunk), slow.samples(chunk))


def test_ensemble_does_not_advance_the_chain_state():
    sampler = HitAndRunSampler(diagonal_2d(), np.array([0.4, 0.4]), rng=1)
    before = sampler.state.copy()
    sampler.samples_ensemble(10)
    assert np.array_equal(sampler.state, before)


def test_ensemble_chains_are_distinct_but_feasible():
    s = diagonal_2d()
    sampler = HitAndRunSampler(s, np.array([0.4, 0.4]), rng=2)
    out = sampler.samples_ensemble(50)
    assert out.shape == (50, 2)
    for x in out:
        assert s.contains(x, tol=1e-6)
    # Independent chains: essentially all end up in distinct states.
    assert len({tuple(row) for row in map(tuple, out)}) > 45


def test_ensemble_on_point_slice_returns_the_point():
    sampler = HitAndRunSampler(point_2d(), np.array([0.3, 0.7]), rng=0)
    out = sampler.samples_ensemble(8)
    assert np.array_equal(out, np.tile([0.3, 0.7], (8, 1)))


def test_zero_count_ensemble_is_empty():
    sampler = HitAndRunSampler(box_2d(), np.array([0.5, 0.5]), rng=0)
    assert sampler.samples_ensemble(0).shape == (0, 2)


# ----------------------------------------------------------------------
# The ensemble's direction kernel == the one-call product it replaced
# ----------------------------------------------------------------------

def sum_slice(n, rows, seed):
    s = AffineSlice(n, 0.0, 1000.0)
    gen = np.random.default_rng(seed)
    for _ in range(rows):
        row = np.zeros(n)
        size = int(gen.integers(2, min(n, 20) + 1))
        row[gen.choice(n, size=size, replace=False)] = 1
        s.add_equality(row, 100.0)
    return s


@pytest.mark.parametrize("n,rows,count,steps", [
    (40, 1, 100, 40),   # the sumprob_n40 shape, per-step product
    (20, 1, 100, 40),   # n % 8 == 4: a per-step unit @ basis.T differs
    (28, 2, 100, 40),
    (60, 3, 100, 20),
    (12, 1, 20, 16),    # small enough for the one-call product
    (20, 1, 5, 40),     # ... where a per-step basis @ unit.T differs
    (40, 1, 1, 300),    # one chain: a per-step product would be a GEMV
])
def test_directions_equal_the_one_call_product(n, rows, count, steps):
    # Every step's directions must be the rows the ensemble once took
    # from one `direction_block` + GEMM over all steps, bit for bit.
    basis = sum_slice(n, rows, seed=n).null_basis()
    dim = basis.shape[1]
    unit, _ = direction_block(np.random.default_rng(5), steps * count, dim)
    expected = unit @ basis.T
    gauss = np.random.default_rng(5).standard_normal((steps * count, dim))
    directions = _EnsembleDirections(basis, gauss, count)
    out = np.empty((n, count))
    for s in range(steps):
        assert directions.fill(s, out) is None
        rows_s = expected[s * count:(s + 1) * count]
        assert np.array_equal(out.view(np.int64), rows_s.T.view(np.int64))
