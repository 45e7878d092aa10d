"""Hit-and-run sampling over an affine slice of a box.

Classic uniform sampler: from the current point, pick a uniform direction in
the slice's tangent space (the null space of ``A``), compute the feasible
chord through the box, and jump to a uniform point on it.  The chain's
stationary distribution is uniform over the slice.

The chain is inherently sequential, but almost none of its per-transition
work has to be: the serving hot path pre-draws the whole randomness block
for a batch of transitions (:func:`repro.rng.direction_block` /
:func:`repro.rng.uniform_block`) and walks the chain with direct ufunc
calls into preallocated buffers.  The ensemble estimator walks many
independent chains in lockstep and turns one step's Gaussian rows into
directions at a time, so its working set is a few small buffers.  A
scalar *reference* walk (``vectorized=False``) consumes the **same**
pre-drawn blocks and directions through the original per-step
operations; the two modes are bitwise-identical (the differential replay
suite asserts this), so vectorization changes no released decision bit.
Both modes keep the per-transition
:func:`~repro.resilience.faults.fault_site` and cooperative-cancellation
checkpoints, so budgets and fault drills see every transition.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..exceptions import SamplingError
from ..resilience.faults import fault_site, plan_active
from ..rng import RngLike, as_generator, direction_block, scale_uniform, \
    uniform_block
from .halfspace import CHORD_TOL, AffineSlice


class HitAndRunSampler:
    """Uniform sampler over ``{x in [low, high]^n : A x = b}``.

    Parameters
    ----------
    slice_:
        The feasible region.
    start:
        A feasible starting point (e.g. the true dataset, which always
        satisfies its own answered queries).
    steps_per_sample:
        Chain steps between returned samples; defaults to ``4 * dimension``.
    checkpoint:
        Optional cooperative-cancellation hook invoked once per transition
        (e.g. :meth:`repro.resilience.budget.BudgetScope.checkpoint`); it
        may abort a runaway chain by raising
        :class:`~repro.exceptions.ResourceExhaustedError`.
    vectorized:
        ``True`` (default) walks transitions with batched draws and direct
        ufunc kernels; ``False`` is the scalar reference walk over the same
        pre-drawn randomness — bitwise-identical, kept for differential
        tests and as the benchmark baseline.
    """

    def __init__(self, slice_: AffineSlice, start: np.ndarray,
                 rng: RngLike = None,
                 steps_per_sample: Optional[int] = None,
                 checkpoint: Optional[Callable[[], None]] = None,
                 vectorized: bool = True):
        start = np.asarray(start, dtype=float)
        if not slice_.contains(start):
            raise SamplingError("start point is not feasible")
        self.slice = slice_
        self.state = start.copy()
        self._rng = as_generator(rng)
        self._checkpoint = checkpoint
        self.vectorized = vectorized
        dim = max(1, slice_.dimension)
        self.steps_per_sample = (
            4 * dim if steps_per_sample is None else steps_per_sample
        )

    def step(self) -> np.ndarray:
        """One hit-and-run transition; returns the new state.

        Draws per transition (direction, then chord position) — the
        original interleaved stream order, kept for direct single-step
        use.  The batched :meth:`sample`/:meth:`samples` paths pre-draw
        their blocks instead (all directions, then all positions).
        """
        fault_site("hit_and_run.step")
        if self._checkpoint is not None:
            self._checkpoint()
        basis = self.slice.null_basis()
        dim = basis.shape[1]
        if dim == 0:
            return self.state  # the slice is a single point
        z = self._rng.normal(size=dim)
        norm = float(np.linalg.norm(z))
        if norm == 0.0:  # pragma: no cover - measure zero
            return self.state
        direction = basis @ (z / norm)
        t_lo, t_hi = self.slice.chord(self.state, direction)
        if not t_lo <= t_hi:
            # Numerical corner: stay put rather than leave the region.
            return self.state
        t = float(self._rng.uniform(t_lo, t_hi))
        self.state = self.state + t * direction
        np.clip(self.state, self.slice.low, self.slice.high, out=self.state)
        return self.state

    # ------------------------------------------------------------------
    # Batched walks
    # ------------------------------------------------------------------

    def _advance(self, steps: int, record_every: Optional[int] = None,
                 out: Optional[np.ndarray] = None) -> None:
        """Walk ``steps`` transitions, copying the state into successive
        rows of ``out`` after every ``record_every``-th transition."""
        checkpoint = self._checkpoint
        basis = self.slice.null_basis()
        dim = basis.shape[1]
        if steps <= 0:
            return
        if dim == 0:
            recorded = 0
            for i in range(steps):
                fault_site("hit_and_run.step")
                if checkpoint is not None:
                    checkpoint()
                if record_every is not None and (i + 1) % record_every == 0:
                    out[recorded] = self.state
                    recorded += 1
            return
        # Canonical block order: all unit directions, then all positions.
        unit, norms = direction_block(self._rng, steps, dim)
        u_block = uniform_block(self._rng, steps)
        if self.vectorized:
            self._walk_vectorized(basis, unit, norms, u_block,
                                  record_every, out)
        else:
            self._walk_reference(basis, unit, norms, u_block,
                                 record_every, out)

    def _walk_reference(self, basis: np.ndarray, unit: np.ndarray,
                        norms: np.ndarray, u_block: np.ndarray,
                        record_every: Optional[int],
                        out: Optional[np.ndarray]) -> None:
        """The original per-step operations over pre-drawn randomness."""
        checkpoint = self._checkpoint
        recorded = 0
        for i in range(len(u_block)):
            fault_site("hit_and_run.step")
            if checkpoint is not None:
                checkpoint()
            if norms[i] != 0.0:  # zero norm: measure-zero degenerate draw
                direction = np.dot(basis, unit[i])
                t_lo, t_hi = self.slice.chord(self.state, direction)
                if t_lo <= t_hi:
                    t = float(scale_uniform(u_block[i], t_lo, t_hi))
                    self.state = self.state + t * direction
                    np.clip(self.state, self.slice.low, self.slice.high,
                            out=self.state)
            if record_every is not None and (i + 1) % record_every == 0:
                out[recorded] = self.state
                recorded += 1

    def _walk_vectorized(self, basis: np.ndarray, unit: np.ndarray,
                         norms: np.ndarray, u_block: np.ndarray,
                         record_every: Optional[int],
                         out: Optional[np.ndarray]) -> None:
        """Direct-ufunc walk into preallocated buffers.

        Bitwise-identical to :meth:`_walk_reference`: the chord quotients
        are the same elementwise operations (masked lanes are overwritten
        with ∓inf instead of compressed away), and min/max reductions are
        exact, so the trajectory cannot drift by even an ulp.
        """
        checkpoint = self._checkpoint
        state = self.state
        low, high = self.slice.low, self.slice.high
        n = self.slice.n
        d = np.empty(n)
        lo_t = np.empty(n)
        hi_t = np.empty(n)
        lower = np.empty(n)
        scratch = np.empty(n)
        still = np.empty(n, dtype=bool)
        recorded = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(len(u_block)):
                fault_site("hit_and_run.step")
                if checkpoint is not None:
                    checkpoint()
                if norms[i] != 0.0:
                    np.dot(basis, unit[i], out=d)
                    np.abs(d, out=scratch)
                    np.less_equal(scratch, CHORD_TOL, out=still)
                    if still.all():
                        raise SamplingError(
                            "degenerate direction for chord computation"
                        )
                    np.subtract(low, state, out=lo_t)
                    np.divide(lo_t, d, out=lo_t)
                    np.subtract(high, state, out=hi_t)
                    np.divide(hi_t, d, out=hi_t)
                    np.minimum(lo_t, hi_t, out=lower)
                    np.maximum(lo_t, hi_t, out=hi_t)
                    np.copyto(lower, -np.inf, where=still)
                    np.copyto(hi_t, np.inf, where=still)
                    t_lo = np.maximum.reduce(lower)
                    t_hi = np.minimum.reduce(hi_t)
                    if t_lo <= t_hi:
                        t = scale_uniform(u_block[i], t_lo, t_hi)
                        np.multiply(d, t, out=d)
                        np.add(state, d, out=state)
                        np.maximum(state, low, out=state)
                        np.minimum(state, high, out=state)
                if record_every is not None and (i + 1) % record_every == 0:
                    out[recorded] = state
                    recorded += 1

    # ------------------------------------------------------------------
    # Sampling API
    # ------------------------------------------------------------------

    def sample(self) -> np.ndarray:
        """Advance ``steps_per_sample`` transitions and return a copy."""
        self._advance(self.steps_per_sample)
        return self.state.copy()

    def samples(self, count: int) -> np.ndarray:
        """``count`` thinned samples, stacked ``(count, n)``.

        Draws the whole randomness block for ``count * steps_per_sample``
        transitions up front (all directions, then all positions).  Note
        the block layout makes the stream a function of the *call*, not
        the transition index: one ``samples(n)`` consumes its randomness
        in a different interleaving than ``n`` ``sample()`` calls, so the
        two produce different (equally valid) trajectories.  Within a
        call, vectorized and reference modes are bitwise-identical.
        """
        out = np.empty((count, self.slice.n))
        if count > 0:
            self._advance(count * self.steps_per_sample,
                          record_every=self.steps_per_sample, out=out)
        return out

    # ------------------------------------------------------------------
    # Ensemble sampling (the posterior-estimation hot path)
    # ------------------------------------------------------------------

    def samples_ensemble(self, count: int,
                         steps: Optional[int] = None) -> np.ndarray:
        """``count`` *independent* chains from the current state, ``(count, n)``.

        Every chain is advanced ``steps`` transitions from ``self.state``
        (default ``2 * steps_per_sample``): the chains are mutually
        independent instead of autocorrelated, and the walk vectorizes
        **across chains** — each lockstep transition processes the whole
        ensemble with a handful of ufunc calls on small reused buffers.
        Because every chain shares the seed state, the finite-burn-in
        bias does not average out the way a sequential chain's
        accumulated mixing does; doubling the per-chain budget brings the
        bucket-probability error below the sequential thinned
        estimator's (measured in the statistical suite), at a fraction of
        its wall-clock cost.  This is how the probabilistic auditors
        estimate posterior bucket probabilities.  ``self.state`` is not
        advanced.

        Cancellation checkpoints and fault sites still fire once per
        underlying transition (``count * steps`` in total), so budget
        step accounting tracks real MCMC work.
        """
        n = self.slice.n
        if count <= 0:
            return np.empty((0, n))
        checkpoint = self._checkpoint
        basis = self.slice.null_basis()
        dim = basis.shape[1]
        if steps is None:
            steps = 2 * self.steps_per_sample
        if dim == 0:
            for _ in range(count * steps):
                fault_site("hit_and_run.step")
                if checkpoint is not None:
                    checkpoint()
            return np.tile(self.state, (count, 1))
        # Canonical block order (step-major): every Gaussian, then every
        # position; chain c's step-s draws are row ``s * count + c``.
        gauss = self._rng.standard_normal((steps * count, dim))
        u_block = uniform_block(self._rng, steps * count)
        directions = _EnsembleDirections(basis, gauss, count)
        if self.vectorized:
            return self._ensemble_vectorized(directions, u_block, steps)
        return self._ensemble_reference(directions, u_block, steps)

    def _ensemble_reference(self, directions: _EnsembleDirections,
                            u_block: np.ndarray, steps: int) -> np.ndarray:
        """Chain-by-chain scalar walk over the same direction columns."""
        checkpoint = self._checkpoint
        n, count = self.slice.n, directions.count
        block = np.empty((steps, n, count))
        zero = np.zeros((steps, count), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(steps):
                degenerate = directions.fill(s, block[s])
                if degenerate is not None:  # pragma: no cover - measure zero
                    zero[s] = degenerate
        out = np.empty((count, n))
        for c in range(count):
            state = self.state.copy()
            for s in range(steps):
                fault_site("hit_and_run.step")
                if checkpoint is not None:
                    checkpoint()
                if zero[s, c]:  # pragma: no cover - measure zero
                    continue
                direction = block[s, :, c]
                t_lo, t_hi = self.slice.chord(state, direction)
                if t_lo <= t_hi:
                    t = float(scale_uniform(u_block[s * count + c],
                                            t_lo, t_hi))
                    state = state + t * direction
                    np.clip(state, self.slice.low, self.slice.high,
                            out=state)
            out[c] = state
        return out

    def _ensemble_vectorized(self, directions: _EnsembleDirections,
                             u_block: np.ndarray, steps: int) -> np.ndarray:
        """Lockstep walk of all chains; bitwise-identical to the reference.

        The ensemble is held coordinate-major, ``(n, count)``, in a few
        small buffers reused every step, so the chord reductions run down
        columns over contiguous rows of ``count`` chains.  The chord
        quotients are the reference's elementwise operations (lanes that
        do not move are overwritten with ∓inf instead of compressed
        away), min/max reductions are exact, and a chain whose chord is
        empty this step jumps by ``t = 0``.  Only a step whose ``min |d|``
        is within :data:`CHORD_TOL` builds the non-moving mask.
        """
        checkpoint = self._checkpoint
        # Skipping the per-transition loop changes nothing observable when
        # no checkpoint counts it and no fault plan can fire in it.
        per_transition = checkpoint is not None or plan_active()
        low, high = self.slice.low, self.slice.high
        n, count = self.slice.n, directions.count
        states = np.empty((n, count))
        states[...] = self.state[:, None]
        d = np.empty((n, count))
        lo_t = np.empty((n, count))
        hi_t = np.empty((n, count))
        lower = np.empty((n, count))
        t_lo = np.empty(count)
        t_hi = np.empty(count)
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(steps):
                if per_transition:
                    for _ in range(count):
                        fault_site("hit_and_run.step")
                        if checkpoint is not None:
                            checkpoint()
                zero = directions.fill(s, d)
                np.subtract(low, states, out=lo_t)
                np.divide(lo_t, d, out=lo_t)
                np.subtract(high, states, out=hi_t)
                np.divide(hi_t, d, out=hi_t)
                np.minimum(lo_t, hi_t, out=lower)
                np.maximum(lo_t, hi_t, out=hi_t)
                absd = np.abs(d, out=lo_t)
                if not np.minimum.reduce(absd, axis=None) > CHORD_TOL:
                    still = absd <= CHORD_TOL
                    stuck = still.all(axis=0)
                    if zero is not None:  # pragma: no cover - measure zero
                        stuck &= ~zero
                    if stuck.any():
                        raise SamplingError(
                            "degenerate direction for chord computation"
                        )
                    np.copyto(lower, -np.inf, where=still)
                    np.copyto(hi_t, np.inf, where=still)
                np.maximum.reduce(lower, axis=0, out=t_lo)
                np.minimum.reduce(hi_t, axis=0, out=t_hi)
                t = scale_uniform(u_block[s * count:(s + 1) * count],
                                  t_lo, t_hi)
                valid = t_lo <= t_hi
                if zero is not None:  # pragma: no cover - measure zero
                    valid &= ~zero
                if not valid.all():
                    np.copyto(t, 0.0, where=~valid)
                np.multiply(d, t, out=d)
                np.add(states, d, out=states)
                np.maximum(states, low, out=states)
                np.minimum(states, high, out=states)
        return np.ascontiguousarray(states.T)


#: Ensembles whose whole direction product takes at most this many
#: multiply-adds (rows x n x dim) compute it in one GEMM up front, as all
#: ensembles once did.  OpenBLAS (0.3.31, SkylakeX kernels) sends products
#: this small to its small-matrix kernel, whose rows per-step calls do not
#: reproduce bitwise.  Larger products go to its blocked kernel, whose rows
#: one ``basis @ unit.T`` call per step reproduces exactly (checked for
#: n = 2-100 with 1-400 chains).
_WHOLE_BLOCK_MACS = 10**6


def _unit_rows(gauss: np.ndarray, unit: np.ndarray,
               norms: np.ndarray) -> None:
    """``unit = gauss / |gauss|`` row by row, into ``unit`` and ``norms``.

    The same IEEE operations per element as
    :func:`repro.rng.direction_block` (a row-wise pairwise sum of
    squares, one square root, one division).
    """
    np.multiply(gauss, gauss, out=unit)
    np.add.reduce(unit, axis=1, out=norms)
    np.sqrt(norms, out=norms)
    np.divide(gauss, norms[:, None], out=unit)


class _EnsembleDirections:
    """The direction kernel both ensemble modes read: step ``s``'s
    directions as columns of an ``(n, count)`` array.

    Column ``c`` is chain ``c``'s Gaussian row divided by its norm, times
    the null basis.  Small ensembles (see :data:`_WHOLE_BLOCK_MACS`),
    and single chains, whose per-step product NumPy would hand to GEMV,
    multiply every row in one GEMM at construction.  Larger ones
    normalise and multiply one step's rows at a time into buffers reused
    every step.  A zero-norm Gaussian row (measure zero) yields a zero
    direction, which the walks skip.  Call :meth:`fill` under
    ``np.errstate(invalid="ignore")``.
    """

    def __init__(self, basis: np.ndarray, gauss: np.ndarray,
                 count: int) -> None:
        self.basis = basis
        self.gauss = gauss
        self.count = count
        rows, dim = gauss.shape
        self.block: Optional[np.ndarray] = None
        if count < 2 or rows * basis.shape[0] * dim <= _WHOLE_BLOCK_MACS:
            unit = np.empty_like(gauss)
            norms = np.empty(rows)
            with np.errstate(invalid="ignore"):
                _unit_rows(gauss, unit, norms)
            self.block = unit @ basis.T
            self.zero = norms == 0.0
            self.block[self.zero] = 0.0
        else:
            self.unit = np.empty((count, dim))
            self.norms = np.empty(count)

    def fill(self, s: int, out: np.ndarray) -> Optional[np.ndarray]:
        """Write step ``s``'s directions into ``out``; return the step's
        zero-direction mask, or ``None`` when every chain moves."""
        lo, hi = s * self.count, (s + 1) * self.count
        if self.block is not None:
            np.copyto(out, self.block[lo:hi].T)
            zero = self.zero[lo:hi]
            return zero if zero.any() else None
        _unit_rows(self.gauss[lo:hi], self.unit, self.norms)
        np.matmul(self.basis, self.unit.T, out=out)
        if np.count_nonzero(self.norms) < self.count:  # pragma: no cover
            zero = self.norms == 0.0  # measure zero
            out[:, zero] = 0.0
            return zero
        return None
