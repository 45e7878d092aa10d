"""Probabilistic (partial-disclosure) sum auditor — the [21] baseline.

This is the auditor the paper's Section 3.1 compares against: for data
uniform on ``[low, high]^n``, conditioning on answered sum queries yields a
uniform distribution over a convex polytope (an affine slice of the cube),
and every probability the safety check needs requires estimating volumes —
here via hit-and-run sampling.  It is *decidedly less efficient* than the
closed-form max auditor, which the runtime benchmark
(`benchmarks/bench_prob_auditor_runtime.py`) demonstrates.

Decision procedure (simulatable, mirroring Algorithm 2): draw datasets
consistent with past answers; for each, compute the hypothetical answer and
Monte-Carlo-estimate the resulting posterior bucket probabilities; deny when
the unsafe fraction exceeds ``delta / 2T``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import PrivacyParameterError
from ..privacy.compromise import ratios_within_band
from ..privacy.intervals import IntervalGrid
from ..polytope.halfspace import AffineSlice
from ..polytope.hit_and_run import HitAndRunSampler
from ..resilience.budget import Budget, BudgetScope, run_fail_closed
from ..rng import RngLike, as_generator
from ..sdb.dataset import Dataset
from ..types import (
    SAMPLED_BREACH_DETAIL,
    AggregateKind,
    AuditDecision,
    DenialReason,
    Query,
)
from .base import Auditor


class SumProbabilisticAuditor(Auditor):
    """Partial-disclosure sum auditor via polytope sampling ([21]).

    Parameters
    ----------
    dataset:
        Values in ``[dataset.low, dataset.high]``, modelled as uniform.
    lam, gamma, delta, rounds:
        The ``(lambda, delta, gamma, T)``-privacy parameters.
    num_outer:
        Sampled candidate datasets per decision.
    num_inner:
        Posterior Monte Carlo samples per candidate.
    mc_tolerance:
        Slack added to the ratio band to absorb Monte Carlo noise (the
        paper's epsilon).
    budget:
        Optional per-query :class:`~repro.resilience.budget.Budget`; when
        set, decisions run under its deadline/step caps with bounded
        retry-and-reseed and fail closed to a
        ``RESOURCE_EXHAUSTED`` denial on exhaustion.
    steps_per_sample:
        Hit-and-run transitions per posterior sample (defaults to the
        sampler's ``4 * dim`` mixing budget).
    vectorized:
        Whether the samplers run their batched NumPy kernels (default)
        or the scalar reference walk over the same pre-drawn randomness
        blocks; both modes release bitwise-identical decisions, which
        the differential replay suite asserts.
    """

    supported_kinds = frozenset({AggregateKind.SUM})

    def __init__(self, dataset: Dataset, lam: float = 0.2, gamma: int = 4,
                 delta: float = 0.2, rounds: int = 20,
                 num_outer: int = 5, num_inner: int = 100,
                 mc_tolerance: float = 0.1, rng: RngLike = None,
                 budget: Optional[Budget] = None,
                 steps_per_sample: Optional[int] = None,
                 vectorized: bool = True):
        super().__init__(dataset)
        if not 0 < delta < 1:
            raise PrivacyParameterError("delta must lie in (0, 1)")
        self.grid = IntervalGrid(gamma, dataset.low, dataset.high)
        self.lam = lam
        self.delta = delta
        self.rounds = rounds
        self.threshold = delta / (2.0 * rounds)
        self.num_outer = num_outer
        self.num_inner = num_inner
        self.mc_tolerance = mc_tolerance
        self._rng = as_generator(rng)
        self.budget = budget
        self.steps_per_sample = steps_per_sample
        self.vectorized = vectorized
        self._slice = AffineSlice(dataset.n, dataset.low, dataset.high)

    # ------------------------------------------------------------------

    def _indicator(self, query: Query) -> np.ndarray:
        vec = np.zeros(self.dataset.n)
        vec[sorted(query.query_set)] = 1.0
        return vec

    def _posterior_buckets(self, slice_: AffineSlice,
                           seed_point: np.ndarray,
                           gen: np.random.Generator,
                           checkpoint=None) -> np.ndarray:
        """Monte Carlo posterior bucket probabilities, ``(n, gamma)``.

        Uses the sampler's ensemble API: ``num_inner`` independent
        chains from ``seed_point``, each spending the full per-sample
        mixing budget, walked in lockstep.  Bucketing is a single
        batched searchsorted + bincount over the ``(num_inner, n)``
        sample matrix.
        """
        sampler = HitAndRunSampler(slice_, seed_point, rng=gen,
                                   checkpoint=checkpoint,
                                   steps_per_sample=self.steps_per_sample,
                                   vectorized=self.vectorized)
        gamma = self.grid.gamma
        n = self.dataset.n
        samples = sampler.samples_ensemble(self.num_inner)
        buckets = np.clip(
            np.searchsorted(self.grid.edges, samples, side="right") - 1,
            0, gamma - 1,
        )
        flat = (buckets + np.arange(n) * gamma).ravel()
        counts = np.bincount(flat, minlength=n * gamma).reshape(n, gamma)
        return counts / float(self.num_inner)

    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        # Fail-closed: under a budget, deadline/step exhaustion and
        # persistent sampling failures become RESOURCE_EXHAUSTED denials.
        return run_fail_closed(
            self.budget, self._rng,
            lambda scope, gen: self._deny_reason_sampled(query, scope, gen),
        )

    def _deny_reason_sampled(self, query: Query,
                             scope: Optional[BudgetScope],
                             gen: np.random.Generator
                             ) -> Optional[AuditDecision]:
        checkpoint = scope.checkpoint if scope is not None else None
        vec = self._indicator(query)
        prior = np.full(self.grid.gamma, self.grid.prior)
        # Seed the consistent-dataset chain at the true data (feasible by
        # construction; the chain's stationary distribution depends only on
        # past answers, but the finite-sample seed is a real shortcut).
        # simulatability: violation -- MCMC chain seeded at the true data;
        # the stationary distribution depends only on past answers
        outer = HitAndRunSampler(self._slice, self.dataset.as_array(),
                                 rng=gen, checkpoint=checkpoint,
                                 steps_per_sample=self.steps_per_sample,
                                 vectorized=self.vectorized)
        unsafe = 0
        for _ in range(self.num_outer):
            candidate = outer.sample()
            answer = float(vec @ candidate)
            trial = AffineSlice(self.dataset.n, self.dataset.low,
                                self.dataset.high)
            a_mat, b_vec = self._slice.matrix()
            for row, rhs in zip(a_mat, b_vec):
                trial.add_equality(row, rhs)
            trial.add_equality(vec, answer)
            posterior = self._posterior_buckets(trial, candidate, gen,
                                                checkpoint=checkpoint)
            if not ratios_within_band(posterior, prior, self.lam,
                                      tol=self.mc_tolerance):
                unsafe += 1
        if unsafe / self.num_outer > self.threshold:
            return AuditDecision.deny(DenialReason.PARTIAL_DISCLOSURE,
                                      SAMPLED_BREACH_DETAIL)
        return None

    def _record_answer(self, query: Query, value: float) -> None:
        self._slice.add_equality(self._indicator(query), value)
