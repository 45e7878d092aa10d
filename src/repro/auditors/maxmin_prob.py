"""Probabilistic (partial-disclosure) max-and-min auditor — Section 3.2.

The posterior given a combined synopsis ``B = (B_max, B_min)`` is no longer
closed-form: which element witnesses each equality predicate couples the
elements.  Lemma 1 factors the posterior through *colourings* of the
predicate-intersection graph; the Markov chain of Lemma 2/3 samples
colourings from ``P~(c) ∝ Π ℓ_{c(v)}``, and datasets follow by filling the
non-witness elements uniformly in their ranges.

Decision procedure (simulatable):

1. **structural guard** — Lemma 2 needs ``|S(v)| >= d_v + 2`` at every node;
   queries for which *some consistent answer* could violate it in the
   updated synopsis are denied outright (the paper's "outright denials do
   not affect the probability of an attacker winning");
2. **sampling check** — draw datasets ``X'`` consistent with ``B``; for each,
   compute the hypothetical answer, build the what-if synopsis, estimate the
   posterior bucket probabilities by the colouring sampler, and flag the
   draw unsafe when some ratio leaves the ``lambda`` band; deny when the
   unsafe fraction exceeds ``delta / 2T`` (Theorem 2).
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..coloring.graph import lemma2_holds, predicate_graph
from ..coloring.sampler import PosteriorSampler
from ..exceptions import InconsistentAnswersError, PrivacyParameterError
from ..privacy.compromise import ratios_within_band
from ..privacy.intervals import IntervalGrid
from ..resilience.budget import Budget, BudgetScope, run_fail_closed
from ..rng import RngLike, as_generator
from ..sdb.dataset import Dataset
from ..synopsis.combined import CombinedSynopsis
from ..types import (
    SAMPLED_BREACH_DETAIL,
    AggregateKind,
    AuditDecision,
    DenialReason,
    Query,
)
from .base import Auditor
from .candidates import candidate_answers


class MaxMinProbabilisticAuditor(Auditor):
    """The Section 3.2 simulatable auditor for bags of max and min queries.

    Parameters
    ----------
    dataset:
        Duplicate-free values in ``[dataset.low, dataset.high]``, modelled
        as uniform on the cube.
    lam, gamma, delta, rounds:
        The ``(lambda, delta, gamma, T)``-privacy parameters.
    num_outer:
        Sampled candidate datasets per decision.
    num_inner:
        Posterior Monte Carlo samples per candidate dataset.
    mc_tolerance:
        Ratio-band slack absorbing Monte Carlo noise (the paper's epsilon).
    budget:
        Optional per-query :class:`~repro.resilience.budget.Budget`; when
        set, decisions run under its deadline/step caps with bounded
        retry-and-reseed and fail closed to a ``RESOURCE_EXHAUSTED``
        denial on exhaustion.
    vectorized:
        Whether the colouring chain resolves proposals in batches
        (default) or one transition at a time from the same pre-drawn
        randomness blocks; both modes release bitwise-identical
        decisions.
    """

    supported_kinds = frozenset({AggregateKind.MAX, AggregateKind.MIN})

    def __init__(self, dataset: Dataset, lam: float = 0.2, gamma: int = 4,
                 delta: float = 0.2, rounds: int = 20,
                 num_outer: int = 8, num_inner: int = 120,
                 mc_tolerance: float = 0.15, rng: RngLike = None,
                 budget: Optional[Budget] = None,
                 vectorized: bool = True):
        super().__init__(dataset)
        dataset.require_duplicate_free()
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
        self.vectorized = vectorized
        self._synopsis = CombinedSynopsis(dataset.n, dataset.low, dataset.high)
        self._answers: List[float] = []

    # ------------------------------------------------------------------
    # Structural guard (Lemma 2 precondition)
    # ------------------------------------------------------------------

    def _lemma2_violated_for_some_answer(
            self, query: Query, gen: np.random.Generator,
            checkpoint=None) -> bool:
        """Could any consistent answer break ``|S(v)| >= d_v + 2``?

        Checks the finite candidate grid (the same Theorem 5 style points
        used by the classical auditor, plus a few posterior-sampled answers)
        — simulatable because only past answers and the query are used.
        """
        candidates = set(candidate_answers(sorted(set(self._answers)),
                                           forbidden=set(self._answers)))
        candidates.update(self._sampled_candidate_answers(
            query, count=3, gen=gen, checkpoint=checkpoint))
        for a in candidates:
            if not self.grid.low <= a <= self.grid.high:
                continue
            try:
                trial = self._synopsis.what_if(query.kind, query.query_set, a)
            except InconsistentAnswersError:
                continue
            if not lemma2_holds(*predicate_graph(trial)):
                return True
        return False

    def _sampled_candidate_answers(self, query: Query, count: int,
                                   gen: np.random.Generator,
                                   checkpoint=None) -> Set[float]:
        sampler = self._make_sampler(self._synopsis, gen=gen,
                                     checkpoint=checkpoint)
        members = [int(i) for i in query.sorted_indices()]
        agg = max if query.kind is AggregateKind.MAX else min
        answers = set()
        for _ in range(count):
            data = sampler.sample_dataset()
            answers.add(float(agg(data[i] for i in members)))
        return answers

    # ------------------------------------------------------------------
    # Sampling machinery
    # ------------------------------------------------------------------

    def _make_sampler(self, synopsis: CombinedSynopsis,
                      seed_dataset: Optional[List[float]] = None,
                      gen: Optional[np.random.Generator] = None,
                      checkpoint=None) -> PosteriorSampler:
        if seed_dataset is None:
            # The true database state is always consistent with the real
            # synopsis (the paper initialises the chain from it).
            # simulatability: violation -- MCMC chain seeded at the true data;
            # the stationary distribution depends only on past answers
            seed_dataset = list(self.dataset.values)
        return PosteriorSampler(synopsis, initial_dataset=seed_dataset,
                                rng=self._rng if gen is None else gen,
                                checkpoint=checkpoint,
                                vectorized=self.vectorized)

    def _posterior_buckets(self, synopsis: CombinedSynopsis,
                           seed_dataset: List[float],
                           gen: np.random.Generator,
                           checkpoint=None) -> np.ndarray:
        sampler = self._make_sampler(synopsis, seed_dataset=seed_dataset,
                                     gen=gen, checkpoint=checkpoint)
        return sampler.estimate_interval_probabilities(
            self.num_inner, self.grid.edges
        )

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

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
        if self._lemma2_violated_for_some_answer(query, gen,
                                                 checkpoint=checkpoint):
            return AuditDecision.deny(
                DenialReason.STRUCTURAL,
                "a consistent answer could violate the Lemma 2 chain "
                "precondition |S(v)| >= d_v + 2",
            )
        members = [int(i) for i in query.sorted_indices()]
        agg = max if query.kind is AggregateKind.MAX else min
        prior = np.full(self.grid.gamma, self.grid.prior)
        outer = self._make_sampler(self._synopsis, gen=gen,
                                   checkpoint=checkpoint)
        unsafe = 0
        for _ in range(self.num_outer):
            candidate_dataset = outer.sample_dataset()
            answer = float(agg(candidate_dataset[i] for i in members))
            try:
                trial = self._synopsis.what_if(query.kind, query.query_set,
                                               answer)
            except InconsistentAnswersError:  # pragma: no cover - measure zero
                unsafe += 1
                continue
            posterior = self._posterior_buckets(trial, candidate_dataset,
                                                gen, checkpoint=checkpoint)
            if not ratios_within_band(posterior, prior, self.lam,
                                      tol=self.mc_tolerance):
                unsafe += 1
        if unsafe / self.num_outer > self.threshold:
            return AuditDecision.deny(DenialReason.PARTIAL_DISCLOSURE,
                                      SAMPLED_BREACH_DETAIL)
        return None

    def _record_answer(self, query: Query, value: float) -> None:
        self._synopsis.insert(query.kind, query.query_set, value)
        self._answers.append(value)

    # ------------------------------------------------------------------

    @property
    def synopsis(self) -> CombinedSynopsis:
        """The maintained combined synopsis ``B``."""
        return self._synopsis
