"""Probabilistic (partial-disclosure) max auditor — Algorithms 1 and 2 (§3.1).

Data model: ``X`` drawn uniformly from the duplicate-free points of
``[low, high]^n`` (the paper's unit cube, rescaled).  The auditor maintains
the max synopsis ``B_max``; the posterior of each element given ``B_max`` is
closed-form (uniform below its bound, plus a point mass for equality
predicates), which makes the safety check — Algorithm 1 — exact and ``O(n)``
per evaluation.

The simulatable decision (Algorithm 2) estimates the probability, over
datasets drawn from the conditional distribution given past answers, that
answering the new query would drive some posterior/prior bucket ratio out of
the ``lambda`` band; the query is denied when the estimated probability
exceeds ``delta / 2T``.  Theorem 1 proves this ``(lambda, delta, gamma, T)``-
private.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from ..exceptions import InconsistentAnswersError, PrivacyParameterError
from ..privacy.compromise import ratios_within_band
from ..privacy.intervals import IntervalGrid
from ..privacy.posterior import (
    general_prior,
    max_predicate_bucket_probabilities,
    max_predicate_bucket_probabilities_general,
)
from ..resilience.budget import Budget, BudgetScope, run_fail_closed
from ..rng import (
    RngLike,
    as_generator,
    integer_block,
    scale_uniform,
    skip_uniforms,
    skips_uniforms,
    uniform_block,
)
from ..sdb.dataset import Dataset
from ..synopsis.extreme_synopsis import ExtremeSynopsis, MaxSynopsis
from ..types import (
    SAMPLED_BREACH_DETAIL,
    AggregateKind,
    AuditDecision,
    DenialReason,
    Query,
)
from .base import Auditor


def algorithm1_safe(synopsis: ExtremeSynopsis, grid: IntervalGrid,
                    lam: float, distribution=None) -> bool:
    """Algorithm 1: is every element safe w.r.t. every interval?

    Equivalent to the paper's per-element, per-interval loop, but evaluated
    once per predicate (all members of a predicate share their posterior and
    free elements are at the prior).  With ``distribution`` set, priors and
    posteriors follow that i.i.d. data model instead of uniform — the
    extension the paper's §3.1 anticipates.
    """
    if distribution is None:
        prior = np.full(grid.gamma, grid.prior)

        def posterior(pred):
            return max_predicate_bucket_probabilities(grid, pred)
    else:
        prior = general_prior(grid, distribution)
        if np.any(prior <= 0.0):
            # A bucket the prior cannot reach makes the ratio ill-defined;
            # treat as unsafe (the attacker's confidence is unbounded).
            return False

        def posterior(pred):
            return max_predicate_bucket_probabilities_general(
                grid, pred, distribution
            )
    for pred in synopsis.predicates():
        if not ratios_within_band(posterior(pred), prior, lam):
            return False
    return True


def algorithm1_safe_reference(synopsis: ExtremeSynopsis, grid: IntervalGrid,
                              lam: float) -> bool:
    """Literal transcription of Algorithm 1 (per element, per interval).

    Slow; kept as the reference the vectorised version is tested against.
    """
    gamma = grid.gamma
    lo_band = 1.0 - lam
    hi_band = 1.0 / (1.0 - lam)
    tol = 1e-12
    span = grid.high - grid.low
    for i in range(synopsis.n):
        pred = synopsis.predicate_of(i)
        if pred is None:
            continue  # posterior equals prior: every interval is safe
        scaled = (pred.value - grid.low) / span * gamma  # M * gamma
        t = grid.containing(pred.value)                  # ceil(M * gamma)
        if pred.equality:
            y = (1.0 - 1.0 / pred.size) / scaled
            point_mass = 1.0 / pred.size
        else:
            y = 1.0 / scaled
            point_mass = 0.0
        for j in range(1, gamma + 1):
            if j < t:
                ratio = gamma * y
            elif j == t:
                ratio = gamma * (y * (scaled - t + 1) + point_mass)
            else:
                ratio = 0.0  # I_j lies beyond M: always unsafe
            if not lo_band - tol <= ratio <= hi_band + tol:
                return False
    return True


class MaxProbabilisticAuditor(Auditor):
    """The Section 3.1 simulatable auditor for max queries.

    Parameters
    ----------
    dataset:
        Duplicate-free dataset; values must lie in ``[dataset.low,
        dataset.high]`` (the assumed public range).
    lam, gamma, delta, rounds:
        The ``(lambda, delta, gamma, T)``-privacy parameters.
    num_samples:
        Monte Carlo draws per decision; the paper's analysis uses
        ``O((1/delta) log(1/delta))`` — the default scales with that but is
        capped for practicality.
    distribution:
        Optional :class:`~repro.privacy.distributions.DataDistribution`
        modelling the (public) data distribution; defaults to uniform on
        ``[dataset.low, dataset.high]`` as in the paper.
    budget:
        Optional per-query :class:`~repro.resilience.budget.Budget`; when
        set, decisions run under its deadline/step caps with bounded
        retry-and-reseed and fail closed to a ``RESOURCE_EXHAUSTED``
        denial on exhaustion.
    vectorized:
        Whether a decision reads only the samples it checks (default) or
        draws the whole block and assembles it row by row (the
        reference).  When one unsafe sample denies, the default reads
        sample 0 and jumps a PCG64 generator past the rest, drawing the
        whole block only if sample 0 leaves the decision open; otherwise,
        and for a non-uniform ``distribution`` or another bit generator,
        it draws the whole block and assembles it in one batch.  Both
        modes release bitwise-identical decisions and leave the
        generator in the same state.
    """

    supported_kinds = frozenset({AggregateKind.MAX})

    def __init__(self, dataset: Dataset, lam: float = 0.05, gamma: int = 10,
                 delta: float = 0.05, rounds: int = 100,
                 num_samples: Optional[int] = None, rng: RngLike = None,
                 distribution=None, budget: Optional[Budget] = None,
                 vectorized: bool = True):
        super().__init__(dataset)
        dataset.require_duplicate_free()
        if not 0 < delta < 1:
            raise PrivacyParameterError("delta must lie in (0, 1)")
        if rounds < 1:
            raise PrivacyParameterError("rounds (T) must be positive")
        self.grid = IntervalGrid(gamma, dataset.low, dataset.high)
        self.lam = lam
        self.delta = delta
        self.rounds = rounds
        self.threshold = delta / (2.0 * rounds)
        if num_samples is None:
            suggested = (1.0 / delta) * math.log(1.0 / delta)
            num_samples = int(min(400, max(60, math.ceil(suggested))))
        if num_samples < 1:
            raise PrivacyParameterError("num_samples must be positive")
        self.num_samples = num_samples
        self._rng = as_generator(rng)
        self.budget = budget
        self.vectorized = vectorized
        # Public model parameters (range and size are known to the attacker;
        # caching them keeps the decision path off the sensitive values).
        self._n = dataset.n
        self._low = dataset.low
        self._high = dataset.high
        self.distribution = distribution
        self._synopsis = MaxSynopsis(dataset.n, limit=dataset.high)

    # ------------------------------------------------------------------
    # Sampling consistent datasets
    # ------------------------------------------------------------------

    def sample_consistent_dataset(
            self, gen: Optional[np.random.Generator] = None) -> np.ndarray:
        """A dataset drawn uniformly from those consistent with past answers.

        Per predicate: an equality predicate picks a uniform witness set to
        the bound, the rest uniform below it; a strict predicate draws all
        members below the bound; free elements are uniform on the range.
        Duplicates occur with probability zero.
        """
        if gen is None:
            gen = self._rng
        dist = self.distribution
        if dist is None:
            values = gen.uniform(self._low, self._high, size=self._n)
        else:
            values = dist.sample(gen, self._n)
        for pred in self._synopsis.predicates():
            members = sorted(pred.elements)
            if dist is None:
                draws = gen.uniform(self._low, pred.value,
                                    size=len(members))
            else:
                draws = dist.sample_below(gen, pred.value, len(members))
            values[members] = draws
            if pred.equality:
                witness = members[int(gen.integers(len(members)))]
                values[witness] = pred.value
        return values

    def sample_consistent_datasets(
            self, count: int,
            gen: Optional[np.random.Generator] = None) -> np.ndarray:
        """``count`` consistent datasets, stacked ``(count, n)``.

        All randomness is pre-drawn in a canonical block order (base
        values, then per-predicate member draws and witness picks); the
        vectorized and row-by-row assembly paths consume the same blocks
        with elementwise-identical arithmetic, so they are
        bitwise-identical.
        """
        if gen is None:
            gen = self._rng
        n = self._n
        if count <= 0:
            return np.empty((0, n))
        base, pred_blocks = self._draw_blocks(count, gen)
        if self.vectorized:
            values = base.reshape(count, n)
            for members, bound, draws, witnesses in pred_blocks:
                values[:, members] = draws.reshape(count, len(members))
                if witnesses is not None:
                    cols = np.asarray(members)[witnesses]
                    values[np.arange(count), cols] = bound
            return values
        out = np.empty((count, n))
        for c in range(count):
            out[c] = self._assemble_row(base, pred_blocks, c)
        return out

    def _draw_blocks(self, count: int, gen: np.random.Generator,
                     first_only: bool = False) -> Tuple[np.ndarray, list]:
        """The canonical blocks of ``count`` samples: base values, then
        per predicate ``(members, bound, draws, witnesses)``.

        With ``first_only`` (uniform prior, a generator that passes
        :func:`~repro.rng.skips_uniforms`), each uniform block keeps only
        sample 0's values and skips the rest on ``gen``.  Witness picks
        are drawn whole, since Lemire rejection spends a varying number
        of words, so ``gen`` still ends where the whole draw ends it.
        """
        dist = self.distribution
        n = self._n
        kept = 1 if first_only else count

        def uniforms(width: int, high: float) -> np.ndarray:
            u = uniform_block(gen, kept * width)
            if first_only:
                skip_uniforms(gen, (count - 1) * width)
            return scale_uniform(u, self._low, high)

        if dist is None:
            base = uniforms(n, self._high)
        else:
            base = np.concatenate(
                [dist.sample(gen, n) for _ in range(count)]
            )
        pred_blocks = []
        for pred in self._synopsis.predicates():
            members = sorted(pred.elements)
            m = len(members)
            if dist is None:
                draws = uniforms(m, pred.value)
            else:
                draws = np.concatenate(
                    [dist.sample_below(gen, pred.value, m)
                     for _ in range(count)]
                )
            witnesses = (integer_block(gen, m, count)
                         if pred.equality else None)
            pred_blocks.append((members, pred.value, draws, witnesses))
        return base, pred_blocks

    def _assemble_row(self, base: np.ndarray, pred_blocks: list,
                      c: int) -> np.ndarray:
        """Sample ``c`` from the blocks of :meth:`_draw_blocks`, whole
        or ``first_only`` (then ``c`` is 0)."""
        n = self._n
        row = base[c * n:(c + 1) * n].copy()
        for members, bound, draws, witnesses in pred_blocks:
            m = len(members)
            row[members] = draws[c * m:(c + 1) * m]
            if witnesses is not None:
                row[members[int(witnesses[c])]] = bound
        return row

    def _samples_in_order(self, gen: np.random.Generator
                          ) -> Iterator[np.ndarray]:
        """The rows of ``sample_consistent_datasets(num_samples, gen)``,
        none drawn before the decision asks for it.

        When one unsafe sample denies (``1 / N > delta / 2T``, as at the
        ``serve`` defaults) and ``gen`` can skip, row 0 is read with the
        other samples skipped, which leaves ``gen`` where the whole draw
        would.  A decision that stops at row 0 never resumes this
        generator; one that asks for row 1 rewinds ``gen`` and draws
        the whole block.
        """
        count = self.num_samples
        if (self.vectorized and self.distribution is None
                and 1 / count > self.threshold and skips_uniforms(gen)):
            rewind = gen.bit_generator.state
            base, pred_blocks = self._draw_blocks(count, gen,
                                                  first_only=True)
            yield self._assemble_row(base, pred_blocks, 0)
            gen.bit_generator.state = rewind
            yield from self.sample_consistent_datasets(count, gen)[1:]
        else:
            yield from self.sample_consistent_datasets(count, gen)

    # ------------------------------------------------------------------
    # Decision (Algorithm 2)
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
        members = list(query.sorted_indices())
        # Before any row is checked the stream is where the whole block
        # leaves it, so stopping early ends it where full evaluation does.
        unsafe = 0
        for s, sample in enumerate(self._samples_in_order(gen)):
            if scope is not None:
                # No inner MCMC chain here: one Monte Carlo draw is the
                # natural cancellation granularity.
                scope.checkpoint()
            answer = float(sample[members].max())
            trial = self._synopsis.copy()
            try:
                trial.insert(query.query_set, answer)
            except InconsistentAnswersError:  # pragma: no cover - measure zero
                unsafe += 1
            else:
                if not algorithm1_safe(trial, self.grid, self.lam,
                                       distribution=self.distribution):
                    unsafe += 1
            # Both tests are monotone in the final count, so the first one
            # to hold fixes the decision full evaluation would reach.
            if unsafe / self.num_samples > self.threshold:
                return AuditDecision.deny(DenialReason.PARTIAL_DISCLOSURE,
                                          SAMPLED_BREACH_DETAIL)
            remaining = self.num_samples - s - 1
            if (unsafe + remaining) / self.num_samples <= self.threshold:
                return None
        return None

    def _record_answer(self, query: Query, value: float) -> None:
        self._synopsis.insert(query.query_set, value)

    # ------------------------------------------------------------------

    @property
    def synopsis(self) -> ExtremeSynopsis:
        """The maintained max synopsis ``B_max``."""
        return self._synopsis
