"""Sampling datasets from the posterior ``P(X | B)`` (Lemma 1).

The generative procedure proved correct in Lemma 1:

1. sample a colouring ``c`` from ``P~``;
2. set ``x_{c(v)} = A(v)`` for each equality predicate ``v``;
3. sample every remaining ``x_i`` uniformly from its range ``R_i``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..rng import RngLike, as_generator, scale_uniform, uniform_block
from ..synopsis.combined import CombinedSynopsis
from .chain import ColoringChain
from .graph import Coloring, ColoringGraph


def _containing_bucket(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """0-based bucket index containing each value (boundary values belong
    to the left bucket, matching the paper's ``ceil`` convention)."""
    idx = np.searchsorted(edges, values, side="left") - 1
    return np.clip(idx, 0, len(edges) - 2)


def dataset_from_coloring(graph: ColoringGraph, coloring: Coloring,
                          rng: RngLike = None) -> List[float]:
    """Materialise a dataset from a colouring (steps 2–3 of Lemma 1).

    Witnesses take their predicate's value, point ranges their point, and
    the uniform fills are drawn as one block over the remaining elements
    in index order, which is bitwise-identical to per-element
    ``Generator.uniform`` calls.
    """
    gen = as_generator(rng)
    lo, lo_closed, hi, hi_closed = graph.ranges
    values = lo.copy()
    free = ~((lo == hi) & lo_closed & hi_closed)
    witnesses = [coloring[node.node_id] for node in graph.nodes]
    values[witnesses] = [node.value for node in graph.nodes]
    free[witnesses] = False
    free_idx = np.flatnonzero(free)
    if free_idx.size:
        values[free_idx] = scale_uniform(uniform_block(gen, free_idx.size),
                                         lo[free_idx], hi[free_idx])
    return values.tolist()


class PosteriorSampler:
    """Draws datasets consistent with a combined synopsis via the chain.

    Parameters
    ----------
    synopsis:
        The propagated combined synopsis ``B``.
    initial_dataset:
        Optional dataset consistent with ``B`` used to derive the initial
        colouring (the paper initialises from the true database state); when
        omitted a valid colouring is found by backtracking.
    burn_in:
        Chain steps before the first sample; defaults to the Lemma 3 budget.
    thin:
        Chain steps between consecutive samples.
    checkpoint:
        Optional cooperative-cancellation hook, invoked once per chain
        transition (see :class:`repro.resilience.budget.BudgetScope`).
    vectorized:
        Whether the underlying chain resolves proposals in batches; the
        scalar reference path (``False``) is bitwise-identical (see
        :class:`ColoringChain`).
    """

    def __init__(self, synopsis: CombinedSynopsis,
                 initial_dataset: Optional[List[float]] = None,
                 rng: RngLike = None,
                 burn_in: Optional[int] = None,
                 thin: Optional[int] = None,
                 checkpoint: Optional[Callable[[], None]] = None,
                 vectorized: bool = True):
        self._rng = as_generator(rng)
        self.graph = ColoringGraph(synopsis)
        if initial_dataset is not None:
            initial = self.graph.coloring_from_dataset(initial_dataset)
        elif self.graph.k:
            initial = self.graph.find_valid_coloring()
        else:
            initial = {}
        self.chain = ColoringChain(self.graph, initial, rng=self._rng,
                                   checkpoint=checkpoint,
                                   vectorized=vectorized)
        default = self.chain.default_steps()
        self.burn_in = default if burn_in is None else burn_in
        self.thin = max(1, default // 4) if thin is None else thin
        self._warmed = False

    def sample_coloring(self) -> Coloring:
        """One colouring drawn (approximately) from ``P~``."""
        if not self._warmed:
            self.chain.run(self.burn_in)
            self._warmed = True
        else:
            self.chain.run(self.thin)
        return dict(self.chain.state)

    def sample_dataset(self) -> List[float]:
        """One dataset drawn (approximately) from ``P(X | B)``."""
        return dataset_from_coloring(self.graph, self.sample_coloring(),
                                     rng=self._rng)

    def sample_datasets(self, count: int) -> List[List[float]]:
        """``count`` (thinned) posterior datasets."""
        return [self.sample_dataset() for _ in range(count)]

    def estimate_witness_probabilities(self, count: int) -> Dict[int, Dict[int, float]]:
        """Monte Carlo estimate of ``Pr{c(v) = i | B}`` per node.

        Returns ``{node_id: {element: probability}}`` from ``count`` thinned
        colouring samples (no dataset materialisation needed).
        """
        counts: Dict[int, Dict[int, float]] = {
            node.node_id: {} for node in self.graph.nodes
        }
        for _ in range(count):
            coloring = self.sample_coloring()
            for node_id, element in coloring.items():
                bucket = counts[node_id]
                bucket[element] = bucket.get(element, 0.0) + 1.0
        for node_id, bucket in sorted(counts.items()):
            for element in sorted(bucket):
                bucket[element] /= count
        return counts

    def estimate_interval_probabilities(
        self, count: int, edges: np.ndarray
    ) -> np.ndarray:
        """Rao-Blackwellised estimate of ``Pr{x_i in I_j | B}``.

        Only the *witness probabilities* are Monte Carlo quantities;
        conditioned on the colouring, every non-witness element is exactly
        uniform over its range ``R_i`` (Lemma 1 step 3), so the bucket mass
        is assembled analytically:

        ``P(x_i in I_j) = sum_v pi_i(v) [A(v) in I_j]
                          + (1 - sum_v pi_i(v)) |R_i ∩ I_j| / |R_i|``

        Returns an ``(n, gamma)`` matrix; ``edges`` has ``gamma + 1``
        increasing bucket boundaries.
        """
        lo, _, hi, _ = self.graph.ranges
        n = len(lo)
        gamma = len(edges) - 1
        witness = self.estimate_witness_probabilities(count) if count else {}
        probs = np.zeros((n, gamma), dtype=float)
        # Point-mass contributions from witness roles.  An element is a
        # colour of at most one max and one min node, so each cell sums at
        # most two terms and the summation order cannot change a bit.
        elements: List[int] = []
        buckets: List[int] = []
        masses: List[float] = []
        node_buckets = _containing_bucket(
            edges, [node.value for node in self.graph.nodes]).tolist()
        for node, bucket_idx in zip(self.graph.nodes, node_buckets):
            for element, pi in witness.get(node.node_id, {}).items():
                elements.append(element)
                buckets.append(bucket_idx)
                masses.append(pi)
        rows = np.array(elements, dtype=np.intp)
        np.add.at(probs, (rows, np.array(buckets, dtype=np.intp)), masses)
        point_mass = np.zeros(n)
        np.add.at(point_mass, rows, masses)
        # Exact uniform mass over each element's range for the rest.
        remaining = 1.0 - point_mass
        length = np.maximum(0.0, hi - lo)
        has_rest = remaining > 0.0
        point = np.flatnonzero(has_rest & (length <= 0.0))
        probs[point, _containing_bucket(edges, lo[point])] += remaining[point]
        spread = has_rest & (length > 0.0)
        for j in range(gamma):
            overlap = (np.minimum(hi, float(edges[j + 1]))
                       - np.maximum(lo, float(edges[j])))
            hit = np.flatnonzero(spread & (overlap > 0))
            probs[hit, j] += remaining[hit] * overlap[hit] / length[hit]
        return probs
