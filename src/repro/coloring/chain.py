"""The Markov chain ``M`` over valid colourings (paper, Section 3.2).

Each step: pick a node ``v`` uniformly; propose a colour from ``S(v)`` with
probability proportional to ``ℓ_colour``; accept iff the proposal keeps the
colouring valid (otherwise stay).  Lemma 2 shows the unique stationary
distribution is ``P~(c) ∝ Π_v ℓ_{c(v)}`` whenever ``|S(v)| >= d_v + 2`` for
all ``v``; Lemma 3 gives ``O(k log k)`` mixing under the stronger condition
``m > Δ(1 + 2 p_max / p_min)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, List, Optional

import numpy as np

from ..exceptions import ColoringError
from ..resilience.faults import fault_site
from ..rng import (
    RngLike,
    as_generator,
    choice_cdf,
    choice_from_cdf,
    integer_block,
    uniform_block,
)
from .graph import Coloring, ColoringGraph

#: Below this many transitions the per-call overhead of the batched
#: searchsorted resolution (np.unique + boolean masks) exceeds its gain,
#: so :meth:`ColoringChain.run` resolves proposals scalar-wise.  Both
#: resolutions are bitwise-identical, so the crossover is purely a
#: performance heuristic.
BATCH_MIN_STEPS = 64


class ColoringChain:
    """Runs the single-site chain over valid colourings of ``graph``.

    ``checkpoint`` is an optional cooperative-cancellation hook invoked
    once per transition (see
    :meth:`repro.resilience.budget.BudgetScope.checkpoint`).

    :meth:`run` pre-draws its randomness in a canonical block order (all
    node picks, then all proposal positions) and resolves proposals from
    per-node cumulative tables; with ``vectorized=True`` (the default)
    the searchsorted lookups are batched per node (runs shorter than
    :data:`BATCH_MIN_STEPS` bisect each table as a Python list), with
    ``vectorized=False`` they are resolved one transition at a time from
    the *same* blocks by :func:`~repro.rng.choice_from_cdf` — the modes
    are bitwise-identical, which the differential suite asserts.  :meth:`step` keeps the original
    per-transition draw order for callers that interleave other draws.
    """

    def __init__(self, graph: ColoringGraph, initial: Coloring,
                 rng: RngLike = None,
                 checkpoint: Optional[Callable[[], None]] = None,
                 vectorized: bool = True):
        if not graph.is_valid(initial):
            raise ColoringError("initial coloring is not valid")
        self.graph = graph
        self.state: Coloring = dict(initial)
        self._rng = as_generator(rng)
        self._checkpoint = checkpoint
        self.vectorized = vectorized
        # Pre-compute per-node colour lists, proposal probabilities, the
        # cumulative tables ``Generator.choice`` would build per call, and
        # adjacency lists (so the accept loop never re-walks the graph).
        self._colors: List[List[int]] = []
        self._probs: List[np.ndarray] = []
        self._cdfs: List[Optional[np.ndarray]] = []
        self._cdf_lists: List[Optional[List[float]]] = []
        self._neighbors: List[List[int]] = []
        for node in graph.nodes:
            colours = sorted(node.elements)
            weights = graph.weights[colours]
            # Infinite weights belong to exactly-determined elements, which
            # only occur in singleton predicates where the choice is forced.
            weights[~np.isfinite(weights)] = 1.0
            cdf = choice_cdf(weights) if len(colours) > 1 else None
            self._colors.append(colours)
            self._probs.append(weights / weights.sum())
            self._cdfs.append(cdf)
            self._cdf_lists.append(None if cdf is None else cdf.tolist())
            self._neighbors.append(list(graph.neighbors(node.node_id)))

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One chain transition; returns True when the colour changed."""
        fault_site("coloring.step")
        if self._checkpoint is not None:
            self._checkpoint()
        graph = self.graph
        k = graph.k
        if k == 0:
            return False
        v = int(self._rng.integers(k))
        colours = self._colors[v]
        if len(colours) == 1:
            return False
        proposal = colours[
            int(self._rng.choice(len(colours), p=self._probs[v]))
        ]
        if proposal == self.state[v]:
            return False
        for nb in graph.neighbors(v):
            if self.state[nb] == proposal:
                return False  # invalid: keep the old colour
        self.state[v] = proposal
        return True

    def run(self, steps: int) -> Coloring:
        """Advance ``steps`` transitions and return the current colouring.

        Draws the whole randomness block up front (node picks, then
        proposal positions — one position per transition whether or not
        the picked node has a choice to make), resolves proposals from
        the precomputed per-node cumulative tables, and applies the
        accept/reject sweep sequentially.  Fault sites and cancellation
        checkpoints still fire once per transition.
        """
        if steps <= 0:
            return dict(self.state)
        checkpoint = self._checkpoint
        k = self.graph.k
        if k == 0:
            for _ in range(steps):
                fault_site("coloring.step")
                if checkpoint is not None:
                    checkpoint()
            return dict(self.state)
        v_block = integer_block(self._rng, k, steps)
        u_block = uniform_block(self._rng, steps)
        proposal_idx: Optional[List[int]] = None
        u_list: Optional[List[float]] = None
        if self.vectorized and steps >= BATCH_MIN_STEPS:
            batched = np.zeros(steps, dtype=np.intp)
            for v in np.unique(v_block):
                cdf = self._cdfs[v]
                if cdf is not None:
                    sel = v_block == v
                    batched[sel] = cdf.searchsorted(u_block[sel],
                                                    side="right")
            proposal_idx = batched.tolist()
        elif self.vectorized:
            # Short runs: bisect_right over the CDF as a list is the same
            # search as searchsorted(side="right") on the same doubles.
            u_list = u_block.tolist()
        state = self.state
        for s, v in enumerate(v_block.tolist()):
            fault_site("coloring.step")
            if checkpoint is not None:
                checkpoint()
            colours = self._colors[v]
            if len(colours) == 1:
                continue
            if proposal_idx is not None:
                idx = proposal_idx[s]
            elif u_list is not None:
                idx = bisect_right(self._cdf_lists[v], u_list[s])
            else:
                idx = int(choice_from_cdf(self._cdfs[v], u_block[s]))
            proposal = colours[idx]
            if proposal == state[v]:
                continue
            for nb in self._neighbors[v]:
                if state[nb] == proposal:
                    break
            else:
                state[v] = proposal
        return dict(self.state)

    def default_steps(self, safety: float = 4.0) -> int:
        """A mixing budget of ``O(k log k)`` steps (Lemma 3)."""
        k = max(1, self.graph.k)
        return max(1, int(math.ceil(safety * k * (1.0 + math.log(k)))))

    def sample(self, steps: Optional[int] = None) -> Coloring:
        """Run (approximately) to stationarity and return a colouring."""
        return self.run(self.default_steps() if steps is None else steps)
