"""The colouring graph ``G`` derived from a combined synopsis (§3.2).

Nodes are equality predicates (a max and a min predicate pinning one element
to the same value are one node); the colours available at a node are the
elements of its query set (each of which could be the predicate's witness);
edges join predicates with intersecting query sets — the no-duplicates
assumption forbids a shared witness.  Because max (resp. min) predicates are
pairwise disjoint within their side, the graph is bipartite between max and
min nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

import numpy as np

from ..exceptions import ColoringError
from ..synopsis.combined import CombinedSynopsis, RangeTable

Coloring = Dict[int, int]  # node id -> element (colour)


@dataclass(frozen=True)
class ColoringNode:
    """One node of the colouring graph."""

    node_id: int
    elements: FrozenSet[int]  # the available colours S(v)
    value: float              # the predicate's answer A(v)
    is_max: bool


def predicate_graph(synopsis: CombinedSynopsis
                    ) -> Tuple[List[ColoringNode], List[List[int]]]:
    """The colouring graph's nodes and ascending adjacency lists.

    Structure only: no range table and no colour weights, so a caller that
    reads node sizes and degrees (the Lemma 2 guard) pays for nothing else.
    """
    nodes: List[ColoringNode] = []
    # The same-value rule leaves max({j}) = M and min({j}) = M, two
    # statements of x_j = M.  They become one node, the max one, so
    # ``j`` is one node's colour and its witness mass counts once.
    # Max predicates come first.
    max_pins: Set[Tuple[int, float]] = set()
    for pred in synopsis.equality_predicates():
        if pred.determines_value:
            pin = (min(pred.elements), pred.value)
            if pred.is_max:
                max_pins.add(pin)
            elif pin in max_pins:
                continue
        nodes.append(ColoringNode(
            node_id=len(nodes),
            elements=pred.frozen_elements(),
            value=pred.value,
            is_max=pred.is_max,
        ))
    # Within a side predicates are pairwise disjoint, so each element has
    # at most one max and one min owner, and the edges are exactly the
    # (max, min) owner pairs.  Max nodes precede min nodes, so the sorted
    # pairs fill every adjacency list in ascending order.
    k = len(nodes)
    max_owner = np.full(synopsis.n, -1)
    min_owner = np.full(synopsis.n, -1)
    for node in nodes:
        owner = max_owner if node.is_max else min_owner
        owner[list(node.elements)] = node.node_id
    shared = (max_owner >= 0) & (min_owner >= 0)
    pairs = np.unique(max_owner[shared] * k + min_owner[shared])
    adjacency: List[List[int]] = [[] for _ in nodes]
    for u, w in zip((pairs // k).tolist(), (pairs % k).tolist()):
        adjacency[u].append(w)
        adjacency[w].append(u)
    return nodes, adjacency


def lemma2_holds(nodes: List[ColoringNode],
                 adjacency: List[List[int]]) -> bool:
    """Lemma 2 precondition: ``|S(v)| >= d_v + 2`` for every node."""
    return all(len(v.elements) >= len(adjacency[v.node_id]) + 2
               for v in nodes)


class ColoringGraph:
    """Graph over equality predicates with weighted colours.

    Parameters
    ----------
    synopsis:
        A propagated :class:`~repro.synopsis.combined.CombinedSynopsis`.

    The synopsis's range table is computed once, as :attr:`ranges`; the
    colour weights (:attr:`weights`, an array indexed by element) and
    the posterior sampler's fills and bucket masses all read it.
    """

    def __init__(self, synopsis: CombinedSynopsis):
        self.synopsis = synopsis
        self.nodes, self._adjacency = predicate_graph(synopsis)
        #: Every element's feasible interval ``R_i``, built once.
        self.ranges: RangeTable = synopsis.range_table()
        # Colour weights ``1/|R_i|``, indexed by element.  Propagation
        # guarantees multi-element predicates only contain elements with
        # non-degenerate ranges; singleton predicates have a single forced
        # colour whose (infinite) weight never influences a choice.
        length = np.maximum(0.0, self.ranges.hi - self.ranges.lo)
        with np.errstate(divide="ignore"):
            self.weights: np.ndarray = np.where(length > 0, 1.0 / length,
                                                np.inf)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of nodes (equality predicates)."""
        return len(self.nodes)

    def neighbors(self, node_id: int) -> List[int]:
        """Adjacent node ids."""
        return self._adjacency[node_id]

    def degree(self, node_id: int) -> int:
        """Degree of a node."""
        return len(self._adjacency[node_id])

    def max_degree(self) -> int:
        """``Δ``, the maximum degree."""
        return max((self.degree(v.node_id) for v in self.nodes), default=0)

    def min_colors(self) -> int:
        """``m``, the minimum number of colours over all nodes."""
        return min((len(v.elements) for v in self.nodes), default=0)

    def satisfies_lemma2(self) -> bool:
        """Lemma 2 precondition: ``|S(v)| >= d_v + 2`` for every node."""
        return lemma2_holds(self.nodes, self._adjacency)

    def mixing_condition(self) -> Tuple[bool, float, float]:
        """Lemma 3 diagnostic: ``m > Δ(1 + 2 p_max / p_min)``.

        Returns ``(holds, m, threshold)``.  ``p_max``/``p_min`` are bounded
        by the extreme single-colour conditional probabilities derived from
        the weights.
        """
        if not self.nodes:
            return True, 0.0, 0.0
        colours = sorted(set().union(*(v.elements for v in self.nodes)))
        finite = self.weights[colours][np.isfinite(self.weights[colours])]
        if not finite.size:
            return True, float(self.min_colors()), 0.0
        p_max = float(finite.max())
        p_min = float(finite.min())
        m = float(self.min_colors())
        threshold = self.max_degree() * (1.0 + 2.0 * p_max / p_min)
        return m > threshold, m, threshold

    # ------------------------------------------------------------------
    # Colourings
    # ------------------------------------------------------------------

    def is_valid(self, coloring: Coloring) -> bool:
        """Whether ``coloring`` assigns each node an available colour with
        no two adjacent nodes sharing one."""
        if set(coloring) != {v.node_id for v in self.nodes}:
            return False
        for node in self.nodes:
            colour = coloring[node.node_id]
            if colour not in node.elements:
                return False
            for nb in self._adjacency[node.node_id]:
                if nb > node.node_id and coloring[nb] == colour:
                    return False
        return True

    def log_weight(self, coloring: Coloring) -> float:
        """``log P~(c)`` up to the normalising constant."""
        total = 0.0
        for node_id, colour in coloring.items():
            w = float(self.weights[colour])
            total += math.log(w) if math.isfinite(w) else 0.0
        return total

    def coloring_from_dataset(self, values) -> Coloring:
        """The unique colouring induced by a consistent dataset: each
        predicate's colour is the element achieving its answer."""
        coloring: Coloring = {}
        for node in self.nodes:
            hits = [i for i in node.elements if values[i] == node.value]
            if len(hits) != 1:
                raise ColoringError(
                    f"dataset does not single out a witness for node "
                    f"{node.node_id} (value {node.value}, hits {hits})"
                )
            coloring[node.node_id] = hits[0]
        return coloring

    def find_valid_coloring(self) -> Coloring:
        """A valid colouring via backtracking (most-constrained-first)."""
        order = sorted(self.nodes, key=lambda v: len(v.elements))
        coloring: Coloring = {}

        def backtrack(idx: int) -> bool:
            if idx == len(order):
                return True
            node = order[idx]
            used = {coloring[nb] for nb in self._adjacency[node.node_id]
                    if nb in coloring}
            for colour in sorted(node.elements):
                if colour in used:
                    continue
                coloring[node.node_id] = colour
                if backtrack(idx + 1):
                    return True
                del coloring[node.node_id]
            return False

        if not backtrack(0):
            raise ColoringError("no valid coloring exists")
        return coloring


def enumerate_colorings(graph: ColoringGraph) -> Iterator[Coloring]:
    """Yield every valid colouring (exponential; tests and tiny graphs only)."""
    nodes = graph.nodes

    def recurse(idx: int, partial: Coloring) -> Iterator[Coloring]:
        if idx == len(nodes):
            yield dict(partial)
            return
        node = nodes[idx]
        used = {partial[nb] for nb in graph.neighbors(node.node_id)
                if nb in partial}
        for colour in sorted(node.elements):
            if colour in used:
                continue
            partial[node.node_id] = colour
            yield from recurse(idx + 1, partial)
            del partial[node.node_id]

    yield from recurse(0, {})
