"""The combined synopsis ``B = (B_max, B_min)`` with cross rules (§3.2, §4).

On top of two single-direction synopses, the combined synopsis applies all
inferences that *bags* of max and min queries allow over duplicate-free data:

* **same-value rule** — a max and a min equality predicate sharing a value
  ``M`` must share exactly one common element ``x_j``, which equals ``M``;
  the predicates split into ``[max({x_j}) = M]``, ``[max(S1 - x_j) < M]``
  and ``[min(S2 - x_j) > M]`` (paper, Section 3.2);
* **determined-element removal** — an exactly-known value ``x_j = v`` cannot
  be the witness of an equality predicate whose value differs from ``v``,
  so ``x_j`` is removed from it (shrinking the witness pool — the paper's
  *trickle effect*, Section 4);
* **forced witnesses** — an element whose feasible interval degenerates to a
  single point is pinned, splitting its predicate;
* **range feasibility** — each element's interval ``R_i`` (lower bound from
  the min side, upper bound from the max side) must remain non-empty.

The rules run to fixpoint after every insert; inserts are transactional
(state is untouched when the new answer is inconsistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple

import numpy as np

from ..exceptions import InconsistentAnswersError, InvalidQueryError
from ..types import AggregateKind
from .extreme_synopsis import ExtremeSynopsis, MaxSynopsis, MinSynopsis
from .predicates import SynopsisPredicate


@dataclass(frozen=True)
class ElementRange:
    """Feasible interval of one sensitive value given the synopsis."""

    lo: float
    lo_closed: bool
    hi: float
    hi_closed: bool

    @property
    def length(self) -> float:
        """Lebesgue measure of the interval."""
        return max(0.0, self.hi - self.lo)

    @property
    def is_point(self) -> bool:
        """True when the interval pins the value exactly."""
        return self.lo == self.hi and self.lo_closed and self.hi_closed

    def contains(self, v: float) -> bool:
        """Whether ``v`` lies in the interval (respecting closedness)."""
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True


class RangeTable(NamedTuple):
    """Every element's :class:`ElementRange` as four length-``n`` arrays."""

    lo: np.ndarray
    lo_closed: np.ndarray
    hi: np.ndarray
    hi_closed: np.ndarray


class CombinedSynopsis:
    """Incrementally maintained ``(B_max, B_min)`` over ``[low, high]^n``."""

    def __init__(self, n: int, low: float = 0.0, high: float = 1.0):
        if low >= high:
            raise ValueError("require low < high")
        self.n = n
        self.low = float(low)
        self.high = float(high)
        self.max_side: ExtremeSynopsis = MaxSynopsis(n, limit=high)
        self.min_side: ExtremeSynopsis = MinSynopsis(n, limit=low)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def determined(self) -> Dict[int, float]:
        """Elements whose value is exactly disclosed by the synopsis."""
        merged = dict(self.max_side.determined)
        merged.update(self.min_side.determined)
        return merged

    def predicates(self) -> List[SynopsisPredicate]:
        """All predicates from both sides."""
        return self.max_side.predicates() + self.min_side.predicates()

    def equality_predicates(self) -> List[SynopsisPredicate]:
        """Equality predicates from both sides (the colouring-graph nodes)."""
        return [p for p in self.predicates() if p.equality]

    def range_of(self, element: int) -> ElementRange:
        """The feasible interval ``R_element``."""
        det = self.determined
        if element in det:
            v = det[element]
            return ElementRange(v, True, v, True)
        hi_val, hi_closed = self.max_side.bound(element)
        lo_val, lo_closed = self.min_side.bound(element)
        assert hi_val is not None and lo_val is not None
        return ElementRange(lo_val, lo_closed, hi_val, hi_closed)

    def range_table(self) -> RangeTable:
        """:meth:`range_of` for all ``n`` elements at once.

        One pass over both sides' predicates, then the determined values
        (min side last, as in :attr:`determined`).  Built on demand:
        copies and inserts carry no table.
        """
        hi, hi_closed = self.max_side.bound_arrays()
        lo, lo_closed = self.min_side.bound_arrays()
        for side in (self.max_side, self.min_side):
            if not side.determined:
                continue
            idx = np.fromiter(side.determined.keys(), dtype=np.intp,
                              count=len(side.determined))
            values = np.fromiter(side.determined.values(), dtype=float,
                                 count=len(side.determined))
            lo[idx] = hi[idx] = values
            lo_closed[idx] = hi_closed[idx] = True
        return RangeTable(lo, lo_closed, hi, hi_closed)

    def copy(self) -> "CombinedSynopsis":
        """Independent deep copy."""
        dup = CombinedSynopsis(self.n, self.low, self.high)
        dup.max_side = self.max_side.copy()
        dup.min_side = self.min_side.copy()
        return dup

    def add_element(self) -> int:
        """Register a fresh unconstrained element on both sides."""
        idx = self.max_side.add_element()
        other = self.min_side.add_element()
        assert idx == other
        self.n += 1
        return idx

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, kind: AggregateKind, query_set: Iterable[int],
               answer: float) -> None:
        """Fold a new max or min (query, answer) pair into the synopsis.

        Transactional: raises :class:`InconsistentAnswersError` and leaves
        the synopsis unchanged when the answer contradicts the past.
        """
        trial = self.copy()
        trial._insert_inplace(kind, query_set, answer)
        self.max_side = trial.max_side
        self.min_side = trial.min_side

    def is_consistent(self, kind: AggregateKind, query_set: Iterable[int],
                      answer: float) -> bool:
        """Whether ``answer`` is consistent with past answers (no mutation)."""
        trial = self.copy()
        try:
            trial._insert_inplace(kind, query_set, answer)
        except InconsistentAnswersError:
            return False
        return True

    def what_if(self, kind: AggregateKind, query_set: Iterable[int],
                answer: float) -> "CombinedSynopsis":
        """The synopsis that would result from answering; raises if
        inconsistent.  The current synopsis is never mutated."""
        trial = self.copy()
        trial._insert_inplace(kind, query_set, answer)
        return trial

    def _insert_inplace(self, kind: AggregateKind, query_set, answer) -> None:
        if kind is AggregateKind.MAX:
            self.max_side.insert(query_set, answer)
        elif kind is AggregateKind.MIN:
            self.min_side.insert(query_set, answer)
        else:
            raise InvalidQueryError(
                f"combined synopsis audits max/min queries, not {kind}"
            )
        self.propagate()

    # ------------------------------------------------------------------
    # Propagation fixpoint
    # ------------------------------------------------------------------

    def propagate(self) -> None:
        """Run the cross rules to fixpoint; raises on any contradiction."""
        changed = True
        while changed:
            changed = False
            changed |= self._apply_same_value_rule()
            changed |= self._apply_determined_removal()
            changed |= self._apply_forced_witnesses()
        self._check_ranges()

    def _apply_same_value_rule(self) -> bool:
        """Max-eq and min-eq predicates sharing a value pin their common
        element (paper, Section 3.2)."""
        max_eq = {p.value: (pid, p) for pid, p in self.max_side.items()
                  if p.equality}
        for min_pid, min_pred in self.min_side.items():
            if not min_pred.equality:
                continue
            hit = max_eq.get(min_pred.value)
            if hit is None:
                continue
            max_pid, max_pred = hit
            common = max_pred.elements & min_pred.elements
            if len(common) != 1:
                raise InconsistentAnswersError(
                    f"max and min predicates share a value but have "
                    f"{len(common)} common elements (need exactly 1)"
                )
            (j,) = common
            already_pinned = (max_pred.determines_value
                              and min_pred.determines_value)
            if already_pinned:
                continue
            if not max_pred.determines_value:
                self.max_side.force_witness(max_pid, j)
            if not min_pred.determines_value:
                self.min_side.force_witness(min_pid, j)
            return True
        return False

    def _apply_determined_removal(self) -> bool:
        """Exactly-known elements cannot witness predicates with a different
        value; remove them (the trickle effect)."""
        det = self.determined
        for side, other_value in ((self.max_side, self.min_side),
                                  (self.min_side, self.max_side)):
            for pid, pred in side.items():
                for j in sorted(pred.elements):
                    if j not in det:
                        continue
                    v = det[j]
                    if pred.determines_value:
                        if pred.value != v:
                            raise InconsistentAnswersError(
                                "an element is determined with two "
                                "conflicting values"
                            )
                        continue
                    if pred.equality and v == pred.value:
                        side.force_witness(pid, j)
                        return True
                    # v must respect the bound; beyond it => contradiction.
                    if side.direction * (v - pred.value) >= 0:
                        raise InconsistentAnswersError(
                            "a determined element violates a recorded bound"
                        )
                    side.remove_element(pid, j)
                    return True
        return False

    def _apply_forced_witnesses(self) -> bool:
        """Pin witnesses whose feasible interval degenerates to the value."""
        max_bounds = self.max_side.bound_arrays()
        min_bounds = self.min_side.bound_arrays()
        for side, (opp_val, opp_closed) in ((self.max_side, min_bounds),
                                            (self.min_side, max_bounds)):
            for pid, pred in side.items():
                if not pred.equality or pred.determines_value:
                    continue
                idx = np.fromiter(pred.elements, dtype=np.intp,
                                  count=len(pred.elements))
                vals = opp_val[idx]
                if (side.direction * (vals - pred.value) > 0).any():
                    # opposite bound already beyond this predicate's value
                    raise InconsistentAnswersError(
                        "element bounds cross at an equality predicate"
                    )
                forced = idx[(vals == pred.value) & opp_closed[idx]]
                if len(forced) > 1:
                    raise InconsistentAnswersError(
                        f"{len(forced)} elements forced to equal one "
                        f"predicate value"
                    )
                if len(forced):
                    side.force_witness(pid, int(forced[0]))
                    return True
        return False

    def _check_ranges(self) -> None:
        lo, lo_closed, hi, hi_closed = self.range_table()
        empty = lo > hi
        half_open = (lo == hi) & ~(lo_closed & hi_closed)
        bad = np.flatnonzero(empty | half_open)
        if not bad.size:
            return
        if empty[bad[0]]:
            raise InconsistentAnswersError(
                "an element has an empty feasible range"
            )
        raise InconsistentAnswersError(
            "an element has a degenerate half-open range"
        )
