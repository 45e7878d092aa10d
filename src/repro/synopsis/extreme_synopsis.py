"""Direction-generic incremental synopsis for max (or min) queries.

This is the blackbox ``B`` of Section 2.2 over duplicate-free data: the
information content of any sequence of max queries and answers is exactly a
set of pairwise-disjoint predicates ``[max(S) = M]`` / ``[max(S) < M]``.
With ``direction = -1`` the same engine maintains the min synopsis
(``[min(S) = m]`` / ``[min(S) > m]``).

Incremental update logic for a new max query ``(Q, a)`` (min is the mirror
image; "beyond" below means ``> a`` for max, ``< a`` for min):

* every element of ``Q`` is at most ``a``, and — because the data is
  duplicate-free — *exactly one* element of ``Q`` equals ``a`` (the witness);
* if an equality predicate ``[max(S) = a]`` with the same value intersects
  ``Q``, its witness and the new witness must be the same element, so the
  witness lives in ``S ∩ Q``; the predicate splits into
  ``[max(S ∩ Q) = a]`` and ``[max(S \\ Q) < a]``, and all other elements of
  ``Q`` gain the strict bound ``< a``;
* otherwise the witness pool ``W`` collects the elements of ``Q`` that can
  still reach ``a``: free elements, members of strict predicates with value
  beyond ``a``, and members of equality predicates with value beyond ``a``
  (whose own witness is then forced outside ``Q``, splitting the predicate);
  the new predicate is ``[max(W) = a]``;
* an empty witness pool, or an equality predicate with value beyond ``a``
  entirely contained in ``Q``, mean the answer is inconsistent with the past.

Singleton equality predicates pin their element exactly; those disclosures
are tracked in :attr:`ExtremeSynopsis.determined`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import InconsistentAnswersError, InvalidQueryError
from .predicates import SynopsisPredicate


class ExtremeSynopsis:
    """Incrementally maintained synopsis of max (``direction=+1``) or min
    (``direction=-1``) queries over a duplicate-free dataset of ``n`` values.

    Parameters
    ----------
    n:
        Number of sensitive values ``x_0 .. x_{n-1}``.
    direction:
        ``+1`` for max queries, ``-1`` for min queries.
    limit:
        Optional domain bound in the aggregate direction (e.g. ``1.0`` for
        max over data in ``[0, 1]``); answers beyond it are inconsistent.
    """

    def __init__(self, n: int, direction: int = +1,
                 limit: Optional[float] = None):
        if n <= 0:
            raise ValueError("n must be positive")
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        self.n = n
        self.direction = direction
        self.limit = None if limit is None else float(limit)
        self._preds: Dict[int, SynopsisPredicate] = {}
        self._member: Dict[int, int] = {}
        self._next_id = 0
        self.determined: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def predicates(self) -> List[SynopsisPredicate]:
        """The current predicates (live references; do not mutate)."""
        return list(self._preds.values())

    def predicate_of(self, element: int) -> Optional[SynopsisPredicate]:
        """The predicate containing ``element``, or None if it is free."""
        pid = self._member.get(element)
        return None if pid is None else self._preds[pid]

    def free_elements(self) -> List[int]:
        """Elements not constrained by any predicate."""
        return [i for i in range(self.n) if i not in self._member]

    def bound(self, element: int) -> Tuple[Optional[float], bool]:
        """Per-element bound ``(value, closed)`` in the aggregate direction.

        For max: ``x_element <= value``, attainable iff ``closed``.  Free
        elements return ``(limit, True)`` (``(None, False)`` if unbounded).
        """
        pred = self.predicate_of(element)
        if pred is None:
            if self.limit is None:
                return None, False
            return self.limit, True
        return pred.value, pred.equality

    def bound_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every element's :meth:`bound` at once, as ``(values, closed)``.

        Built on demand in one pass over the predicates; nothing is
        cached, so :meth:`copy` and :meth:`insert` carry no table.  An
        unbounded free element reads ``(direction * inf, False)``.
        """
        if self.limit is None:
            values = np.full(self.n, self.direction * np.inf)
        else:
            values = np.full(self.n, self.limit)
        closed = np.full(self.n, self.limit is not None)
        for pred in self._preds.values():
            idx = np.fromiter(pred.elements, dtype=np.intp,
                              count=len(pred.elements))
            values[idx] = pred.value
            closed[idx] = pred.equality
        return values, closed

    def equality_values(self) -> Dict[float, int]:
        """Map from equality-predicate value to predicate id."""
        return {p.value: pid for pid, p in self._preds.items() if p.equality}

    @property
    def size(self) -> int:
        """Number of predicates (always ``O(n)``)."""
        return len(self._preds)

    def copy(self) -> "ExtremeSynopsis":
        """Independent deep copy (used for what-if candidate answers)."""
        dup = ExtremeSynopsis(self.n, self.direction, self.limit)
        dup._preds = {pid: p.copy() for pid, p in self._preds.items()}
        dup._member = dict(self._member)
        dup._next_id = self._next_id
        dup.determined = dict(self.determined)
        return dup

    def add_element(self) -> int:
        """Register a fresh unconstrained element (update versioning).

        Returns its index.  Used when a record is inserted or modified: the
        new version starts free while old predicates keep constraining the
        old version.
        """
        self.n += 1
        return self.n - 1

    # ------------------------------------------------------------------
    # Core update
    # ------------------------------------------------------------------

    def insert(self, query_set: Iterable[int], answer: float) -> None:
        """Fold a new (query, answer) pair into the synopsis.

        Raises :class:`InconsistentAnswersError` when the answer cannot be
        produced by any duplicate-free dataset consistent with the past; in
        that case the synopsis is left unchanged.
        """
        query = set(query_set)
        if not query:
            raise InvalidQueryError("empty query set")
        for i in query:
            if not 0 <= i < self.n:
                raise InvalidQueryError(f"element {i} out of range")
        a = float(answer)
        if self.limit is not None and self._beyond(a, self.limit):
            raise InconsistentAnswersError(
                "answer lies beyond the domain limit"
            )

        free_part, parts = self._partition(query)
        same_value_pid = self._find_same_value_equality(a)
        if same_value_pid is not None and same_value_pid not in parts:
            # A disjoint query with the same answer would need a second
            # element equal to `a` — impossible without duplicates.
            raise InconsistentAnswersError(
                "answer duplicates the witness of a disjoint predicate"
            )

        # ---- validation pass (no mutation on failure) -----------------
        for pid, part in parts.items():
            pred = self._preds[pid]
            if pred.equality and self._beyond(pred.value, a) and part >= pred.elements:
                raise InconsistentAnswersError(
                    "an equality predicate forces an element beyond the "
                    "answer inside the query"
                )
        if same_value_pid is None:
            witness_pool = set(free_part)
            for pid, part in parts.items():
                pred = self._preds[pid]
                if self._beyond(pred.value, a):
                    witness_pool |= part
            if not witness_pool:
                raise InconsistentAnswersError(
                    "no element of the query can attain the answer"
                )

        # ---- mutation pass ---------------------------------------------
        if same_value_pid is not None:
            self._insert_same_value(same_value_pid, query, parts, free_part, a)
        else:
            self._insert_fresh_value(query, parts, free_part, a)

    # ------------------------------------------------------------------
    # Insert helpers
    # ------------------------------------------------------------------

    def _partition(self, query: Set[int]):
        """Split the query set into a free part and per-predicate parts."""
        free_part: Set[int] = set()
        parts: Dict[int, Set[int]] = {}
        for i in query:
            pid = self._member.get(i)
            if pid is None:
                free_part.add(i)
            else:
                parts.setdefault(pid, set()).add(i)
        return free_part, parts

    def _find_same_value_equality(self, a: float) -> Optional[int]:
        """Id of the (unique) equality predicate with value ``a``, if any."""
        for pid, pred in self._preds.items():
            if pred.equality and pred.value == a:
                return pid
        return None

    def _insert_same_value(self, pid: int, query: Set[int],
                           parts: Dict[int, Set[int]],
                           free_part: Set[int], a: float) -> None:
        """The witness is shared with an existing equality predicate."""
        pred = self._preds[pid]
        inside = parts[pid]
        outside = pred.elements - inside
        tight: Set[int] = set(free_part)  # gain the strict bound `< a`

        # The old predicate's witness must lie in the intersection.
        self._detach(pred.elements)
        self._drop(pid)
        self._add_pred(inside, a, equality=True)
        if outside:
            tight |= outside

        for other_pid, part in sorted(parts.items()):
            if other_pid == pid:
                continue
            tight |= self._strip_if_beyond(other_pid, part, a)

        if tight:
            self._add_pred(tight, a, equality=False)

    def _insert_fresh_value(self, query: Set[int],
                            parts: Dict[int, Set[int]],
                            free_part: Set[int], a: float) -> None:
        """No equality predicate shares the value; form a fresh witness pool."""
        witness_pool: Set[int] = set(free_part)
        for other_pid, part in sorted(parts.items()):
            witness_pool |= self._strip_if_beyond(other_pid, part, a)
        self._add_pred(witness_pool, a, equality=True)

    def _strip_if_beyond(self, pid: int, part: Set[int], a: float) -> Set[int]:
        """Pull ``part`` out of predicate ``pid`` when its value is beyond
        ``a``; returns the stripped elements (empty if the predicate's value
        is not beyond ``a``, in which case its tighter bound is kept)."""
        pred = self._preds[pid]
        if not self._beyond(pred.value, a):
            return set()
        remainder = pred.elements - part
        self._detach(part)
        if remainder:
            pred.elements = remainder
            self._note_if_determined(pred)
        else:
            # Validation guarantees equality predicates never empty out here;
            # strict predicates may simply vanish.
            self._drop(pid)
        return set(part)

    # ------------------------------------------------------------------
    # Low-level state management
    # ------------------------------------------------------------------

    def _add_pred(self, elements: Set[int], value: float,
                  equality: bool) -> int:
        pid = self._next_id
        self._next_id += 1
        pred = SynopsisPredicate(set(elements), value, equality, self.direction)
        self._preds[pid] = pred
        for i in sorted(elements):
            self._member[i] = pid
        self._note_if_determined(pred)
        return pid

    def _drop(self, pid: int) -> None:
        self._detach(self._preds[pid].elements)
        del self._preds[pid]

    def _detach(self, elements: Set[int]) -> None:
        for i in elements:
            self._member.pop(i, None)

    def _note_if_determined(self, pred: SynopsisPredicate) -> None:
        if pred.determines_value:
            (element,) = pred.elements
            self.determined[element] = pred.value

    def _beyond(self, v: float, w: float) -> bool:
        """True when ``v`` lies strictly beyond ``w`` in aggregate direction."""
        return self.direction * (v - w) > 0

    # ------------------------------------------------------------------
    # Cross-side propagation hooks (used by CombinedSynopsis)
    # ------------------------------------------------------------------

    def items(self):
        """(pid, predicate) pairs — stable ids for propagation passes."""
        return list(self._preds.items())

    def force_witness(self, pid: int, element: int) -> None:
        """Pin the witness of equality predicate ``pid`` to ``element``.

        Splits ``[max(S) = M]`` into ``[max({element}) = M]`` (a
        determination) and ``[max(S \\ {element}) < M]``.
        """
        pred = self._preds[pid]
        if not pred.equality or element not in pred.elements:
            raise ValueError("force_witness needs an equality predicate member")
        others = pred.elements - {element}
        self._detach(pred.elements)
        del self._preds[pid]
        self._add_pred({element}, pred.value, equality=True)
        if others:
            self._add_pred(others, pred.value, equality=False)

    def remove_element(self, pid: int, element: int) -> None:
        """Drop ``element`` from predicate ``pid`` (its bound is implied by
        other knowledge, e.g. an exactly-determined value).

        Removing the last possible witness of an equality predicate is the
        caller's responsibility to pre-check; shrinking an equality predicate
        to a singleton records a determination.
        """
        pred = self._preds[pid]
        if element not in pred.elements:
            raise ValueError(f"element {element} not in predicate {pid}")
        if pred.equality and len(pred.elements) == 1:
            raise InconsistentAnswersError(
                "removing the sole witness of an equality predicate"
            )
        pred.elements.discard(element)
        self._member.pop(element, None)
        if not pred.elements:
            del self._preds[pid]
            return
        self._note_if_determined(pred)

    # ------------------------------------------------------------------
    # What-if support
    # ------------------------------------------------------------------

    def is_consistent(self, query_set: Iterable[int], answer: float) -> bool:
        """Whether ``answer`` to ``query_set`` is consistent with the past.

        Non-mutating (works on a copy).
        """
        try:
            self.copy().insert(query_set, answer)
        except InconsistentAnswersError:
            return False
        return True


def MaxSynopsis(n: int, limit: Optional[float] = None) -> ExtremeSynopsis:
    """Synopsis for max queries (``B_max``)."""
    return ExtremeSynopsis(n, direction=+1, limit=limit)


def MinSynopsis(n: int, limit: Optional[float] = None) -> ExtremeSynopsis:
    """Synopsis for min queries (``B_min``)."""
    return ExtremeSynopsis(n, direction=-1, limit=limit)
