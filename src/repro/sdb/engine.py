"""The user-facing statistical database.

:class:`StatisticalDatabase` glues the three layers together: a
:class:`~repro.sdb.table.Table` of public attributes, a
:class:`~repro.sdb.dataset.Dataset` of sensitive values, and an auditor that
gatekeeps every aggregate request.  It is the library's equivalent of the
paper's running example::

    db.query(Eq("zipcode", 94305), AggregateKind.SUM)   # sum(Salary) WHERE ...

Two LRU memoization layers sit on the serving path:

* the **query-set cache** maps a predicate's canonical form (see
  :func:`~repro.sdb.predicates.canonical_key`) to its resolved record-index
  set, guarded by the table version;
* the **decision cache** maps ``(kind, query_set)`` to the released
  decision.  Semantics are *replay*: a hit re-releases a bit the auditor
  already disclosed — information-free by definition — and is still
  journalled/WAL-appended (as a ``query_replay`` event) before the answer
  goes out, so the disclosure log stays complete.  A hit never re-runs the
  auditor, so it cannot mutate audit state.

Invalidation follows the :mod:`repro.sdb.updates` stream: ``Insert`` and
``Delete`` reshape query sets *and* posteriors (both caches drop);
``Modify`` touches only sensitive values (decision cache drops, query-set
cache survives — public attributes are unchanged).
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InvalidQueryError
from ..types import AggregateKind, AuditDecision, Query
from .cache import LruCache
from .dataset import Dataset
from .predicates import Predicate, canonical_key
from .table import Table
from .updates import Delete, Insert, Modify, UpdateEvent


def sensitive_values(records: Sequence[Mapping[str, Any]],
                     sensitive_column: str,
                     low: Optional[float] = None,
                     high: Optional[float] = None,
                     ) -> Tuple[List[float], float, float]:
    """The sensitive column of row dicts as floats, with its envelope.

    Returns ``(values, low, high)``; an omitted bound is the column's
    min or max.  A cell that is not a number raises
    :class:`InvalidQueryError` naming the column only: the cell is a
    sensitive value.
    """
    if not records:
        raise InvalidQueryError("need at least one record")
    values = []
    for rec in records:
        if sensitive_column not in rec:
            raise InvalidQueryError(
                f"record missing sensitive column {sensitive_column!r}"
            )
        try:
            values.append(float(rec[sensitive_column]))
        except (TypeError, ValueError):
            raise InvalidQueryError(
                f"sensitive column {sensitive_column!r} holds a "
                f"non-numeric value"
            ) from None
    lo = min(values) if low is None else low
    hi = max(values) if high is None else high
    if lo >= hi:
        # A degenerate envelope (constant column, or inverted explicit
        # bounds) is silently widened so the Dataset invariant holds —
        # but the envelope is *public* model input: the probabilistic
        # auditors' priors, bucket grids, and therefore their
        # deny/answer decisions all change with it.  Make the guess
        # loud so operators pass an intentional range instead.
        warnings.warn(
            "degenerate sensitive-value envelope (constant column or "
            "inverted explicit bounds) widened by 1.0 on each side; "
            "the envelope is a public privacy parameter — pass "
            "explicit low/high bounds instead of relying on this "
            "fallback",
            UserWarning, stacklevel=3,
        )
        lo, hi = lo - 1.0, hi + 1.0
    return values, lo, hi


def split_records(records: Sequence[Mapping[str, Any]],
                  sensitive_column: str,
                  low: Optional[float] = None,
                  high: Optional[float] = None) -> Tuple[Table, Dataset]:
    """The public table and the sensitive dataset of row dicts.

    The dataset's envelope is ``(low, high)``, or the column's range
    when omitted (see :func:`sensitive_values`).
    """
    values, lo, hi = sensitive_values(records, sensitive_column, low, high)
    table = Table(sorted({k for rec in records for k in rec
                          if k != sensitive_column}))
    for rec in records:
        table.insert({k: v for k, v in rec.items() if k != sensitive_column})
    return table, Dataset(values, low=lo, high=hi)


class StatisticalDatabase:
    """An SDB that only releases audited aggregate statistics.

    ``query_cache_size`` / ``decision_cache_size`` bound the two LRU
    layers; pass 0 to disable either.
    """

    def __init__(self, table: Table, dataset: Dataset, auditor,
                 query_cache_size: int = 128,
                 decision_cache_size: int = 128) -> None:
        if table.n != dataset.n:
            raise InvalidQueryError(
                f"table has {table.n} records but dataset has {dataset.n}"
            )
        self.table = table
        self.dataset = dataset
        self.auditor = auditor
        # Serializes the serving path (query → audit) against updates:
        # auditors mutate posterior state per decision, and apply() must
        # not reshape table/dataset mid-audit.  Reentrant so locked entry
        # points can share helpers.
        self._lock = threading.RLock()
        self._query_set_cache: Optional[LruCache] = (
            LruCache(query_cache_size) if query_cache_size > 0 else None
        )
        self._decision_cache: Optional[LruCache] = (
            LruCache(decision_cache_size) if decision_cache_size > 0 else None
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_records(records: Sequence[Mapping[str, Any]],
                     sensitive_column: str,
                     auditor_factory,
                     low: Optional[float] = None,
                     high: Optional[float] = None) -> "StatisticalDatabase":
        """Build an SDB from row dicts, splitting off the sensitive column.

        ``auditor_factory`` is called with the resulting
        :class:`~repro.sdb.dataset.Dataset` and must return an auditor.
        To serve over a durable audit log, split the records with
        :func:`split_records`, open the log with
        :func:`repro.resilience.wal.open_wal_auditor` and build the SDB
        over the auditor and the live dataset it returns.
        """
        table, dataset = split_records(records, sensitive_column, low, high)
        return StatisticalDatabase(table, dataset, auditor_factory(dataset))

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(self, predicate: Predicate, kind: AggregateKind) -> AuditDecision:
        """Pose an aggregate query through the auditor."""
        with self._lock:
            query_set = self._resolve_query_set(predicate)
            if not query_set:
                raise InvalidQueryError("predicate selects no records")
            return self._audit(Query(kind, query_set))

    def query_indices(self, indices, kind: AggregateKind) -> AuditDecision:
        """Pose a query over explicit record indices (for experiments)."""
        with self._lock:
            return self._audit(Query(kind, frozenset(indices)))

    def cache_stats(self) -> Mapping[str, Any]:
        """Counters for both memoization layers (empty dicts = disabled)."""
        return {
            "query_set": (self._query_set_cache.stats()
                          if self._query_set_cache is not None else {}),
            "decision": (self._decision_cache.stats()
                         if self._decision_cache is not None else {}),
        }

    def _resolve_query_set(self, predicate: Predicate):
        cache = self._query_set_cache
        if cache is None:
            return self.table.select(predicate)
        try:
            key = canonical_key(predicate)
        except TypeError:  # unhashable operand: not cacheable
            return self.table.select(predicate)
        hit = cache.get(key)
        if hit is not None and hit[0] == self.table.version:
            return hit[1]
        query_set = self.table.select(predicate)
        cache.put(key, (self.table.version, query_set))
        return query_set

    def _audit(self, query: Query) -> AuditDecision:
        cache = self._decision_cache
        if cache is None:
            return self.auditor.audit(query)
        key = (query.kind, query.query_set)
        cached = cache.get(key)
        if cached is not None:
            # Replay of an already-released bit: journal/WAL it (the
            # disclosure log must stay complete) but never re-run the
            # auditor or touch its state.
            self.auditor.record_replay(query, cached)
            return cached
        decision = self.auditor.audit(query)
        cache.put(key, decision)
        return decision

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply(self, event: UpdateEvent) -> None:
        """Apply an update to the data *and* the auditor's bookkeeping.

        Also invalidates the memoization layers: inserts and deletes
        reshape query sets and posteriors (both caches drop); a modify
        changes only sensitive values (decisions drop, query sets
        survive).
        """
        with self._lock:
            if isinstance(event, Insert):
                self.table.insert(dict(event.public or {}))
                self.dataset.append(event.value)
            elif isinstance(event, Delete):
                self.table.delete(event.index)
            elif isinstance(event, Modify):
                self.dataset.set_value(event.index, event.value)
            else:  # pragma: no cover - defensive
                raise InvalidQueryError(f"unknown update event {event!r}")
            self.auditor.apply_update(event)
            if self._decision_cache is not None:
                self._decision_cache.clear()
            if not isinstance(event, Modify) and self._query_set_cache is not None:
                self._query_set_cache.clear()
