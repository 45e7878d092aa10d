"""The engine's memoization layers: LRU mechanics, invalidation, WAL.

Three properties the decision/query-set caches must uphold:

* **stale-free** — no update sequence (Insert/Delete/Modify) can make a
  cached entry answer for a world that no longer exists;
* **replay-only** — a decision-cache hit re-releases an already-disclosed
  bit without re-running the auditor or mutating its state;
* **log-complete** — a cache hit is journalled/WAL-appended (as a
  ``query_replay`` event) *before* the answer goes out; cache hits never
  bypass the disclosure log, even under fault injection.
"""


import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.exceptions import ReproError
from repro.resilience.faults import FaultPlan, Raise, inject
from repro.resilience.replication import replica_events
from repro.sdb.cache import LruCache
from repro.sdb.dataset import Dataset
from repro.resilience.wal import open_wal_auditor
from repro.sdb.engine import StatisticalDatabase, split_records
from repro.sdb.predicates import All, Eq
from repro.sdb.table import Table
from repro.sdb.updates import Delete, Insert, Modify
from repro.types import AggregateKind


# ----------------------------------------------------------------------
# LruCache mechanics
# ----------------------------------------------------------------------

def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LruCache(0)


def test_get_counts_hits_and_misses():
    cache = LruCache(4)
    assert cache.get("a") is None
    assert cache.get("a", default=7) == 7
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.stats() == {"hits": 1, "misses": 2, "evictions": 0,
                             "size": 1}


def test_eviction_is_least_recently_used():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1       # refreshes a: b is now LRU
    cache.put("c", 3)                # evicts b
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.evictions == 1


def test_put_refreshes_existing_key():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)               # refresh, not insert: b is LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 10


def test_clear_drops_entries_but_keeps_counters():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("zzz")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1 and cache.misses == 1


def test_empty_cache_is_falsy_but_not_none():
    # LruCache defines __len__, so an empty (freshly cleared) cache is
    # falsy — callers must test ``is not None``, never truthiness, or a
    # just-invalidated cache silently reads as "caching disabled".
    cache = LruCache(2)
    assert not cache
    assert cache is not None


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------

class SpyAuditor:
    """Delegating wrapper that counts how often the auditor really runs."""

    def __init__(self, auditor):
        self.auditor = auditor
        self.audit_calls = 0

    def audit(self, query):
        self.audit_calls += 1
        return self.auditor.audit(query)

    def apply_update(self, event):
        self.auditor.apply_update(event)

    def record_replay(self, query, decision):
        self.auditor.record_replay(query, decision)

    @property
    def trail(self):
        return self.auditor.trail

    @property
    def dataset(self):
        return self.auditor.dataset


def make_db(**cache_sizes):
    table = Table(["zip"])
    for zip_code in (94305, 94305, 94306, 94306):
        table.insert({"zip": zip_code})
    dataset = Dataset([100.0, 120.0, 90.0, 110.0], low=0.0, high=200.0)
    spy = SpyAuditor(SumClassicAuditor(dataset))
    return StatisticalDatabase(table, dataset, spy, **cache_sizes), spy


def test_decision_cache_hit_skips_the_auditor_but_not_the_trail():
    db, spy = make_db()
    first = db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert spy.audit_calls == 1
    second = db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert spy.audit_calls == 1          # replayed, not re-audited
    assert second == first
    assert len(spy.trail) == 2           # ... yet both releases are logged
    assert db.cache_stats()["decision"]["hits"] == 1


def test_disabled_caches_still_serve_correctly():
    db, spy = make_db(query_cache_size=0, decision_cache_size=0)
    a = db.query(Eq("zip", 94305), AggregateKind.SUM)
    b = db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert a == b
    assert spy.audit_calls == 2
    assert db.cache_stats() == {"query_set": {}, "decision": {}}


def test_insert_invalidates_both_caches():
    db, spy = make_db()
    plain, _ = make_db(query_cache_size=0, decision_cache_size=0)
    assert db.query(Eq("zip", 94306), AggregateKind.SUM).value == 200.0
    plain.query(Eq("zip", 94306), AggregateKind.SUM)
    db.apply(Insert(50.0, {"zip": 94306}))
    plain.apply(Insert(50.0, {"zip": 94306}))
    # A stale query set would miss record 4; a stale decision would answer
    # the old 200.  The fresh audit (here: a differencing denial — the new
    # set minus the answered one isolates record 4) must match a
    # never-cached twin exactly.
    decision = db.query(Eq("zip", 94306), AggregateKind.SUM)
    assert decision == plain.query(Eq("zip", 94306), AggregateKind.SUM)
    assert decision.denied
    assert spy.audit_calls == 2


def test_delete_invalidates_both_caches():
    db, spy = make_db()
    plain, _ = make_db(query_cache_size=0, decision_cache_size=0)
    assert db.query(Eq("zip", 94306), AggregateKind.SUM).value == 200.0
    plain.query(Eq("zip", 94306), AggregateKind.SUM)
    db.apply(Delete(2))
    plain.apply(Delete(2))
    # The predicate now selects only record 3; a stale set or decision
    # would re-release the two-record answer.
    decision = db.query(Eq("zip", 94306), AggregateKind.SUM)
    assert decision == plain.query(Eq("zip", 94306), AggregateKind.SUM)
    assert spy.audit_calls == 2


def test_modify_drops_decisions_but_keeps_query_sets():
    db, spy = make_db()
    assert db.query(Eq("zip", 94305), AggregateKind.SUM).value == 220.0
    db.apply(Modify(0, 130.0))
    decision = db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert decision.value == 250.0       # not the stale 220
    assert spy.audit_calls == 2
    stats = db.cache_stats()
    # The predicate resolved from the surviving query-set cache (public
    # attributes were untouched) ...
    assert stats["query_set"]["hits"] == 1
    # ... while the decision missed (it was invalidated).
    assert stats["decision"]["hits"] == 0


def test_denials_are_replayed_too():
    db, spy = make_db()
    assert db.query(All(), AggregateKind.SUM).answered
    denied = db.query_indices([0], AggregateKind.SUM)
    assert denied.denied
    again = db.query_indices([0], AggregateKind.SUM)
    assert again == denied
    assert spy.audit_calls == 2          # the denial replayed from cache


def test_unhashable_predicate_operand_is_served_uncached():
    db, spy = make_db()
    bad = Eq("zip", [94305])             # list operand: unhashable key
    with pytest.raises(Exception):
        db.query(bad, AggregateKind.SUM)  # selects nothing -> InvalidQuery
    assert db.cache_stats()["query_set"]["misses"] == 0


# ----------------------------------------------------------------------
# Cache hits never bypass the disclosure log
# ----------------------------------------------------------------------

def wal_db(path):
    records = [
        {"zip": 94305, "salary": 100.0},
        {"zip": 94305, "salary": 120.0},
        {"zip": 94306, "salary": 90.0},
        {"zip": 94306, "salary": 110.0},
    ]
    table, dataset = split_records(records, "salary", low=0.0, high=200.0)
    wrapped, live = open_wal_auditor(path, SumClassicAuditor, dataset)
    return StatisticalDatabase(table, live, wrapped)


def wal_event_types(path):
    return [r.get("type") for r in replica_events(path)]


def test_cache_hit_appends_query_replay_to_wal(tmp_path):
    path = str(tmp_path / "wal")
    db = wal_db(path)
    db.query(Eq("zip", 94305), AggregateKind.SUM)
    db.query(Eq("zip", 94305), AggregateKind.SUM)   # cache hit
    assert wal_event_types(path) == ["query", "query_replay"]


def test_restore_skips_replay_events(tmp_path):
    path = str(tmp_path / "wal")
    db = wal_db(path)
    first = db.query(Eq("zip", 94305), AggregateKind.SUM)
    db.query(Eq("zip", 94305), AggregateKind.SUM)
    db.auditor.close()

    recovered = wal_db(path).auditor
    # One real disclosure restored; the replay added no duplicate state.
    assert len(recovered.trail) == 1
    [record] = [r for r in replica_events(path) if r["type"] == "query"]
    assert record["value"] == first.value
    recovered.close()


@pytest.mark.faults
def test_replay_is_logged_before_release_under_fault_injection(tmp_path):
    # Inject a failure at journal.pre-record on the *replay* occurrence:
    # the cache hit must crash before releasing its answer, proving the
    # WAL append sits on the replay path, not after it.
    path = str(tmp_path / "wal")
    db = wal_db(path)
    db.query(Eq("zip", 94305), AggregateKind.SUM)   # occurrence 0
    plan = FaultPlan({"journal.pre-record": [Raise(ReproError)]})
    with inject(plan):
        with pytest.raises(ReproError, match="injected fault"):
            db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert plan.fired == [("journal.pre-record", 0)]
    # The failed replay appended nothing: the log holds only the original.
    assert wal_event_types(path) == ["query"]
