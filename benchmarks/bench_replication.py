"""Replication costs: ship throughput, follower lag, and failover time.

Three series (see docs/ROBUSTNESS.md):

1. ship throughput — audited events per second with 0, 1, and 2
   synchronous in-process followers attached, the price of the
   "released ⇒ durable on the whole replica set" contract; each count
   is the median of ``PASSES`` passes, the counts alternating within a
   pass so host drift hits them alike;
2. follower lag — the time between the primary's local durability and
   the in-process follower's acknowledgement, one
   :meth:`~repro.resilience.replication.LocalLink.send` per shipped
   record or checkpoint (the attach-time install is left out), reported
   as p50/p99/max;
3. failover time — snapshot-install promotion of the follower directory
   (recover newest snapshot + replayed suffix, then the fencing commit).

The series are written to ``BENCH_replication.json`` (a committed
artifact) and the lag/failover numbers are gated by generous asserted
bounds so a pathological regression fails the bench job rather than
silently shipping.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.auditors.sum_classic import SumClassicAuditor
from repro.reporting.tables import format_table
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.replication import promote_replica, replica_events
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import sum_query

from .conftest import run_once

N = 60
EVENTS = 200
CHECKPOINT_EVERY = 64
#: Generous regression gates, not performance targets: an fsync'd
#: in-process ship is well under these on any healthy runner.
LAG_BOUND_MS = 250.0
FAILOVER_BOUND_MS = 5000.0
#: Timed passes per follower count; the table reports their median.
PASSES = 5
RESULT_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_replication.json"

POLICY = CheckpointPolicy(every_records=CHECKPOINT_EVERY)


def _make_dataset():
    return Dataset.uniform(N, rng=11)


def _queries():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(EVENTS):
        size = int(rng.integers(2, N // 2))
        members = rng.choice(N, size=size, replace=False)
        out.append(sum_query(int(i) for i in members))
    return out


def _time_sends(link):
    """Record each later ``send`` of ``link``; returns the latency list."""
    latencies = []
    send = link.send

    def timed(ship):
        start = time.perf_counter()
        ack = send(ship)
        latencies.append(time.perf_counter() - start)
        return ack

    link.send = timed
    return latencies


def _ship_pass(tmp, queries, followers, run):
    """Events per second of one audited pass with ``followers`` replicas."""
    pdir = os.path.join(tmp, f"primary-{followers}-{run}")
    replicas = [os.path.join(tmp, f"f{followers}-{run}-{i}")
                for i in range(followers)]
    wrapped, _ = open_wal_auditor(
        pdir, SumClassicAuditor, _make_dataset(),
        replicate_to=replicas, policy=POLICY)
    start = time.perf_counter()
    for query in queries:
        wrapped.audit(query)
    elapsed = time.perf_counter() - start
    wrapped.close()
    return EVENTS / elapsed


def _measure_ship_throughput(tmp, queries):
    counts = (0, 1, 2)
    rates = {followers: [] for followers in counts}
    for run in range(PASSES):
        for followers in counts:
            rates[followers].append(_ship_pass(tmp, queries, followers, run))
    return [{"followers": followers,
             "events_per_s": round(statistics.median(rates[followers]), 1),
             "events_per_s_passes": [round(r, 1) for r in rates[followers]]}
            for followers in counts]


def _measure_follower_lag_and_failover(tmp, queries):
    pdir = os.path.join(tmp, "primary")
    fdir = os.path.join(tmp, "follower")
    wrapped, _ = open_wal_auditor(
        pdir, SumClassicAuditor, _make_dataset(),
        replicate_to=[fdir], policy=POLICY)
    # Timing starts after the attach-time install: lag is the
    # steady-state acknowledgement cost, not the one-off install.
    latencies = _time_sends(wrapped.wal.links[0])
    for query in queries:
        wrapped.audit(query)
    primary_stream = replica_events(pdir)
    wrapped.close()

    lag_ms = np.asarray(latencies) * 1e3
    lag = {
        "p50": round(float(np.percentile(lag_ms, 50)), 3),
        "p99": round(float(np.percentile(lag_ms, 99)), 3),
        "max": round(float(lag_ms.max()), 3),
    }

    start = time.perf_counter()
    promoted, _, info = promote_replica(fdir, SumClassicAuditor,
                                        policy=POLICY)
    failover_ms = (time.perf_counter() - start) * 1e3
    assert promoted.wal.epoch == 1
    assert info.replayed_events <= CHECKPOINT_EVERY
    promoted.close()
    # The promoted replica holds the primary's exact stream (plus the
    # promotion itself changed no events).
    assert replica_events(fdir) == primary_stream
    return lag, round(failover_ms, 2), info


def _measure_replication():
    queries = _queries()
    with tempfile.TemporaryDirectory() as tmp:
        throughput = _measure_ship_throughput(tmp, queries)
        lag, failover_ms, info = _measure_follower_lag_and_failover(
            tmp, queries)
    assert lag["p99"] <= LAG_BOUND_MS, (
        f"follower lag p99 {lag['p99']}ms exceeds the {LAG_BOUND_MS}ms "
        f"regression gate"
    )
    assert failover_ms <= FAILOVER_BOUND_MS, (
        f"failover took {failover_ms}ms, over the {FAILOVER_BOUND_MS}ms "
        f"regression gate"
    )
    return {
        "benchmark": "replication",
        "n": N,
        "events": EVENTS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "ship_passes": PASSES,
        "ship_throughput": throughput,
        "follower_lag_ms": lag,
        "lag_bound_ms": LAG_BOUND_MS,
        "failover_ms": failover_ms,
        "failover_bound_ms": FAILOVER_BOUND_MS,
        "failover_snapshot_events": info.snapshot_events,
        "failover_replayed_events": info.replayed_events,
    }


def test_replication_ship_lag_and_failover(benchmark):
    report = run_once(benchmark, _measure_replication)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    base = report["ship_throughput"][0]["events_per_s"]
    print(format_table(
        ["followers", "events per s", "vs unreplicated"],
        [(r["followers"], f"{r['events_per_s']:.0f}",
          f"{r['events_per_s'] / base:.2f}x")
         for r in report["ship_throughput"]],
        title=f"Synchronous ship throughput (sum classic auditor, n={N}, "
              f"{EVENTS} events, fsync per record, median of {PASSES} "
              f"passes)",
    ))
    lag = report["follower_lag_ms"]
    print(format_table(
        ["metric", "ms"],
        [("follower lag p50", lag["p50"]),
         ("follower lag p99", lag["p99"]),
         ("follower lag max", lag["max"]),
         ("failover (snapshot-install + fence)", report["failover_ms"])],
        title=f"In-process follower lag and failover "
              f"(-> {RESULT_PATH.name})",
    ))
