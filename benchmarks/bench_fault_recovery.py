"""Robustness layer costs: WAL append overhead and recovery-replay time.

Three tables (see docs/ROBUSTNESS.md):

1. per-query serving cost of the journalling stack — bare auditor, WAL
   without fsync, and the full durable WAL (fsync per record) — the price
   of the "answer released ⇒ record durable" invariant; each stack is the
   median of ``PASSES`` passes, the stacks' order rotating from pass to
   pass so host drift hits them alike;
2. crash-recovery time (parse + heal + replay, with and without verify
   mode) as a function of journal length, for a WAL directory that never
   checkpoints;
3. the same recovery with checkpoints: replay is bounded by the
   checkpoint interval instead of growing with the log, and the newest
   snapshot stays the same size once the auditor's decision state stops
   changing (the trail keeps counts, the log is the decision history),
   which is the point of ``repro.resilience.checkpoint``.

The checkpointed series is written to ``BENCH_fault_recovery.json`` (a
committed artifact, like ``BENCH_prob_auditor_runtime.json``) so the
bounded-replay and bounded-snapshot claims are pinned in the repo.
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
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import sum_query

from .conftest import run_once

N = 60
QUERIES = 150
CHECKPOINT_EVERY = 128
#: Timed passes per serving stack; the table reports their median.
PASSES = 5
#: How much larger the 1600-event snapshot may be than the 400-event one:
#: the decision state has saturated by 400 events, so only counters grow.
SNAPSHOT_GROWTH_BOUND = 1024
RESULT_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_fault_recovery.json"
#: The full-replay baseline: a WAL directory that never checkpoints.
NEVER = CheckpointPolicy(every_records=None)


def _query_stream(rng):
    for _ in range(QUERIES):
        size = int(rng.integers(2, N // 2))
        members = rng.choice(N, size=size, replace=False)
        yield sum_query(int(i) for i in members)


def _make_dataset():
    return Dataset.uniform(N, rng=11)


#: The serving stacks: a label and the WAL's fsync (``None``: no WAL).
STACKS = (("bare auditor", None),
          ("WAL, no fsync", False),
          ("WAL + fsync per record", True))


def _serve(tmp, fsync, run):
    """Time one full stream on one stack; returns seconds per query."""
    if fsync is None:
        auditor = SumClassicAuditor(_make_dataset())
    else:
        auditor, _ = open_wal_auditor(
            os.path.join(tmp, f"wal-{fsync}-{run}"), SumClassicAuditor,
            _make_dataset(), fsync=fsync, policy=NEVER)
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for query in _query_stream(rng):
        auditor.audit(query)
    elapsed = time.perf_counter() - start
    if fsync is not None:
        auditor.close()
    return elapsed / QUERIES


def _measure_append_overhead():
    with tempfile.TemporaryDirectory() as tmp:
        return _append_overhead_rows(tmp)


def _append_overhead_rows(tmp):
    passes = {label: [] for label, _ in STACKS}
    for run in range(PASSES):
        # Rotate the order so no stack always runs first (or last).
        turn = run % len(STACKS)
        for label, fsync in STACKS[turn:] + STACKS[:turn]:
            passes[label].append(_serve(tmp, fsync, run) * 1e6)
    bare = statistics.median(passes[STACKS[0][0]])
    rows = []
    for label, _ in STACKS:
        median = statistics.median(passes[label])
        rows.append((label, f"{median:.0f}", f"{median / bare:.2f}x",
                     " ".join(f"{us:.0f}" for us in passes[label])))
    return rows


def _measure_recovery():
    with tempfile.TemporaryDirectory() as tmp:
        return _recovery_rows(tmp)


def _recovery_rows(tmp):
    rows = []
    for events in (100, 400, 1600):
        path = os.path.join(tmp, f"recover-{events}")
        wrapped, _ = open_wal_auditor(path, SumClassicAuditor,
                                      _make_dataset(), fsync=False,
                                      policy=NEVER)
        _pose(wrapped, events)
        dataset = _make_dataset()

        start = time.perf_counter()
        recovered, _ = open_wal_auditor(path, SumClassicAuditor, dataset,
                                        fsync=False, policy=NEVER)
        replay = time.perf_counter() - start
        assert len(recovered.trail) == events
        recovered.close()

        start = time.perf_counter()
        recovered, _ = open_wal_auditor(path, SumClassicAuditor, dataset,
                                        fsync=False, verify=True,
                                        policy=NEVER)
        verify = time.perf_counter() - start
        recovered.close()
        size = sum(os.path.getsize(os.path.join(path, name))
                   for name in os.listdir(path))
        rows.append((events, f"{size / 1024:.0f}",
                     f"{replay * 1e3:.1f}", f"{verify * 1e3:.1f}"))
    return rows


def _pose(wrapped, events):
    """Audit ``events`` queries from the standard stream."""
    rng = np.random.default_rng(7)
    posed = 0
    while posed < events:
        for query in _query_stream(rng):
            if posed >= events:
                break
            wrapped.audit(query)
            posed += 1
    wrapped.close()


def _time_best(fn, repeats=3):
    """Best-of-N wall time in ms, plus the last call's result.

    A single-shot recovery timing is dominated by one-time costs — the
    first measurement pays the code path's cold start, and any run can
    catch a GC pause while parsing a large snapshot.  The minimum over a
    few repeats is the honest estimate of the work itself.
    """
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - start) * 1e3
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _measure_checkpointed_recovery():
    with tempfile.TemporaryDirectory() as tmp:
        return _checkpointed_recovery_report(tmp)


def _checkpointed_recovery_report(tmp):
    factory = SumClassicAuditor
    policy = CheckpointPolicy(every_records=CHECKPOINT_EVERY)
    series = []
    for events in (100, 400, 1600):
        # Dataset construction is hoisted out of the timed windows — both
        # columns time *recovery* (parse + heal + replay).
        dataset = _make_dataset()

        # Full-replay baseline: a WAL directory that never checkpoints.
        flat = os.path.join(tmp, f"flat-{events}")
        wrapped, _ = open_wal_auditor(flat, factory, _make_dataset(),
                                      policy=NEVER, fsync=False)
        _pose(wrapped, events)

        def flat_once():
            recovered, _ = open_wal_auditor(flat, factory, dataset,
                                            policy=NEVER, fsync=False)
            replayed = len(recovered.trail)
            recovered.close()
            return replayed

        flat_ms, replayed = _time_best(flat_once)
        assert replayed == events

        # Checkpointed directory: recovery loads the newest snapshot and
        # replays only the post-checkpoint suffix.
        directory = os.path.join(tmp, f"ckpt-{events}")
        wrapped, _ = open_wal_auditor(
            directory, factory, _make_dataset(), policy=policy,
            fsync=False)
        _pose(wrapped, events)

        def ckpt_once():
            recovered, _ = open_wal_auditor(
                directory, factory, dataset, policy=policy, fsync=False)
            replayed = len(recovered.trail)
            recovery = recovered.wal.last_recovery
            recovered.close()
            return replayed, recovery

        ckpt_ms, (replayed, info) = _time_best(ckpt_once)
        assert replayed == events
        snapshot_bytes = (
            os.path.getsize(os.path.join(directory, info.snapshot_name))
            if info.snapshot_name is not None else None)

        # Bounded replay is the contract, not a lucky timing: whatever the
        # log length, the suffix never exceeds one checkpoint interval.
        assert info.replayed_events <= CHECKPOINT_EVERY
        if events > CHECKPOINT_EVERY:
            assert info.snapshot_name is not None
        series.append({
            "events": events,
            "full_replay_ms": round(flat_ms, 2),
            "checkpointed_ms": round(ckpt_ms, 2),
            "snapshot_events": info.snapshot_events,
            "replayed_events": info.replayed_events,
            "snapshot_bytes": snapshot_bytes,
        })
    # Bounded snapshots: past saturation the decision state is fixed, so
    # four times the log may add counters, never the decisions.
    by_events = {row["events"]: row["snapshot_bytes"] for row in series}
    assert by_events[1600] - by_events[400] <= SNAPSHOT_GROWTH_BOUND, (
        f"the 1600-event snapshot is {by_events[1600]} bytes against "
        f"{by_events[400]} at 400 events")
    return {
        "benchmark": "fault_recovery",
        "n": N,
        "checkpoint_every": CHECKPOINT_EVERY,
        "replay_bound": CHECKPOINT_EVERY,
        "snapshot_growth_bound_bytes": SNAPSHOT_GROWTH_BOUND,
        "recovery": series,
    }


def test_wal_append_overhead(benchmark):
    rows = run_once(benchmark, _measure_append_overhead)
    print(format_table(
        ["serving stack", "us per query", "vs bare", "per pass (us)"],
        rows,
        title=f"WAL append overhead (sum classic auditor, n={N}, "
              f"{QUERIES} queries, median of {PASSES} passes)",
    ))


def test_recovery_replay_scales_with_journal_length(benchmark):
    rows = run_once(benchmark, _measure_recovery)
    print(format_table(
        ["journalled events", "WAL KiB", "replay ms", "verify-replay ms"],
        rows,
        title="Crash-recovery time vs journal length (parse + heal + "
              "replay)",
    ))


def test_checkpoints_bound_recovery_replay(benchmark):
    report = run_once(benchmark, _measure_checkpointed_recovery)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(format_table(
        ["journalled events", "full replay ms", "checkpointed ms",
         "snapshot events", "suffix replayed", "snapshot bytes"],
        [(r["events"], f"{r['full_replay_ms']:.1f}",
          f"{r['checkpointed_ms']:.1f}", r["snapshot_events"],
          r["replayed_events"], r["snapshot_bytes"] or "-")
         for r in report["recovery"]],
        title="Recovery with checkpoints: replay bounded by the "
              f"checkpoint interval ({CHECKPOINT_EVERY} events) "
              f"(-> {RESULT_PATH.name})",
    ))
