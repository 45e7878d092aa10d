"""Ablation (§7) — the auditing denial-of-service attack and mitigations.

A saboteur floods the shared auditor with random sum queries, spending the
rank budget so that a victim's important panel (the grand total plus group
subtotals) gets denied.  Two complementary mitigations are measured:
pre-seeding (the paper's proposal: fold the panel in first, so it stays
answerable through any flood) and admission control (the audit worker's
per-user token bucket, which sheds the flood with ``RESOURCE_EXHAUSTED``
before it can spend the shared budget).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.attack.dos_attack import (
    important_panel,
    run_dos_experiment,
)
from repro.reporting.tables import format_table
from repro.rng import random_subset
from repro.sdb.dataset import Dataset
from repro.serving.shards import ShardSpec, ShardWorker

from .conftest import run_once

TRIALS = 5


def _measure():
    rows = []
    for n in (40, 80, 160):
        outcomes = [run_dos_experiment(n=n, flood_queries=3 * n, rng=seed)
                    for seed in range(TRIALS)]
        rows.append((
            n,
            f"{np.mean([o.baseline_rate for o in outcomes]):.2f}",
            f"{np.mean([o.attacked_rate for o in outcomes]):.2f}",
            f"{np.mean([o.preseeded_rate for o in outcomes]):.2f}",
        ))
        for o in outcomes:
            assert o.baseline_rate == 1.0
            assert o.preseeded_rate == 1.0
            assert o.attacked_rate < 1.0
    return rows


def test_dos_attack_and_preseeding_mitigation(benchmark):
    rows = run_once(benchmark, _measure)
    print(format_table(
        ["n", "panel answer rate (no attack)", "after flood",
         "after flood, pre-seeded"],
        rows,
        title="Auditing DoS (§7): flood of 3n random sum queries vs an "
              "important-query panel",
    ))


def _panel_rate(auditor, panel):
    return sum(auditor.would_answer(q) for q in panel) / len(panel)


def _flooded_worker(n, seed, wal_dir, user_rate=None, burst=10):
    """Audit worker after a 3n-query flood; returns (worker, shed)."""
    gen = np.random.default_rng(seed)
    data = Dataset.uniform(n, rng=gen, duplicate_free=False)
    worker = ShardWorker(ShardSpec(
        values=tuple(data.values), low=data.low, high=data.high,
        wal_dir=wal_dir, auditor="sum", user_rate=user_rate,
        user_burst=burst))
    shed = 0
    for _ in range(3 * n):
        reply = worker.handle({"op": "query", "user": "saboteur",
                               "kind": "sum",
                               "members": sorted(random_subset(gen, n))})
        shed += reply["shed"]
    return worker, shed


def _panel_rate_after(worker, n):
    rate = _panel_rate(worker.auditor.auditor, important_panel(n))
    worker.close()
    return rate


def _measure_admission():
    """The serving-layer mitigation: a per-user token bucket caps how much
    of the shared rank budget any one user can spend, so the flood is shed
    at the door instead of freezing the panel."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in (40, 80, 160):
            burst = n // 4
            unprotected, protected, sheds = [], [], []
            for seed in range(TRIALS):
                worker, shed = _flooded_worker(
                    n, seed, os.path.join(tmp, f"open-{n}-{seed}"))
                assert shed == 0
                unprotected.append(_panel_rate_after(worker, n))

                # A bucket that never refills within the run: the
                # saboteur gets its burst and nothing more.
                worker, shed = _flooded_worker(
                    n, seed, os.path.join(tmp, f"gated-{n}-{seed}"),
                    user_rate=1e-9, burst=burst)
                sheds.append(shed)
                # The bucket admits exactly the burst; the rest is
                # journalled RESOURCE_EXHAUSTED, never an unhandled
                # exception.
                assert shed == 3 * n - burst
                stats = worker.handle({"op": "stats"})
                assert stats["shed"] == {"rate": shed}
                assert stats["events"] == 3 * n
                protected.append(_panel_rate_after(worker, n))
            for prot, unprot in zip(protected, unprotected):
                assert prot >= unprot
            rows.append((
                n, burst,
                f"{np.mean(unprotected):.2f}",
                f"{np.mean(protected):.2f}",
                f"{np.mean(sheds):.0f}/{3 * n}",
            ))
    return rows


def test_admission_control_caps_flood_damage(benchmark):
    rows = run_once(benchmark, _measure_admission)
    print(format_table(
        ["n", "attacker burst", "panel rate (no gate)",
         "panel rate (token bucket)", "flood shed"],
        rows,
        title="Admission control vs the §7 flood: per-user token bucket "
              "(burst n/4) sheds the saboteur before the budget is spent",
    ))
