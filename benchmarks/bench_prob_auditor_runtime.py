"""Probabilistic-auditor serving runtime: vectorized vs scalar reference.

Two claims, one artifact.  First, this repo's serving-path claim: the
batched NumPy hot paths (hit-and-run ensembles, coloring-chain runs,
columnar dataset assembly) beat the scalar reference implementations by
>= 3x on the paths where vectorization applies — while releasing
bitwise-identical decision streams, which every measurement below
re-asserts.  Second, the paper's §3.1 comparison: the closed-form
probabilistic max auditor is "decidedly more efficient" than the
polytope-sampling probabilistic sum auditor of [21].

Vectorization results are written to ``BENCH_prob_auditor_runtime.json``
at the repo root (committed, and uploaded as a CI artifact) so the
speedup numbers are reviewable alongside the code that produced them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.auditors.max_prob import MaxProbabilisticAuditor
from repro.auditors.maxmin_prob import MaxMinProbabilisticAuditor
from repro.auditors.sum_prob import SumProbabilisticAuditor
from repro.coloring.chain import ColoringChain
from repro.coloring.graph import ColoringGraph
from repro.polytope.halfspace import AffineSlice
from repro.polytope.hit_and_run import HitAndRunSampler
from repro.reporting.tables import format_table
from repro.sdb.dataset import Dataset
from repro.synopsis.combined import CombinedSynopsis
from repro.types import AggregateKind, Query, max_query, sum_query

from .conftest import run_once

RESULT_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_prob_auditor_runtime.json"

#: Floor asserted on the hot paths where vectorization applies (the
#: polytope ensemble estimator and the batched coloring kernel).
SPEEDUP_FLOOR = 3.0


# ----------------------------------------------------------------------
# Serving workloads: full audit streams, reference vs vectorized
# ----------------------------------------------------------------------

def _query_stream(n, seed, kinds, count):
    gen = np.random.default_rng(seed)
    stream = []
    for i in range(count):
        size = int(gen.integers(2, n + 1))
        members = frozenset(
            int(x) for x in gen.choice(n, size=size, replace=False)
        )
        stream.append(Query(kinds[i % len(kinds)], members))
    return stream


def _sum_prob_workload(vectorized):
    dataset = Dataset.uniform(16, rng=3)
    auditor = SumProbabilisticAuditor(
        dataset, lam=0.5, gamma=2, delta=0.6, rounds=3,
        num_outer=3, num_inner=100, mc_tolerance=0.25,
        rng=11, vectorized=vectorized,
    )
    return auditor, _query_stream(16, 50, [AggregateKind.SUM], 12)


def _max_prob_workload(vectorized):
    dataset = Dataset.uniform(200, rng=3, duplicate_free=True)
    auditor = MaxProbabilisticAuditor(
        dataset, lam=0.3, gamma=4, delta=0.5, rounds=5,
        num_samples=200, rng=12, vectorized=vectorized,
    )
    return auditor, _query_stream(200, 52, [AggregateKind.MAX], 40)


def _maxmin_prob_workload(vectorized):
    dataset = Dataset.uniform(24, rng=3, duplicate_free=True)
    auditor = MaxMinProbabilisticAuditor(
        dataset, lam=0.35, gamma=4, delta=0.6, rounds=4,
        num_outer=6, num_inner=150, rng=13, vectorized=vectorized,
    )
    return auditor, _query_stream(
        24, 51, [AggregateKind.MAX, AggregateKind.MIN], 10
    )


WORKLOADS = {
    "sum_prob": _sum_prob_workload,
    "max_prob": _max_prob_workload,
    "maxmin_prob": _maxmin_prob_workload,
}


def _run_workload(factory, vectorized):
    auditor, stream = factory(vectorized)
    start = time.perf_counter()
    decisions = [auditor.audit(q) for q in stream]
    elapsed = time.perf_counter() - start
    return elapsed, [(d.denied, d.value) for d in decisions]


def _measure_serving():
    results = {}
    for name, factory in WORKLOADS.items():
        t_vec, d_vec = _run_workload(factory, vectorized=True)
        t_ref, d_ref = _run_workload(factory, vectorized=False)
        results[name] = {
            "queries": len(d_vec),
            "reference_s": round(t_ref, 4),
            "vectorized_s": round(t_vec, 4),
            "speedup": round(t_ref / t_vec, 2),
            "decisions_identical": d_vec == d_ref,
        }
    return results


# ----------------------------------------------------------------------
# Kernel microbenches: the vectorized inner loops in isolation
# ----------------------------------------------------------------------

def _ensemble_kernel(n, members, chains):
    """Hit-and-run ensemble (the posterior-estimation hot path) over one
    equality row on ``members``, at default steps."""
    def sampler(vectorized):
        slice_ = AffineSlice(n)
        row = np.zeros(n)
        row[list(members)] = 1.0
        slice_.add_equality(row, 0.5 * len(members))
        return HitAndRunSampler(slice_, np.full(n, 0.5), rng=4,
                                vectorized=vectorized)

    fast = sampler(True)
    start = time.perf_counter()
    out_vec = fast.samples_ensemble(chains)
    t_vec = time.perf_counter() - start
    slow = sampler(False)
    start = time.perf_counter()
    out_ref = slow.samples_ensemble(chains)
    t_ref = time.perf_counter() - start
    return {
        "n": n,
        "chains": chains,
        "reference_s": round(t_ref, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_ref / t_vec, 2),
        "bitwise_identical": bool(np.array_equal(out_vec, out_ref)),
    }


def _coloring_kernel():
    """Batched chain run vs the legacy per-transition step() loop."""
    synopsis = CombinedSynopsis(30, 0.0, 1.0)
    synopsis.insert(AggregateKind.MAX, set(range(0, 10)), 0.95)
    synopsis.insert(AggregateKind.MAX, set(range(10, 20)), 0.9)
    synopsis.insert(AggregateKind.MIN, {0, 10, 20, 21, 22}, 0.05)
    synopsis.insert(AggregateKind.MIN, {1, 11, 23, 24, 25}, 0.1)
    graph = ColoringGraph(synopsis)
    initial = graph.find_valid_coloring()
    steps = 100_000

    batched = ColoringChain(graph, dict(initial), rng=1)
    start = time.perf_counter()
    batched.run(steps)
    t_batched = time.perf_counter() - start

    legacy = ColoringChain(graph, dict(initial), rng=1)
    start = time.perf_counter()
    for _ in range(steps):
        legacy.step()
    t_legacy = time.perf_counter() - start
    return {
        "steps": steps,
        "legacy_step_s": round(t_legacy, 4),
        "batched_run_s": round(t_batched, 4),
        "speedup": round(t_legacy / t_batched, 2),
    }


def _measure_vectorization():
    serving = _measure_serving()
    kernels = {
        "hit_and_run_ensemble": _ensemble_kernel(16, range(16), 400),
        # The sumprob_n40 serving shape: sum-prob's trial slice for a
        # 10-member query, num_inner = 100 chains of 2 * 4 * 39 steps.
        "hit_and_run_ensemble_n40": _ensemble_kernel(40, range(0, 40, 4),
                                                     100),
        "coloring_run_vs_legacy_step": _coloring_kernel(),
    }
    hot_path_speedups = [
        serving["sum_prob"]["speedup"],
        kernels["hit_and_run_ensemble"]["speedup"],
        kernels["hit_and_run_ensemble_n40"]["speedup"],
        kernels["coloring_run_vs_legacy_step"]["speedup"],
    ]
    return {
        "benchmark": "prob_auditor_runtime",
        "speedup_floor": SPEEDUP_FLOOR,
        "serving_workloads": serving,
        "kernels": kernels,
        "hot_path_min_speedup": min(hot_path_speedups),
    }


def test_vectorized_hot_paths_meet_speedup_floor(benchmark):
    report = run_once(benchmark, _measure_vectorization)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")

    serving = report["serving_workloads"]
    print(format_table(
        ["workload", "reference (s)", "vectorized (s)", "speedup",
         "decisions identical"],
        [(name, f"{r['reference_s']:.3f}", f"{r['vectorized_s']:.3f}",
          f"{r['speedup']:.1f}x", r["decisions_identical"])
         for name, r in serving.items()],
        title="Serving runtime: scalar reference vs vectorized "
              f"(-> {RESULT_PATH.name})",
    ))

    # Vectorization must never change a released bit ...
    for name, result in serving.items():
        assert result["decisions_identical"], name
    for name in ("hit_and_run_ensemble", "hit_and_run_ensemble_n40"):
        assert report["kernels"][name]["bitwise_identical"], name
    # ... and must clear the floor wherever batching applies (max_prob /
    # maxmin_prob serving is dominated by closed-form posteriors and
    # short chains, so their end-to-end ratios hover near 1x by design;
    # they are reported, not gated).
    assert report["hot_path_min_speedup"] >= SPEEDUP_FLOOR


# ----------------------------------------------------------------------
# The paper's §3.1 claim: closed-form max vs polytope-sampling sum
# ----------------------------------------------------------------------

SIZES = [40, 80, 160]
PARAMS = dict(lam=0.3, gamma=4, delta=0.4, rounds=5)


def _time_decision(auditor, query) -> float:
    start = time.perf_counter()
    auditor.audit(query)
    return time.perf_counter() - start


def _measure():
    rows = []
    for n in SIZES:
        data_max = Dataset.uniform(n, rng=n)
        data_sum = Dataset.uniform(n, rng=n, duplicate_free=False)
        max_auditor = MaxProbabilisticAuditor(
            data_max, num_samples=60, rng=1, **PARAMS
        )
        sum_auditor = SumProbabilisticAuditor(
            data_sum, num_outer=5, num_inner=60, rng=1, **PARAMS
        )
        members = range(int(0.9 * n))
        t_max = _time_decision(max_auditor, max_query(members))
        t_sum = _time_decision(sum_auditor, sum_query(members))
        rows.append((n, t_max, t_sum, t_sum / t_max))
    return rows


def test_max_auditor_faster_than_polytope_sum(benchmark):
    rows = run_once(benchmark, _measure)
    print(format_table(
        ["n", "max auditor (s)", "sum auditor (s)", "slowdown of sum"],
        [(n, f"{tm:.4f}", f"{ts:.4f}", f"{ratio:.1f}x")
         for n, tm, ts, ratio in rows],
        title="Per-decision cost: closed-form max vs polytope-sampling sum",
    ))
    # Reproduction target: polytope sampling costs at least 3x more at every
    # size (the paper's qualitative "decidedly more efficient").
    for _, t_max, t_sum, ratio in rows:
        assert ratio > 3.0


def test_max_auditor_scales_linearly_in_n(benchmark):
    """Per-decision cost of the max auditor grows ~linearly with n."""
    def measure():
        times = {}
        for n in (50, 100, 200, 400):
            data = Dataset.uniform(n, rng=n)
            auditor = MaxProbabilisticAuditor(
                data, num_samples=40, rng=2, **PARAMS
            )
            times[n] = _time_decision(auditor, max_query(range(n // 2)))
        return times

    times = run_once(benchmark, measure)
    print(format_table(
        ["n", "decision time (s)"],
        [(n, f"{t:.4f}") for n, t in times.items()],
        title="Max auditor per-decision scaling",
    ))
    # 8x data should cost far less than quadratically more (allow noise).
    assert times[400] / max(times[50], 1e-9) < 48
