"""Probabilistic-auditor serving runtime: vectorized vs scalar reference.

Two claims, one artifact.  First, this repo's serving-path claim: the
batched NumPy hot paths (hit-and-run ensembles, coloring-chain runs,
columnar dataset assembly) and max-prob's first-breach decision, which
skips the samples it never reads, beat the scalar reference
implementations by >= 3x on the paths where they apply — while releasing
bitwise-identical decision streams, which every measurement below
re-asserts.  Second, the paper's §3.1 comparison: the closed-form
probabilistic max auditor is "decidedly more efficient" than the
polytope-sampling probabilistic sum auditor of [21].

Vectorization results are written to ``BENCH_prob_auditor_runtime.json``
at the repo root (committed, and uploaded as a CI artifact) so the
speedup numbers are reviewable alongside the code that produced them.
Every serving workload and kernel is timed as the median of ``RUNS``
runs per mode, the modes alternating.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.auditors import max_prob
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
#: polytope ensemble estimator, the batched coloring kernel and
#: max-prob's first-breach decision).
SPEEDUP_FLOOR = 3.0

#: Timed runs per mode; each row reports their median.
RUNS = 3


def _alternating(measure):
    """``measure(fast)`` for fast, slow, fast, ... ``RUNS`` times each;
    returns the median seconds of each mode and every run's output.

    ``measure`` returns ``(seconds, output)``.
    """
    runs = {True: [], False: []}
    for _ in range(RUNS):
        for fast in (True, False):
            runs[fast].append(measure(fast))
    return ({fast: statistics.median(t for t, _ in r)
             for fast, r in runs.items()},
            [out for r in runs.values() for _, out in r])


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


def _run_stream(auditor, stream):
    """Seconds to audit ``stream``, and the decisions with the final
    generator state (the stream a later decision would draw from)."""
    start = time.perf_counter()
    decisions = [auditor.audit(q) for q in stream]
    elapsed = time.perf_counter() - start
    return elapsed, ([(d.denied, d.reason, d.value) for d in decisions],
                     auditor._rng.bit_generator.state)


def _measure_serving():
    results = {}
    for name, factory in WORKLOADS.items():
        times, outputs = _alternating(
            lambda vectorized: _run_stream(*factory(vectorized)))
        results[name] = {
            "queries": len(outputs[0][0]),
            "reference_s": round(times[False], 4),
            "vectorized_s": round(times[True], 4),
            "speedup": round(times[False] / times[True], 2),
            # Same deny bits, reasons and values, and the same final
            # generator state, in every run of both modes.
            "decisions_identical": all(o == outputs[0] for o in outputs),
        }
    return results


# ----------------------------------------------------------------------
# Kernel microbenches: the vectorized inner loops in isolation
# ----------------------------------------------------------------------

def _ensemble_kernel(n, members, chains):
    """Hit-and-run ensemble (the posterior-estimation hot path) over one
    equality row on ``members``, at default steps."""
    def measure(vectorized):
        slice_ = AffineSlice(n)
        row = np.zeros(n)
        row[list(members)] = 1.0
        slice_.add_equality(row, 0.5 * len(members))
        sampler = HitAndRunSampler(slice_, np.full(n, 0.5), rng=4,
                                   vectorized=vectorized)
        start = time.perf_counter()
        out = sampler.samples_ensemble(chains)
        return time.perf_counter() - start, out

    times, outputs = _alternating(measure)
    return {
        "n": n,
        "chains": chains,
        "reference_s": round(times[False], 4),
        "vectorized_s": round(times[True], 4),
        "speedup": round(times[False] / times[True], 2),
        "bitwise_identical": all(np.array_equal(o, outputs[0])
                                 for o in outputs),
    }


def _first_breach_kernel(queries=300):
    """Max-prob at the ``maxprob_n1000_repl`` serving shape: ``serve``
    defaults over 1000 records, asked max queries of 2-10 members, each
    denied at its first sample.  The default mode reads that sample and
    skips the other 59; the reference draws and assembles all 60."""
    data = Dataset.uniform(1000, rng=7, duplicate_free=True)
    gen = np.random.default_rng(54)
    stream = [max_query(gen.choice(1000, size=int(gen.integers(2, 11)),
                                   replace=False).tolist())
              for _ in range(queries)]

    def auditor(vectorized):
        return MaxProbabilisticAuditor(data, rng=0, vectorized=vectorized)

    times, outputs = _alternating(
        lambda vectorized: _run_stream(auditor(vectorized), stream))
    # An untimed pass counts the samples the decisions checked.
    checked = []
    check = max_prob.algorithm1_safe

    def counting(*args, **kwargs):
        checked.append(1)
        return check(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(max_prob, "algorithm1_safe", counting)
        _run_stream(auditor(True), stream)
    return {
        "n": 1000,
        "queries": queries,
        "reference_s": round(times[False], 4),
        "vectorized_s": round(times[True], 4),
        "speedup": round(times[False] / times[True], 2),
        "decisions_identical": all(o == outputs[0] for o in outputs),
        "denied": sum(denied for denied, _, _ in outputs[0][0]),
        "samples_checked": len(checked),
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

    def measure(batched):
        chain = ColoringChain(graph, dict(initial), rng=1)
        start = time.perf_counter()
        if batched:
            chain.run(steps)
        else:
            for _ in range(steps):
                chain.step()
        return time.perf_counter() - start, None

    times, _ = _alternating(measure)
    return {
        "steps": steps,
        "legacy_step_s": round(times[False], 4),
        "batched_run_s": round(times[True], 4),
        "speedup": round(times[False] / times[True], 2),
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
        "max_prob_first_breach_n1000": _first_breach_kernel(),
    }
    hot_path_speedups = [
        serving["sum_prob"]["speedup"],
        kernels["hit_and_run_ensemble"]["speedup"],
        kernels["hit_and_run_ensemble_n40"]["speedup"],
        kernels["coloring_run_vs_legacy_step"]["speedup"],
        kernels["max_prob_first_breach_n1000"]["speedup"],
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
    first_breach = report["kernels"]["max_prob_first_breach_n1000"]
    assert first_breach["decisions_identical"]
    # Every decision denies, and at its first sample.
    assert (first_breach["denied"] == first_breach["samples_checked"]
            == first_breach["queries"])
    # ... and must clear the floor wherever batching or skipping applies
    # (max_prob / maxmin_prob serving is dominated by closed-form
    # posteriors and short chains, so their end-to-end ratios hover near
    # 1x by design; they are reported, not gated).
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
