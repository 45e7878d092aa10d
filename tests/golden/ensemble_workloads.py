"""Hit-and-run ensembles at the sum-prob serving shape, pinned as histograms.

The ``sum_prob`` decision golden runs n = 8 with 20 chains of 16 steps,
far from the deployed shape.  At the deployed shape (``serve --auditor
sum-prob`` defaults over 40 records) every decision is a 5/5 breach, so
a decision golden there cannot see a changed trajectory.  This golden
pins the sampler itself at that shape instead: an ``AffineSlice(40, …)``
with sum-prob's trial slice (one equality row of 2-20 members) and one
with several rows, each walked by ``samples_ensemble(100)`` at default
steps and then five ``sample()`` calls, for three seeds.

Each element's values are stored as a histogram over 64 equal-width
buckets of ``[LOW, HIGH]``.  Integer counts do not move with last-ulp
platform noise, but any change to the draws, their order or the walk
moves them.

Regenerate with ``PYTHONPATH=src python -m tests.golden.generate_ensembles``
(only when an *intentional* stream change lands).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.polytope.halfspace import AffineSlice
from repro.polytope.hit_and_run import HitAndRunSampler

GOLDEN_DIR = Path(__file__).resolve().parent

N = 40
LOW, HIGH = 0.0, 1000.0
BUCKETS = 64
CHAINS = 100
SAMPLE_CALLS = 5
ENSEMBLE_SEEDS = [0, 1, 2]


def _start() -> np.ndarray:
    return np.random.default_rng(40).uniform(LOW, HIGH, N)


def _member_rows(seed: int, rows: int) -> List[np.ndarray]:
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        size = int(gen.integers(2, 21))
        row = np.zeros(N)
        row[gen.choice(N, size=size, replace=False)] = 1.0
        out.append(row)
    return out


def _slice(seed: int, rows: int) -> Tuple[AffineSlice, np.ndarray]:
    start = _start()
    slice_ = AffineSlice(N, LOW, HIGH)
    for row in _member_rows(seed, rows):
        slice_.add_equality(row, float(row @ start))
    return slice_, start


def _trial():
    # sum-prob's trial slice for a first query: one 2-20 member row.
    return _slice(41, 1)


def _multi_row():
    # A trial slice after four answered queries.
    return _slice(42, 5)


ENSEMBLE_WORKLOADS = {
    "trial": _trial,
    "multi_row": _multi_row,
}


def histograms(values: np.ndarray) -> List[List[int]]:
    """Per-element bucket counts of a ``(rows, N)`` value matrix."""
    edges = np.linspace(LOW, HIGH, BUCKETS + 1)
    index = np.clip(np.searchsorted(edges, values, side="right") - 1,
                    0, BUCKETS - 1)
    return [np.bincount(index[:, j], minlength=BUCKETS).tolist()
            for j in range(values.shape[1])]


def run_ensemble_workload(name: str,
                          vectorized: bool) -> List[Dict[str, object]]:
    """Walk workload ``name`` for every seed; one record each."""
    records = []
    for seed in ENSEMBLE_SEEDS:
        slice_, start = ENSEMBLE_WORKLOADS[name]()
        sampler = HitAndRunSampler(slice_, start, rng=seed,
                                   vectorized=vectorized)
        ensemble = sampler.samples_ensemble(CHAINS)
        samples = np.array([sampler.sample() for _ in range(SAMPLE_CALLS)])
        records.append({
            "seed": seed,
            "dimension": slice_.dimension,
            "ensemble": histograms(ensemble),
            "samples": histograms(samples),
        })
    return records


def ensemble_golden_path() -> Path:
    return GOLDEN_DIR / "hit_and_run_n40_ensembles.json"


def load_ensemble_golden() -> Dict[str, List[Dict[str, object]]]:
    with ensemble_golden_path().open() as fh:
        return json.load(fh)["workloads"]
