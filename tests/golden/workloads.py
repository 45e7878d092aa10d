"""Fixed-seed workloads for the differential replay goldens.

``WORKLOADS`` are 200-query streams at small n; ``SERVING_WORKLOADS``
are short streams at serving size.  Each workload builds a
probabilistic auditor over a deterministic dataset and replays a
deterministic query stream through it.  The decision sequence — every
deny/answer bit, with answered values in ``float.hex`` form — is
captured bitwise.  The golden files lock the
stream: the batched NumPy serving path (``vectorized=True``), the scalar
reference path (``vectorized=False``) and the committed golden must all
agree float-for-float, so vectorization can never silently change a
released decision.

Regenerate with ``PYTHONPATH=src python -m tests.golden.generate`` from
the repo root (only when an *intentional* stream change lands).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.auditors.max_prob import MaxProbabilisticAuditor
from repro.auditors.maxmin_prob import MaxMinProbabilisticAuditor
from repro.auditors.sum_prob import SumProbabilisticAuditor
from repro.sdb.dataset import Dataset
from repro.types import AggregateKind, Query

GOLDEN_DIR = Path(__file__).resolve().parent
NUM_QUERIES = 200


def _query_stream(n: int, seed: int, kinds: List[AggregateKind],
                  count: int = NUM_QUERIES, min_size: int = 1,
                  max_size: Optional[int] = None) -> List[Query]:
    gen = np.random.default_rng(seed)
    stream = []
    for i in range(count):
        size = int(gen.integers(min_size, (max_size or n) + 1))
        members = frozenset(
            int(x) for x in gen.choice(n, size=size, replace=False)
        )
        stream.append(Query(kinds[i % len(kinds)], members))
    return stream


def _sum_prob(vectorized: bool):
    dataset = Dataset.uniform(8, rng=7, duplicate_free=True)
    auditor = SumProbabilisticAuditor(
        dataset, lam=0.5, gamma=2, delta=0.6, rounds=3,
        num_outer=3, num_inner=20, mc_tolerance=0.25,
        steps_per_sample=8, rng=11, vectorized=vectorized,
    )
    return auditor, _query_stream(8, 100, [AggregateKind.SUM])


def _max_prob(vectorized: bool):
    dataset = Dataset.uniform(40, rng=7, duplicate_free=True)
    auditor = MaxProbabilisticAuditor(
        dataset, lam=0.3, gamma=4, delta=0.5, rounds=5,
        num_samples=40, rng=12, vectorized=vectorized,
    )
    return auditor, _query_stream(40, 101, [AggregateKind.MAX])


def _maxmin_prob(vectorized: bool):
    dataset = Dataset.uniform(8, rng=7, duplicate_free=True)
    auditor = MaxMinProbabilisticAuditor(
        dataset, lam=0.35, gamma=4, delta=0.6, rounds=4,
        num_outer=3, num_inner=20, rng=13, vectorized=vectorized,
    )
    return auditor, _query_stream(
        8, 102, [AggregateKind.MAX, AggregateKind.MIN]
    )


WORKLOADS = {
    "sum_prob": _sum_prob,
    "max_prob": _max_prob,
    "maxmin_prob": _maxmin_prob,
}


def _maxmin_prob_n1000(vectorized: bool):
    # The deployed shape: `serve --auditor maxmin-prob` defaults (every
    # privacy and sampling parameter, seed 0) over 1000 records, asked
    # alternating max/min queries of 250-500 members.  The 200-query
    # goldens above run at n <= 40, where no decision reaches the
    # per-element costs that dominate at serving size.
    dataset = Dataset.uniform(1000, rng=7, duplicate_free=True)
    auditor = MaxMinProbabilisticAuditor(dataset, rng=0,
                                         vectorized=vectorized)
    return auditor, _query_stream(
        1000, 103, [AggregateKind.MAX, AggregateKind.MIN],
        count=SERVING_NUM_QUERIES, min_size=250, max_size=500,
    )


def _max_prob_n1000(vectorized: bool):
    # `serve --auditor max-prob` defaults over 1000 records, asked max
    # queries of 250-500 members.  Here delta/2T * N = 0.015 < 1, so one
    # unsafe sample decides a denial; most denials here first breach late
    # in the block, and the answers evaluate all N samples.
    dataset = Dataset.uniform(1000, rng=7, duplicate_free=True)
    auditor = MaxProbabilisticAuditor(dataset, rng=0, vectorized=vectorized)
    return auditor, _query_stream(
        1000, 104, [AggregateKind.MAX],
        count=SERVING_NUM_QUERIES, min_size=250, max_size=500,
    )


#: Decisions in each serving-shape golden (one costs ~0.1-0.3 s).
SERVING_NUM_QUERIES = 24

#: Goldens at serving size; short streams, replayed by
#: ``tests/auditors/test_golden_serving_replay.py``.
SERVING_WORKLOADS = {
    "maxmin_prob_n1000": _maxmin_prob_n1000,
    "max_prob_n1000": _max_prob_n1000,
}


def decision_record(query: Query, decision) -> Dict[str, object]:
    """One decision, serialised bitwise (answers as ``float.hex``)."""
    return {
        "kind": query.kind.value,
        "members": sorted(query.query_set),
        "denied": decision.denied,
        "reason": decision.reason.value if decision.reason else None,
        "value_hex": (float(decision.value).hex()
                      if decision.answered else None),
    }


def run_workload(name: str, vectorized: bool) -> List[Dict[str, object]]:
    """Replay workload ``name`` and return its decision records."""
    make = WORKLOADS.get(name) or SERVING_WORKLOADS[name]
    auditor, stream = make(vectorized)
    return [decision_record(q, auditor.audit(q)) for q in stream]


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}_decisions.json"


def load_golden(name: str) -> List[Dict[str, object]]:
    with golden_path(name).open() as fh:
        blob = json.load(fh)
    return blob["decisions"]
