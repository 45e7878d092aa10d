"""The benchmark's workloads and the seeded inputs each one draws.

A workload is one auditor, one dataset size and a traffic mix.  A run
serves several sessions, each one analyst's query stream over its own
dataset on a freshly launched server.  Everything a session feeds the
server -- the CSV and the HTTP request bodies -- is a pure function of
``(workload, seed, session)``; the server itself only ever sees the CSV
path and the requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: The single analyst every request is sent as.
USER = "analyst"

Query = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one ``serve --listen`` configuration.

    Why each one was chosen is recorded in ``BENCHMARK.json`` and
    ``README.md``.
    """

    name: str
    auditor: str                 #: ``serve --auditor`` value
    n: int                       #: records in the CSV
    kinds: Tuple[str, ...]       #: aggregate kinds, cycled in request order
    min_members: int
    max_members: int
    reask_one_in: int            #: 0 = never re-ask; k = one in k re-asks
    replicate: bool              #: add one ``--replicate-to`` directory
    #: Leading requests of a session kept out of latency and
    #: ``denied_frac``.  ``maxmin-prob`` answers most of its first dozen
    #: queries and then settles into mostly denying; its warm-up covers
    #: that transient so the measured decisions are the steady state.
    warmup: int
    trace_rate: float            #: nominal decisions/s; sizes a traced run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="maxprob_n1000_repl", auditor="max-prob", n=1000,
            kinds=("max",), min_members=2, max_members=10, reask_one_in=5,
            replicate=True, warmup=50, trace_rate=120.0),
        Workload(
            name="maxminprob_n1000", auditor="maxmin-prob", n=1000,
            kinds=("max", "min"), min_members=250, max_members=500,
            reask_one_in=0, replicate=False, warmup=12, trace_rate=2.5),
        Workload(
            name="sumprob_n40", auditor="sum-prob", n=40,
            kinds=("sum",), min_members=2, max_members=20, reask_one_in=0,
            replicate=False, warmup=2, trace_rate=2.5),
    )
}


def dataset_values(workload: Workload, seed: int,
                   session: int = 0) -> List[str]:
    """``n`` duplicate-free uniform values on [0, 1000), as plain decimals.

    The text is what the CSV carries and what the output check parses, so
    server and checker see bitwise-identical floats.
    """
    rng = random.Random(f"values:{workload.name}:{seed}:{session}")
    seen = set()
    values: List[str] = []
    while len(values) < workload.n:
        text = f"{rng.uniform(0.0, 1000.0):.6f}"
        if text not in seen:
            seen.add(text)
            values.append(text)
    return values


def write_csv(path: str, values: Sequence[str]) -> None:
    with open(path, "w") as handle:
        handle.write("id,value\n")
        for index, text in enumerate(values):
            handle.write(f"{index},{text}\n")


class QueryStream:
    """The analyst's queries, drawn lazily and deterministically.

    Query ``i`` depends only on the seed, the session and the queries
    before it, so any prefix is the same in every run with that seed.
    """

    def __init__(self, workload: Workload, seed: int,
                 session: int = 0) -> None:
        self.workload = workload
        self._rng = random.Random(f"queries:{workload.name}:{seed}:{session}")
        self._queries: List[Query] = []
        self._bodies: List[bytes] = []

    def query(self, index: int) -> Query:
        self._extend(index)
        return self._queries[index]

    def body(self, index: int) -> bytes:
        """The JSON request body of query ``index``."""
        self._extend(index)
        return self._bodies[index]

    def _extend(self, index: int) -> None:
        while len(self._queries) <= index:
            query = self._draw(len(self._queries))
            self._queries.append(query)
            kind, members = query
            self._bodies.append(json.dumps(
                {"user": USER, "kind": kind, "members": list(members)},
                separators=(",", ":")).encode("ascii"))

    def _draw(self, index: int) -> Query:
        w = self.workload
        rng = self._rng
        if w.reask_one_in and index and rng.randrange(w.reask_one_in) == 0:
            return self._queries[rng.randrange(index)]
        size = rng.randint(w.min_members, w.max_members)
        members = tuple(sorted(rng.sample(range(w.n), size)))
        return w.kinds[index % len(w.kinds)], members
