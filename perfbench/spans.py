"""Span recording around the calls into each layer, and the per-request
analysis that turns spans into self times.

``install`` wraps functions of the program from outside: no file under
``src/`` changes.  A span is ``[id, name, start_ns, end_ns, parent_id,
request_id, attrs]`` on ``time.perf_counter_ns``, which on Linux reads
CLOCK_MONOTONIC, so spans from different processes share one time line.

Functions called thousands of times per decision get no span of their
own; ``ColoringChain.run`` is *aggregated* into its enclosing span
(``attrs["agg"]``: total ns, calls, chain steps), which keeps the
enclosing span's self time exact at a fraction of a span's cost.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = List[Any]
ID, NAME, START, END, PARENT, RID, ATTRS = range(7)


class Recorder:
    """In-memory spans and per-request counters of one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        #: The request being served.  The edge serves one request at a
        #: time over the benchmark's single connection, and a shard worker
        #: serves one request at a time by construction.
        self.rid: Optional[int] = None
        self._next_rid = itertools.count()
        self._ids = itertools.count()
        self._stack: contextvars.ContextVar[Tuple[Span, ...]] = \
            contextvars.ContextVar("perfbench_spans", default=())

    def new_request(self) -> int:
        self.rid = next(self._next_rid)
        return self.rid

    def open(self, name: str, attrs: Optional[Dict[str, Any]] = None
             ) -> Tuple[contextvars.Token, Span]:
        stack = self._stack.get()
        span = [next(self._ids), name, perf_counter_ns(), 0,
                stack[-1][ID] if stack else -1, self.rid, attrs]
        self.spans.append(span)
        return self._stack.set(stack + (span,)), span

    def close(self, token: contextvars.Token, span: Span) -> None:
        span[END] = perf_counter_ns()
        self._stack.reset(token)

    def aggregate(self, name: str, ns: int, steps: int) -> None:
        """Fold one hot call into the innermost open span."""
        stack = self._stack.get()
        if not stack:
            return
        span = stack[-1]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        agg = span[ATTRS].setdefault("agg", {}).setdefault(name, [0, 0, 0])
        agg[0] += ns
        agg[1] += 1
        agg[2] += steps

    def count(self, name: str, value: float) -> None:
        bucket = self.counters.setdefault(str(self.rid), {})
        bucket[name] = bucket.get(name, 0) + value

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"{self.role}-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"role": self.role, "pid": os.getpid(),
                       "spans": self.spans, "counters": self.counters},
                      handle)
        os.replace(path + ".tmp", path)

    # -- wrappers -------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Record a span around ``owner.attr``; ``after(span, args,
        result)`` may annotate it once the call has returned."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token, span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(token, span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_async(self, owner: Any, attr: str, name: str,
                   starts_request: bool = False) -> None:
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if starts_request:
                rec.new_request()
            token, span = rec.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(token, span)

        setattr(owner, attr, wrapper)


def _set_attr(span: Span, key: str, value: Any) -> None:
    if span[ATTRS] is None:
        span[ATTRS] = {}
    span[ATTRS][key] = value


def install(trace_dir: str, role: str) -> Recorder:
    """Wrap the layer boundaries of the serving stack for one process.

    ``role`` is ``"edge"`` for the process running the CLI and
    ``"worker"`` for a spawned shard worker.  The edge writes its spans
    when the CLI returns (see ``traced_serve.py``); a worker writes them
    when its shard is closed on shutdown.
    """
    from repro.auditors import max_prob, maxmin_prob, sum_prob
    from repro.auditors.base import Auditor
    from repro.coloring.chain import ColoringChain
    from repro.coloring.graph import ColoringGraph
    from repro.coloring.sampler import PosteriorSampler
    from repro.persistence import JournaledAuditor
    from repro.polytope.hit_and_run import HitAndRunSampler
    from repro.resilience import wal as wal_module
    from repro.resilience.checkpoint import CheckpointedWal
    from repro.resilience.replication import LocalLink
    from repro.sdb.multiuser import MultiUserFrontend
    from repro.serving import server as server_module
    from repro.serving.server import AuditServer
    from repro.serving.shards import (
        ProcessShardHandle,
        ShardSupervisor,
        ShardWorker,
    )
    from repro.synopsis.combined import CombinedSynopsis

    rec = Recorder(role)

    # -- edge -----------------------------------------------------------
    rec.wrap_async(AuditServer, "_handle_query", "edge.handler",
                   starts_request=True)
    rec.wrap_async(AuditServer, "_dispatch", "edge.dispatch")
    rec.wrap_async(server_module, "write_response", "http.write")
    rec.wrap(ShardSupervisor, "request", "ipc.request",
             after=lambda span, args, result: _set_attr(
                 span, "shard", args[1]))
    rec.wrap(ProcessShardHandle, "__init__", "setup.worker_boot")

    # -- shard worker ---------------------------------------------------
    handle = ShardWorker.handle

    @functools.wraps(handle)
    def worker_handle(self: Any, request: Dict[str, Any]) -> Any:
        if request.get("op") not in ("query", "refuse"):
            return handle(self, request)
        rec.new_request()
        token, span = rec.open("worker.handle", {"shard": self.spec.index})
        try:
            return handle(self, request)
        finally:
            rec.close(token, span)
            rec.rid = None

    ShardWorker.handle = worker_handle

    close = ShardWorker.close

    @functools.wraps(close)
    def worker_close(self: Any) -> None:
        try:
            close(self)
        finally:
            rec.dump(trace_dir)

    ShardWorker.close = worker_close

    rec.wrap(MultiUserFrontend, "ask", "frontend.ask")
    rec.wrap(JournaledAuditor, "audit", "journal.audit")
    rec.wrap(Auditor, "audit", "auditor.decide")

    append = CheckpointedWal.append

    @functools.wraps(append)
    def wal_append(self: Any, event: Any) -> None:
        before = self._active_bytes
        token, span = rec.open("wal.append")
        try:
            append(self, event)
        finally:
            rec.close(token, span)
        rec.count("wal.bytes", self._active_bytes - before)

    CheckpointedWal.append = wal_append
    rec.wrap(CheckpointedWal, "checkpoint", "checkpoint",
             after=lambda span, args, result: _set_attr(
                 span, "bytes",
                 os.path.getsize(os.path.join(args[0].directory, result))))
    rec.wrap(LocalLink, "send", "replica.ship")
    rec.wrap(wal_module, "open_wal_auditor", "recovery.open",
             after=lambda span, args, result: _set_attr(
                 span, "replayed", _replayed(result[0])))

    # -- auditors and their samplers ------------------------------------
    rec.wrap(max_prob.MaxProbabilisticAuditor, "sample_consistent_datasets",
             "maxprob.sample")
    rec.wrap(CombinedSynopsis, "what_if", "synopsis.what_if")
    rec.wrap(ColoringGraph, "__init__", "coloring.graph")
    rec.wrap(PosteriorSampler, "estimate_interval_probabilities",
             "coloring.posterior")
    rec.wrap(PosteriorSampler, "sample_dataset", "coloring.posterior")

    run = ColoringChain.run

    @functools.wraps(run)
    def chain_run(self: Any, steps: int) -> Any:
        start = perf_counter_ns()
        try:
            return run(self, steps)
        finally:
            rec.aggregate("coloring.chain", perf_counter_ns() - start,
                          max(0, steps))

    ColoringChain.run = chain_run

    rec.wrap(HitAndRunSampler, "samples_ensemble", "polytope.ensemble",
             after=lambda span, args, result: rec.count(
                 "polytope.steps",
                 args[1] * (args[2] if len(args) > 2 and args[2] is not None
                            else 2 * args[0].steps_per_sample)))
    rec.wrap(HitAndRunSampler, "sample", "polytope.sample",
             after=lambda span, args, result: rec.count(
                 "polytope.steps", args[0].steps_per_sample))

    for module in (max_prob, maxmin_prob, sum_prob):
        module.run_fail_closed = _counting_attempts(rec,
                                                    module.run_fail_closed)
    return rec


def _replayed(wrapped: Any) -> int:
    info = getattr(getattr(wrapped, "wal", None), "last_recovery", None)
    return int(info.replayed_events) if info is not None else 0


def _counting_attempts(rec: Recorder, run_fail_closed: Callable[..., Any]
                       ) -> Callable[..., Any]:
    """Count every sampling attempt a decision makes (retries included)."""

    @functools.wraps(run_fail_closed)
    def wrapper(budget: Any, rng: Any, decide: Callable[..., Any],
                *args: Any, **kwargs: Any) -> Any:
        def counted(scope: Any, gen: Any) -> Any:
            rec.count("budget.attempts", 1)
            return decide(scope, gen)

        return run_fail_closed(budget, rng, counted, *args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def union_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by a set of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def link_parents(spans: Sequence[Span]) -> Dict[int, Optional[int]]:
    """Parent of each span by id.

    A span opened inside another in the same thread names its parent.  A
    span with none (a thread's or a process's first span) is placed under
    the shortest span of the same request that contains it and is not
    its own descendant; one that nothing contains is a top-level span.
    """
    by_id = {span[ID]: span for span in spans}
    parent: Dict[int, Optional[int]] = {
        span[ID]: (span[PARENT] if span[PARENT] in by_id else None)
        for span in spans}

    def is_descendant(sid: int, ancestor: int) -> bool:
        seen = set()
        while sid is not None and sid not in seen:
            if sid == ancestor:
                return True
            seen.add(sid)
            sid = parent[sid]
        return False

    for span in spans:
        if parent[span[ID]] is not None:
            continue
        best = None
        for other in spans:
            if other is span or is_descendant(other[ID], span[ID]):
                continue
            if other[START] <= span[START] and span[END] <= other[END]:
                if best is None or \
                        other[END] - other[START] < best[END] - best[START]:
                    best = other
        if best is not None:
            parent[span[ID]] = best[ID]
    return parent


def self_times(spans: Sequence[Span],
               window: Optional[Tuple[int, int]] = None
               ) -> Tuple[Dict[int, int], Dict[int, Optional[int]],
                          List[Span], List[str]]:
    """Self time of every span: its duration minus what its children and
    aggregated calls cover.

    ``window`` is the client's (send, receive) interval.  A top-level
    span may run past the receive -- the edge finishes its write after
    the client already holds the bytes -- and is clipped to it; any other
    span that leaves its parent's interval is an error, which means the
    spans were joined wrongly.  Returns ``(self_ns by id, parent by id,
    the spans as clipped, errors)``.
    """
    parent = link_parents(spans)
    spans = [list(span) for span in spans]
    errors: List[str] = []
    if window is not None:
        for span in spans:
            if parent[span[ID]] is None:
                if span[START] < window[0] or span[START] > window[1]:
                    errors.append(f"{span[NAME]} starts outside the "
                                  f"client's request")
                span[END] = max(span[START], min(span[END], window[1]))
    by_id = {span[ID]: span for span in spans}
    children: Dict[int, List[Span]] = {span[ID]: [] for span in spans}
    for sid, pid in parent.items():
        if pid is not None:
            children[pid].append(by_id[sid])
    out: Dict[int, int] = {}
    for span in spans:
        kids = children[span[ID]]
        for kid in kids:
            if kid[START] < span[START] or kid[END] > span[END]:
                errors.append(f"{kid[NAME]} leaves {span[NAME]}")
        covered = union_ns([(max(k[START], span[START]),
                             min(k[END], span[END])) for k in kids
                            if min(k[END], span[END]) > max(k[START],
                                                            span[START])])
        agg = (span[ATTRS] or {}).get("agg", {})
        covered += sum(v[0] for v in agg.values())
        out[span[ID]] = span[END] - span[START] - covered
    return out, parent, spans, errors
