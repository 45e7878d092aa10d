"""End-to-end benchmark of ``python -m repro serve --listen``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The command writes a seeded CSV, launches
the server the way it is deployed (spawn shard workers, ``--wal``, one
``--replicate-to`` where the workload has a replica, defaults otherwise)
and drives it over one keep-alive connection in a closed loop: the
analyst waits for each decision before asking the next query.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same inputs through ``traced_serve.py`` and reports per-layer metrics.
The last line of standard output is one JSON object.  Scratch files live
under ``.perfbench/`` in the working directory; the first run of each
workload and seed leaves its decision digests there for later runs to
match.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
import spans
from spans import ATTRS, END, ID, NAME, RID, START
from workload import WORKLOADS, QueryStream, dataset_values, write_csv

#: Analyst sessions per run.  Each one launches a server over empty
#: directories (a ``setup_s`` sample) and relaunches it after a crash (a
#: ``recovery_s`` sample).  Pooling independent sessions narrows the
#: spread between seeds of a stateful auditor, whose cost depends on how
#: many queries it answered.
SESSIONS = 3
#: The traced run's reconciliation tolerance: per request, the time no
#: span covers (client, kernel, request reading) is never negative and
#: has a median of at most this many milliseconds.
UNATTRIBUTED_TOLERANCE_MS = 1.5

END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_qps": "1/s", "recovery_s": "s", "peak_rss_mb": "MB",
    "denied_frac": "fraction", "success_frac": "fraction",
}

PER_LAYER_UNITS = {
    "http.write_ms_p50": "ms", "edge.self_ms_p50": "ms",
    "edge.wait_ms_p50": "ms", "ipc.self_ms_p50": "ms",
    "worker.self_ms_p50": "ms", "frontend.self_ms_p50": "ms",
    "journal.self_ms_p50": "ms", "wal.append_ms_p50": "ms",
    "wal.appends_per_query": "count", "wal.bytes_per_query": "bytes",
    "checkpoint.count": "count", "checkpoint.ms_p50": "ms",
    "checkpoint.snapshot_kb": "KB", "replica.ship_ms_p50": "ms",
    "replica.frames_per_query": "count", "auditor.decide_ms_p50": "ms",
    "auditor.decide_ms_tail": "ms", "maxprob.sample_ms_per_query": "ms",
    "maxprob.check_ms_per_query": "ms",
    "synopsis.what_if_per_query": "count",
    "synopsis.what_if_ms_per_query": "ms",
    "coloring.graph_ms_per_query": "ms",
    "coloring.posterior_ms_per_query": "ms",
    "coloring.steps_per_query": "count", "coloring.ns_per_step": "ns",
    "polytope.ensemble_ms_per_query": "ms",
    "polytope.steps_per_query": "count", "polytope.ns_per_step": "ns",
    "budget.attempts_per_query": "count", "setup.worker_boot_s": "s",
    "recovery.open_ms": "ms", "recovery.replayed_records": "count",
    "proc.edge.cpu_ms_per_query": "ms", "proc.worker.cpu_ms_per_query": "ms",
    "proc.loadgen.cpu_ms_per_query": "ms", "proc.edge.rss_mb": "MB",
    "proc.worker.rss_mb": "MB", "trace.unattributed_ms_p50": "ms",
    "trace.overhead_pct": "%", "host.steal_s": "s",
}

Times = List[Tuple[int, int]]


class Session:
    """One analyst: a seeded dataset and query stream, served by freshly
    launched servers over the session's own WAL and replica directories."""

    def __init__(self, workload: Any, seed: int, index: int, tag: str,
                 work: str, digests: str) -> None:
        text = dataset_values(workload, seed, index)
        self.values = [float(t) for t in text]
        self.csv = os.path.join(work, f"data-{index}.csv")
        write_csv(self.csv, text)
        self.stream = QueryStream(workload, seed, index)
        self.dirs = (os.path.join(work, f"wal-{tag}{index}"),
                     os.path.join(work, f"replica-{tag}{index}"))
        self.reference = os.path.join(
            digests, f"{workload.name}-{seed}-{index}.json")
        self.chain = harness.DigestChain()
        self.next = 0  #: index of the next query to ask


class Bench:
    """One run: sessions, launches, the output check and its counters."""

    def __init__(self, workload_name: str, seed: int, root: str) -> None:
        from repro.types import DenialReason

        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.root = root
        state = os.path.join(root, ".perfbench")
        self.work = os.path.join(state, f"run-{os.getpid()}")
        self.digests = os.path.join(state, "digests")
        os.makedirs(self.digests, exist_ok=True)
        # A killed run may have left this pid's directory behind; a stale
        # WAL in it would turn a fresh launch into a recovery.
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.reasons = frozenset(r.value for r in DenialReason)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"),
                        os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._servers: List[harness.Server] = []

    def session(self, index: int, tag: str = "") -> Session:
        return Session(self.workload, self.seed, index, tag, self.work,
                       self.digests)

    def close(self) -> None:
        for server in self._servers:
            if server.proc.poll() is None:
                server.kill()
        shutil.rmtree(self.work, ignore_errors=True)

    def launch(self, session: Session,
               trace_dir: Optional[str] = None) -> harness.Server:
        wal, replica = session.dirs
        port = harness.free_port()
        if trace_dir is None:
            entry = [sys.executable, "-m", "repro"]
            env = self.env
        else:
            os.makedirs(trace_dir)
            entry = [sys.executable,
                     os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "traced_serve.py")]
            env = dict(self.env, PERFBENCH_TRACE_DIR=trace_dir)
        argv = entry + [
            "serve", "--csv", session.csv, "--sensitive", "value",
            "--auditor", self.workload.auditor,
            "--listen", f"127.0.0.1:{port}", "--wal", wal]
        if self.workload.replicate:
            argv += ["--replicate-to", replica]
        server = harness.Server(argv, port, self.root, env,
                                os.path.join(self.work, "server.log"))
        self._servers.append(server)
        return server

    def ask(self, client: harness.Client, session: Session,
            record: bool = True) -> Tuple[int, int]:
        """Ask the session's next query; ``(send_ns, receive_ns)``.

        ``record`` adds the decision to the session's digest chain; the
        decision after a crash recovery is checked but not chained, as
        the recovered auditor's sampler stream depends on where the
        crash fell."""
        index = session.next
        session.next += 1
        body = session.stream.body(index)
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            status, payload = client.post(body)
        except OSError:
            self.failed += 1
            raise
        end = time.perf_counter_ns()
        error, decision = harness.decision_error(
            status, payload, session.stream.query(index), session.values,
            self.reasons)
        if error is not None:
            self.failed += 1
            self.errors.append(f"query {index}: {error}")
            decision = None
        if record:
            session.chain.add(decision)
        return start, end

    def first_decision(self, session: Session,
                       trace_dir: Optional[str] = None, record: bool = True):
        """Launch, then ask the session's next query.  Returns the
        server, the connection, the seconds from launch until the
        decision was released, and the request's (send, receive) ns."""
        server = self.launch(session, trace_dir)
        client = server.connect()
        start, end = self.ask(client, session, record)
        return server, client, end / 1e9 - server.launched, (start, end)

    def closed_loop(self, client: harness.Client, session: Session,
                    seconds: Optional[float] = None,
                    count: Optional[int] = None) -> Tuple[Times, float]:
        """Ask one query at a time for ``seconds`` or ``count`` requests;
        returns each request's (send, receive) ns and the elapsed
        seconds."""
        times: Times = []
        start = time.perf_counter()
        while (len(times) < count if count is not None
               else time.perf_counter() - start < seconds):
            times.append(self.ask(client, session))
        return times, time.perf_counter() - start

    def warm_start(self, session: Session, trace_dir: Optional[str] = None):
        """Launch over empty directories and run the warm-up requests;
        the first request's release time is a ``setup_s`` sample."""
        server, client, setup, first = self.first_decision(session,
                                                           trace_dir)
        warm, _ = self.closed_loop(client, session,
                                   count=self.workload.warmup - 1)
        return server, client, setup, [first] + warm

    def check_digest(self, session: Session) -> None:
        if not harness.check_against_reference(session.reference,
                                               session.chain.prefixes):
            self.errors.append("decision digest differs from the first "
                               "run of this workload and seed")


def proc_snapshot(server: harness.Server) -> Dict[str, float]:
    """CPU seconds so far of each process role."""
    return {
        "edge": harness.cpu_seconds(server.proc.pid),
        "worker": sum(harness.cpu_seconds(p) for p in server.workers()),
        "loadgen": sum(os.times()[:2]),
    }


def latencies_ms(times: Times) -> List[float]:
    return [(end - start) / 1e6 for start, end in times]


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------

def run_untraced(bench: Bench, seconds: float
                 ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``SESSIONS`` sessions of ``seconds / SESSIONS`` each, every one
    ending in a crash and a recovery."""
    times: Times = []
    elapsed = 0.0
    setups: List[float] = []
    recoveries: List[float] = []
    cpu = {"edge": 0.0, "worker": 0.0, "loadgen": 0.0}
    rss = 0.0
    denied = released = 0
    for index in range(SESSIONS):
        session = bench.session(index)
        server, client, setup, _ = bench.warm_start(session)
        setups.append(setup)
        before = proc_snapshot(server)
        warm_denied, warm_answered = (session.chain.denied,
                                      session.chain.answered)
        session_times, session_elapsed = bench.closed_loop(
            client, session, seconds=seconds / SESSIONS)
        after = proc_snapshot(server)
        for role in cpu:
            cpu[role] += after[role] - before[role]
        rss = max(rss, sum(harness.peak_rss_mb(pid)
                           for pid in [server.proc.pid] + server.workers()))
        client.close()
        server.kill()
        # Relaunch over the killed server's directories and release the
        # session's next decision.
        server, client, took, _ = bench.first_decision(session,
                                                       record=False)
        client.close()
        server.kill()
        recoveries.append(took)
        bench.check_digest(session)
        times += session_times
        elapsed += session_elapsed
        denied += session.chain.denied - warm_denied
        released += (session.chain.denied - warm_denied
                     + session.chain.answered - warm_answered)

    latencies = latencies_ms(times)
    tail_ms, tail_pct, tail_n = harness.tail(latencies)
    failed = bench.attempted if bench.errors else bench.failed
    metrics = {
        "setup_s": harness.median(setups),
        "latency_p50_ms": harness.median(latencies),
        "latency_tail_ms": tail_ms,
        "throughput_qps": len(times) / elapsed,
        "recovery_s": harness.median(recoveries),
        "peak_rss_mb": rss,
        "denied_frac": denied / max(1, released),
        "success_frac": 1.0 - failed / bench.attempted,
    }
    noise = {
        "tail_percentile": tail_pct, "tail_samples": tail_n,
        "latency_ms": {f"p{p:g}": harness.percentile(latencies, p)
                       for p in (90, 95, 99)},
        "setup_samples_s": setups, "recovery_samples_s": recoveries,
        "cpu_ms_per_query": {role: 1000.0 * v / max(1, len(times))
                             for role, v in cpu.items()},
    }
    return metrics, noise


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------

def load_dumps(trace_dir: str) -> List[Dict[str, Any]]:
    """Every process's spans, with ids made unique across processes."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path) as handle:
            dump = json.load(handle)
        pid = dump["pid"]
        for span in dump["spans"]:
            span[ID] = f"{pid}:{span[ID]}"
            span[spans.PARENT] = (f"{pid}:{span[spans.PARENT]}"
                                  if span[spans.PARENT] >= 0 else None)
        dumps.append(dump)
    return dumps


def join_requests(dumps: List[Dict[str, Any]]
                  ) -> List[Tuple[List[spans.Span], Dict[str, float]]]:
    """Each edge request's spans plus those of the worker call it made.

    A shard serves one request at a time, so the k-th request the edge
    sent to shard s is the k-th request shard s's worker handled.
    """
    edge: Dict[int, List[spans.Span]] = {}
    workers: Dict[Tuple[int, int], List[spans.Span]] = {}
    counters: Dict[Tuple[int, int], Dict[str, float]] = {}
    for dump in dumps:
        if dump["role"] == "edge":
            for span in dump["spans"]:
                if span[RID] is not None:
                    edge.setdefault(span[RID], []).append(span)
            continue
        shards = {span[ATTRS]["shard"] for span in dump["spans"]
                  if span[NAME] == "worker.handle"}
        if len(shards) != 1:
            continue  # a worker that served no request
        shard = shards.pop()
        for span in dump["spans"]:
            if span[RID] is not None:
                workers.setdefault((shard, span[RID]), []).append(span)
        for rid, values in dump["counters"].items():
            if rid != "None":
                counters[(shard, int(rid))] = values
    seen: Dict[int, int] = {}
    joined = []
    for rid in sorted(edge):
        request = list(edge[rid])
        request_counters: Dict[str, float] = {}
        for span in edge[rid]:
            if span[NAME] != "ipc.request":
                continue
            shard = span[ATTRS]["shard"]
            key = (shard, seen.get(shard, 0))
            seen[shard] = key[1] + 1
            request.extend(workers.get(key, []))
            for name, value in counters.get(key, {}).items():
                request_counters[name] = request_counters.get(name, 0) + value
        joined.append((request, request_counters))
    return joined


class LayerTotals:
    """Per-request self times, durations, call counts and counters."""

    def __init__(self) -> None:
        self.requests: List[Dict[str, Dict[str, float]]] = []
        self.checkpoints: List[Tuple[int, int]] = []
        self.unattributed_ms: List[float] = []
        self.errors: List[str] = []

    def add(self, request: List[spans.Span], counters: Dict[str, float],
            sent: int, received: int) -> None:
        self_ns, parent, request, errors = spans.self_times(
            request, window=(sent, received))
        totals: Dict[str, Dict[str, float]] = {
            "self": {}, "dur": {}, "calls": {}, "steps": {},
            "count": dict(counters)}

        def bump(kind: str, name: str, value: float) -> None:
            totals[kind][name] = totals[kind].get(name, 0) + value

        accounted = 0
        for span in request:
            name = span[NAME]
            bump("self", name, self_ns[span[ID]])
            bump("dur", name, span[END] - span[START])
            bump("calls", name, 1)
            accounted += self_ns[span[ID]]
            for agg_name, (ns, calls, steps) in \
                    (span[ATTRS] or {}).get("agg", {}).items():
                bump("self", agg_name, ns)
                bump("calls", agg_name, calls)
                bump("steps", agg_name, steps)
                accounted += ns
            if name == "checkpoint":
                self.checkpoints.append((span[END] - span[START],
                                         span[ATTRS]["bytes"]))
        top = [span for span in request if parent[span[ID]] is None]
        latency = received - sent
        unattributed = latency - spans.union_ns(
            [(s[START], s[END]) for s in top])
        if abs(accounted + unattributed - latency) > 1000:
            errors.append("stage self times and the remainder do not add "
                          "up to the client latency")
        if unattributed < 0:
            errors.append("negative unattributed time")
        self.errors.extend(errors)
        self.unattributed_ms.append(unattributed / 1e6)
        self.requests.append(totals)

    def column(self, kind: str, name: str) -> List[float]:
        return [r[kind].get(name, 0) for r in self.requests]

    def p50_ms(self, kind: str, name: str) -> float:
        return harness.median(self.column(kind, name)) / 1e6

    def per_query(self, kind: str, name: str) -> float:
        return sum(self.column(kind, name)) / len(self.requests)


def layer_metrics(totals: LayerTotals) -> Dict[str, float]:
    per_q = totals.per_query
    decide = [d / 1e6 for d in totals.column("dur", "auditor.decide")]
    chain_steps = sum(totals.column("steps", "coloring.chain"))
    walk_steps = sum(totals.column("count", "polytope.steps"))
    walk_ns = (sum(totals.column("dur", "polytope.ensemble"))
               + sum(totals.column("dur", "polytope.sample")))
    has_maxprob = per_q("calls", "maxprob.sample") > 0
    checkpoint_ms = [ns / 1e6 for ns, _ in totals.checkpoints]
    return {
        "http.write_ms_p50": totals.p50_ms("self", "http.write"),
        "edge.self_ms_p50": totals.p50_ms("self", "edge.handler"),
        "edge.wait_ms_p50": totals.p50_ms("self", "edge.dispatch"),
        "ipc.self_ms_p50": totals.p50_ms("self", "ipc.request"),
        "worker.self_ms_p50": totals.p50_ms("self", "worker.handle"),
        "frontend.self_ms_p50": totals.p50_ms("self", "frontend.ask"),
        "journal.self_ms_p50": totals.p50_ms("self", "journal.audit"),
        "wal.append_ms_p50": totals.p50_ms("dur", "wal.append"),
        "wal.appends_per_query": per_q("calls", "wal.append"),
        "wal.bytes_per_query": per_q("count", "wal.bytes"),
        "checkpoint.count": float(len(totals.checkpoints)),
        "checkpoint.ms_p50": (harness.median(checkpoint_ms)
                              if checkpoint_ms else 0.0),
        "checkpoint.snapshot_kb": (
            sum(b for _, b in totals.checkpoints) / 1024.0
            / len(totals.checkpoints) if totals.checkpoints else 0.0),
        "replica.ship_ms_p50": totals.p50_ms("dur", "replica.ship"),
        "replica.frames_per_query": per_q("calls", "replica.ship"),
        "auditor.decide_ms_p50": harness.median(decide),
        "auditor.decide_ms_tail": harness.tail(decide)[0],
        "maxprob.sample_ms_per_query": per_q("dur", "maxprob.sample") / 1e6,
        "maxprob.check_ms_per_query": (
            per_q("self", "auditor.decide") / 1e6 if has_maxprob else 0.0),
        "synopsis.what_if_per_query": per_q("calls", "synopsis.what_if"),
        "synopsis.what_if_ms_per_query":
            per_q("dur", "synopsis.what_if") / 1e6,
        "coloring.graph_ms_per_query": per_q("dur", "coloring.graph") / 1e6,
        "coloring.posterior_ms_per_query":
            per_q("self", "coloring.posterior") / 1e6,
        "coloring.steps_per_query": chain_steps / len(totals.requests),
        "coloring.ns_per_step": (
            sum(totals.column("self", "coloring.chain")) / chain_steps
            if chain_steps else 0.0),
        "polytope.ensemble_ms_per_query":
            per_q("dur", "polytope.ensemble") / 1e6,
        "polytope.steps_per_query": walk_steps / len(totals.requests),
        "polytope.ns_per_step": walk_ns / walk_steps if walk_steps else 0.0,
        "budget.attempts_per_query": per_q("count", "budget.attempts"),
        "trace.unattributed_ms_p50": harness.median(totals.unattributed_ms),
    }


def boot_and_recovery(dumps_a: List[Dict[str, Any]],
                      dumps_b: List[Dict[str, Any]]) -> Dict[str, float]:
    boots = [(s[END] - s[START]) / 1e9 for d in dumps_a + dumps_b
             if d["role"] == "edge" for s in d["spans"]
             if s[NAME] == "setup.worker_boot"]
    opens = [s for d in dumps_b if d["role"] == "worker"
             for s in d["spans"] if s[NAME] == "recovery.open"]
    busiest = max(opens, key=lambda s: s[ATTRS]["replayed"])
    return {
        "setup.worker_boot_s": harness.median(boots),
        "recovery.open_ms": (busiest[END] - busiest[START]) / 1e6,
        "recovery.replayed_records": float(sum(s[ATTRS]["replayed"]
                                               for s in opens)),
    }


def run_traced(bench: Bench, seconds: float
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Untraced reference, traced run, traced relaunch (recovery).

    The traced phases ask a fixed number of queries, sized from
    ``seconds`` by the workload's nominal rate, so counts repeat exactly
    for a given seed.
    """
    w = bench.workload
    count = max(8, round(w.trace_rate * seconds))

    plain = bench.session(0, "plain")
    server, client, _, _ = bench.warm_start(plain)
    before = proc_snapshot(server)
    plain_times, _ = bench.closed_loop(client, plain, count=count)
    after = proc_snapshot(server)
    workers = server.workers()
    rss_edge = harness.peak_rss_mb(server.proc.pid)
    rss_worker = max(harness.peak_rss_mb(pid) for pid in workers)
    client.close()
    server.kill()
    bench.check_digest(plain)

    trace_a = os.path.join(bench.work, "trace-a")
    trace_b = os.path.join(bench.work, "trace-b")
    session = bench.session(0, "traced")
    server, client, _, warm = bench.warm_start(session, trace_a)
    traced, _ = bench.closed_loop(client, session, count=count)
    client.close()
    if server.interrupt() != 0:
        bench.errors.append("traced server did not stop cleanly")
    bench.check_digest(session)
    server, client, _, _ = bench.first_decision(session, trace_b,
                                                record=False)
    client.close()
    if server.interrupt() != 0:
        bench.errors.append("traced relaunch did not stop cleanly")

    dumps_a = load_dumps(trace_a)
    requests = join_requests(dumps_a)
    client_times = warm + traced
    totals = LayerTotals()
    if len(requests) != len(client_times):
        totals.errors.append(f"{len(requests)} traced requests for "
                             f"{len(client_times)} sent")
    else:
        for (request, counters), (sent, received) in zip(
                requests[w.warmup:], traced):
            totals.add(request, counters, sent, received)
    metrics = layer_metrics(totals) if totals.requests else {}
    metrics.update(boot_and_recovery(dumps_a, load_dumps(trace_b)))
    cpu = {role: 1000.0 * (after[role] - before[role]) / count
           for role in before}
    p50_plain = harness.median(latencies_ms(plain_times))
    p50_traced = harness.median(latencies_ms(traced))
    metrics.update({
        "proc.edge.cpu_ms_per_query": cpu["edge"],
        "proc.worker.cpu_ms_per_query": cpu["worker"],
        "proc.loadgen.cpu_ms_per_query": cpu["loadgen"],
        "proc.edge.rss_mb": rss_edge,
        "proc.worker.rss_mb": rss_worker,
        "trace.overhead_pct": 100.0 * (p50_traced - p50_plain) / p50_plain,
    })
    unattributed = metrics.get("trace.unattributed_ms_p50", float("inf"))
    if unattributed > UNATTRIBUTED_TOLERANCE_MS:
        totals.errors.append(
            f"unattributed p50 {unattributed:.3f} ms exceeds the "
            f"{UNATTRIBUTED_TOLERANCE_MS} ms tolerance")
    if totals.errors:
        bench.errors.append("reconciliation: " + "; ".join(
            sorted(set(totals.errors))[:5]))
    noise = {"traced_requests": count, "cpu_ms_per_query": cpu,
             "latency_p50_ms": {"plain": p50_plain, "traced": p50_traced}}
    return metrics, noise


# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro/cli.py "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    harness.become_subreaper()
    steal0 = harness.host_steal_seconds()
    bench = Bench(args.workload, args.seed, root)
    try:
        if args.trace:
            metrics, noise = run_traced(bench, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, noise = run_untraced(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        bench.close()
    steal = harness.host_steal_seconds() - steal0
    if args.trace:
        metrics["host.steal_s"] = steal
    correct = not bench.errors
    failed = bench.attempted if not correct else bench.failed
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host.steal_s": steal,
              "errors": bench.errors, **noise}
    with open(os.path.join(root, ".perfbench", "noise.jsonl"), "a") as log:
        log.write(json.dumps(record) + "\n")
    print("noise: " + json.dumps(record))
    for name in units:
        print(f"{name:34s} {metrics.get(name, float('nan')):14.4f} "
              f"{units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
