"""Serving-tier load benchmark: latency under load and flood shedding.

Two phases against a real :class:`~repro.serving.AuditServer` (asyncio
HTTP edge, one inline audit worker, one checkpointed WAL — the
configuration ``repro serve --listen`` builds, with the worker in the
server process):

1. sustained load — a small pool of concurrent clients issues audited
   sum queries over HTTP; per-request wall latencies are aggregated to
   p50/p99/max and the p99 is gated (generous regression bound, not a
   performance target);
2. flood — 4x the client pool hammers a rate-limited deployment; the
   edge must shed with 429 + Retry-After, and **every** shed must be
   journalled: the number of 429 responses clients saw is asserted
   equal to the worker's journalled shed count.

The series are written to ``BENCH_serving.json`` (a committed
artifact).
"""

from __future__ import annotations

import asyncio
import json
import random
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.reporting.tables import format_table
from repro.serving import AuditClient, AuditServer, ServerConfig
from repro.serving.shards import ShardSpec, ShardSupervisor

from .conftest import run_once

N = 40
SUSTAINED_CLIENTS = 4
SUSTAINED_REQUESTS = 50          # per client
FLOOD_CLIENTS = 4 * SUSTAINED_CLIENTS
FLOOD_REQUESTS = 10              # per client
FLOOD_BURST = 5                  # admitted per user before shedding
#: Generous regression gate: an in-process audit over n=40 behind a
#: local HTTP round trip is well under this on any healthy runner.
P99_BOUND_MS = 250.0
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

VALUES = tuple(float(10 + 3 * i) for i in range(N))


def _make_spec(root, **overrides):
    return ShardSpec(values=VALUES, low=0.0, high=200.0, auditor="sum",
                     wal_dir=f"{root}/wal", checkpoint_every=64, **overrides)


class _Server:
    """An AuditServer on a background event-loop thread."""

    def __init__(self, spec):
        self.supervisor = ShardSupervisor(spec, mode="inline")
        self.server = AuditServer(self.supervisor, ServerConfig())
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10.0), "server did not start"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def client(self):
        return AuditClient("127.0.0.1", self.server.port, timeout=30.0)

    def stop(self):
        async def _stop():
            await self.server.stop()

        asyncio.run_coroutine_threadsafe(_stop(), self.loop).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.supervisor.close()


def _client_worker(server, user, requests, seed, latencies, statuses):
    client = server.client()
    rng = random.Random(seed)
    for _ in range(requests):
        size = rng.randint(2, N // 2)
        members = rng.sample(range(N), size)
        start = time.perf_counter()
        res = client.query(user, "sum", members)
        latencies.append(time.perf_counter() - start)
        statuses.append(res.status)
        assert res.status in (200, 429), res.payload


def _run_pool(server, clients, requests):
    latencies, statuses, threads = [], [], []
    for t in range(clients):
        threads.append(threading.Thread(
            target=_client_worker,
            args=(server, f"user-{t:02d}", requests, 1000 + t,
                  latencies, statuses)))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return latencies, statuses, elapsed


def _measure_sustained():
    with tempfile.TemporaryDirectory() as root:
        server = _Server(_make_spec(root))
        try:
            latencies, statuses, elapsed = _run_pool(
                server, SUSTAINED_CLIENTS, SUSTAINED_REQUESTS)
            assert all(s == 200 for s in statuses)
        finally:
            server.stop()
    lat_ms = np.asarray(latencies) * 1e3
    total = SUSTAINED_CLIENTS * SUSTAINED_REQUESTS
    return {
        "clients": SUSTAINED_CLIENTS,
        "requests": total,
        "qps": round(total / elapsed, 1),
        "latency_ms": {
            "p50": round(float(np.percentile(lat_ms, 50)), 3),
            "p99": round(float(np.percentile(lat_ms, 99)), 3),
            "max": round(float(lat_ms.max()), 3),
        },
    }


def _measure_flood():
    with tempfile.TemporaryDirectory() as root:
        # a practically non-refilling bucket: FLOOD_BURST admissions per
        # user, everything past that must shed at the edge
        server = _Server(_make_spec(root, user_rate=0.001,
                                    user_burst=FLOOD_BURST))
        try:
            _, statuses, elapsed = _run_pool(
                server, FLOOD_CLIENTS, FLOOD_REQUESTS)
            client = server.client()
            stats = client.stats().payload
        finally:
            server.stop()
    shed_429 = sum(1 for s in statuses if s == 429)
    journalled = sum(stats["worker"]["shed"].values())
    total = FLOOD_CLIENTS * FLOOD_REQUESTS
    return {
        "clients": FLOOD_CLIENTS,
        "requests": total,
        "qps": round(total / elapsed, 1),
        "answered_200": total - shed_429,
        "shed_429": shed_429,
        "journalled_sheds": journalled,
    }


def _measure_serving():
    sustained = _measure_sustained()
    flood = _measure_flood()
    p99 = sustained["latency_ms"]["p99"]
    assert p99 <= P99_BOUND_MS, (
        f"p99 under load {p99}ms exceeds the {P99_BOUND_MS}ms "
        f"regression gate")
    # fail-closed at the edge: every shed the clients saw is journalled
    assert flood["shed_429"] == flood["journalled_sheds"], (
        f"{flood['shed_429']} sheds released to clients but only "
        f"{flood['journalled_sheds']} journalled")
    expected = FLOOD_CLIENTS * (FLOOD_REQUESTS - FLOOD_BURST)
    assert flood["shed_429"] == expected
    return {
        "benchmark": "serving",
        "n": N,
        "p99_bound_ms": P99_BOUND_MS,
        "sustained": sustained,
        "flood": flood,
    }


def test_serving_latency_and_flood_shedding(benchmark):
    report = run_once(benchmark, _measure_serving)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    lat = report["sustained"]["latency_ms"]
    print(format_table(
        ["metric", "value"],
        [("sustained clients", report["sustained"]["clients"]),
         ("sustained qps", report["sustained"]["qps"]),
         ("latency p50 (ms)", lat["p50"]),
         ("latency p99 (ms)", lat["p99"]),
         ("latency max (ms)", lat["max"])],
        title=f"HTTP serving under sustained load (one audit worker, "
              f"one WAL, n={N})",
    ))
    flood = report["flood"]
    print(format_table(
        ["metric", "value"],
        [("flood clients", flood["clients"]),
         ("flood qps", flood["qps"]),
         ("answered 200", flood["answered_200"]),
         ("shed 429", flood["shed_429"]),
         ("journalled sheds", flood["journalled_sheds"])],
        title=f"4x flood: edge backpressure "
              f"(-> {RESULT_PATH.name})",
    ))
