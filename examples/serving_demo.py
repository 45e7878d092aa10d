#!/usr/bin/env python3
"""Networked serving demo: the audited database behind a real HTTP API.

Boots the full serving stack in one process — an asyncio HTTP edge in
front of the audit worker, whose one pooled auditor sees every user's
queries and owns a checkpointed write-ahead log — then walks an audited
workload over the wire:

* answers and fail-closed denials over ``POST /query``, including a
  second identity that cannot difference out a salary the first one
  was denied;
* an already-expired client deadline, refused *and journalled* before
  any auditor runs;
* admission backpressure: a flooding user is shed with ``429`` +
  ``Retry-After``, and the shed itself is a journalled denial;
* a crash drill: the worker is killed mid-session, every client sees
  ``503`` while it replays its WAL, and the restarted worker still
  remembers every decision — the denial stays denied;
* the live ``GET /events`` audit feed (SSE), tailed concurrently, which
  sees exactly the decisions the server journalled.

Run:  python examples/serving_demo.py   (or: make serve-demo)
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time

from repro.reporting.tables import format_table
from repro.serving import AuditClient, AuditServer, ServerConfig
from repro.serving.shards import ShardSpec, ShardSupervisor

SALARIES = (52.0, 61.0, 47.0, 88.0, 73.0, 95.0)   # k$, the sensitive column
FLOOD_BURST = 4      # admissions per user before the edge starts shedding
EXPECTED_EVENTS = 12


def start_server(root):
    """The audit worker with its WAL, behind a rate-limited edge."""
    spec = ShardSpec(values=SALARIES, low=0.0, high=120.0, auditor="sum",
                     wal_dir=f"{root}/wal", checkpoint_every=32,
                     user_rate=0.001, user_burst=FLOOD_BURST)
    supervisor = ShardSupervisor(spec, mode="inline", backoff_base=0.05)
    server = AuditServer(supervisor, ServerConfig())
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10.0), "server did not start"
    return server, supervisor


def show(label, res):
    extra = ""
    if res.retry_after is not None:
        extra = f"  Retry-After: {res.retry_after:.0f}s"
    print(f"  {label:<38} HTTP {res.status}  {res.payload}{extra}")


def main():
    with tempfile.TemporaryDirectory() as root:
        demo(root)


def demo(root):
    server, supervisor = start_server(root)
    client = AuditClient("127.0.0.1", server.port)

    # Tail the live audit feed while the workload runs.
    feed = []
    tail = threading.Thread(
        target=lambda: feed.extend(
            client.events(limit=EXPECTED_EVENTS, timeout=30)),
        daemon=True)
    tail.start()
    while client.stats().payload["sse_subscribers"] == 0:
        time.sleep(0.02)

    print(f"== Audited queries over HTTP (port {server.port}) ==")
    show("alice: company total",
         client.query("alice", "sum", range(6)))
    show("alice: engineering (first three)",
         client.query("alice", "sum", [0, 1, 2]))
    show("alice: the two seniors (narrowing!)",
         client.query("alice", "sum", [0, 1]))
    print("  The third query would pin salary #2 by differencing; the")
    print("  auditor fails closed and the denial is in the WAL.")
    show("carol: the same narrowing query",
         client.query("carol", "sum", [0, 1]))
    print("  Every user's queries reach one pooled auditor, so a second")
    print("  identity cannot collude its way around the denial (§7).\n")

    print("== Deadline propagation ==")
    show("bob: already-expired deadline",
         client.query("bob", "sum", range(6), deadline_ms=-5))
    print("  Refused *before* any auditor ran — and journalled, so the")
    print("  refusal survives a restart like any other decision.\n")

    print("== Admission backpressure (flood) ==")
    for i in range(FLOOD_BURST + 2):
        res = client.query("mallory", "sum", [3, 4, 5])
        if i in (0, FLOOD_BURST, FLOOD_BURST + 1):
            show(f"mallory: request #{i + 1}", res)
    print("  Past the burst the edge sheds with 429; each shed is a")
    print("  journalled RESOURCE_EXHAUSTED denial, not a silent drop.\n")

    print("== Crash drill: kill the audit worker ==")
    supervisor.crash_worker()
    show("alice: while the worker is down",
         client.query("alice", "sum", [3, 4, 5]))
    show("bob: while the worker is down",
         client.query("bob", "sum", [3, 4, 5]))
    print("  Every user waits for the one worker's WAL replay.")
    while True:
        res = client.query("alice", "sum", [0, 1])
        if res.status != 503:
            break
        time.sleep(0.05)
    show("alice: retried after WAL replay", res)
    print("  The restarted worker replayed its WAL: alice's narrowing")
    print("  query is *still* denied — history survived the crash.\n")

    tail.join(15.0)
    print("== The live audit feed saw every journalled decision ==")
    print(format_table(
        ["seq", "user", "members", "denied", "value/reason"],
        [(e["seq"], e["user"], e["members"], e["denied"],
          e.get("value") if not e["denied"] else e.get("reason"))
         for e in feed],
        title=f"GET /events ({len(feed)} events, published only after "
              f"the WAL append)",
    ))

    health = client.health().payload
    print(f"health: {health['status']}  "
          f"(restarts: {supervisor.restarts})")
    supervisor.close()


if __name__ == "__main__":
    main()
