"""Crash-everywhere chaos sweep across the network boundary.

The serving-tier extension of ``tests/resilience/test_chaos.py``: kill
the serving process at every new network fault site — half-way through
reading a request body, between the header lines of a slow-loris
client, mid-response after the decision is durable, and in the audit
worker between the journal append and the response write — restart over
the same WAL directory, let the client retry, and assert:

* the released decision stream is identical to the uncrashed baseline
  (a crash may force a retry, never change an answer);
* the surviving WAL stream is **bitwise-identical** between the primary
  and its replica;
* **no client ever received a 200 whose decision is absent from the
  WAL** — released implies durable, at every kill point.

The sweep is exhaustive by construction: per site it advances the crash
occurrence until a full run no longer reaches the site.
"""

import contextlib
import dataclasses
import os
import time

import pytest

from repro.resilience.faults import FaultPlan, inject
from repro.resilience.replication import replica_events
from repro.serving.client import ServingClientError
from repro.serving.shards import ShardSpec, ShardWorker

from .test_http import Harness

pytestmark = pytest.mark.faults

VALUES = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
USERS = ["alice", "bob", "carol"]

#: per-user query sequence (pooled across users): two guaranteed denials
QUERY_SETS = [
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2),
    (0, 1),        # denied: x2 would be determined
    (3, 4, 5),
    (3, 4),        # denied: x5 would be determined
]

WORKLOAD = [(user, members) for members in QUERY_SETS for user in USERS]

SWEEP_SITES = [
    "http.torn-body",
    "http.mid-response",
    "http.slow-loris",
    "shard.post-journal",
]

MAX_OCCURRENCES = 200


def make_spec(root):
    return ShardSpec(
        values=VALUES, low=0.0, high=100.0, auditor="sum",
        wal_dir=os.path.join(root, "primary"), checkpoint_every=4,
        replicate_to=(os.path.join(root, "replica"),),
    )


def start_harness(root):
    return Harness(make_spec(root), backoff_base=0.001)


def run_workload(root, plan=None):
    """Serve the whole workload, restarting the server after injected
    crashes and retrying 503s, until every query has a 200 outcome.

    Crashed harnesses go to a graveyard instead of being closed: a
    clean close would flush state the modelled dead process never got
    to flush.
    """
    graveyard = []
    ctx = inject(plan) if plan is not None else contextlib.nullcontext()
    stream = []
    with ctx:
        h = start_harness(root)
        client = h.client(timeout=10.0)
        try:
            for user, members in WORKLOAD:
                attempts = 0
                while True:
                    attempts += 1
                    assert attempts < 500, "workload did not converge"
                    if h.server.crashed:
                        graveyard.append(h)
                        h = start_harness(root)
                        client = h.client(timeout=10.0)
                    try:
                        res = client.query(user, "sum", members)
                    except ServingClientError:
                        if h.server.crashed:
                            continue  # torn response / dead listener
                        raise
                    if res.status == 503:
                        time.sleep(0.005)  # worker restart backoff
                        continue
                    assert res.status == 200, res.payload
                    stream.append((user, tuple(members),
                                   res.payload["denied"],
                                   res.payload.get("value"),
                                   res.payload.get("reason")))
                    break
        finally:
            if h.server.crashed:
                graveyard.append(h)
            else:
                h.stop()
    return stream


def assert_wals_bitwise_identical_and_complete(root, stream):
    """Primary vs replica equality, then released ⇒ durable."""
    spec = make_spec(root)
    primary = replica_events(spec.wal_dir)
    replica = replica_events(spec.replicate_to[0])
    assert primary == replica, "primary and replica WAL streams differ"
    assert primary, "the worker served nothing"
    # Re-open the worker over the primary WAL (no replication links, so
    # the replica dir stays untouched) and check that every 200 the
    # client saw is present in the recovered disclosure trail.
    worker = ShardWorker(dataclasses.replace(spec, replicate_to=()))
    trail = {
        (tuple(sorted(e.query.query_set)), e.decision.denied,
         e.decision.value)
        for e in worker.frontend._pooled.trail.events
    }
    worker.close()
    for user, members, denied, value, _reason in stream:
        key = (tuple(sorted(members)), denied, value)
        assert key in trail, (
            f"released answer {key} for {user} missing from the WAL")


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The uncrashed run: its stream, plus sanity on the workload."""
    root = str(tmp_path_factory.mktemp("baseline"))
    stream = run_workload(root)
    assert len(stream) == len(WORKLOAD)
    denials = [s for s in stream if s[2]]
    assert len(denials) == 2 * len(USERS)  # two per user, pooled
    assert_wals_bitwise_identical_and_complete(root, stream)
    return stream


@pytest.mark.parametrize("site", SWEEP_SITES)
def test_crash_everywhere_on_the_wire_is_bitwise_identical(site, baseline,
                                                           tmp_path):
    occurrence = 0
    while occurrence < MAX_OCCURRENCES:
        root = str(tmp_path / f"crash-{occurrence}")
        plan = FaultPlan.crash_at(site, occurrence)
        stream = run_workload(root, plan)
        assert stream == baseline, (
            f"crash at {site}#{occurrence} changed the released stream")
        assert_wals_bitwise_identical_and_complete(root, stream)
        if not plan.fired:
            break
        occurrence += 1
    else:
        pytest.fail(f"site {site} still firing after "
                    f"{MAX_OCCURRENCES} occurrences")
    # the sweep actually killed the server at least once per site
    assert occurrence >= 1, f"site {site} never fired"


def test_deterministic_queries_have_no_torn_answer_window(baseline):
    """Belt and braces for the headline guarantee: in the baseline run
    every answered query's decision is in a WAL *and* the event stream
    contains no answer the workload never received (no phantom 200s)."""
    answered = [s for s in baseline if not s[2]]
    assert answered, "workload answered nothing"
    assert all(value is not None for _, _, _, value, _ in answered)
