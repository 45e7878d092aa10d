"""Self times, cross-process joins, reconciliation and metric names."""

import asyncio
import json
import os

import pytest

import run
import spans
from conftest import REPO_ROOT
from spans import Recorder


def span(sid, name, start, end, parent=None, rid=0, attrs=None):
    return [sid, name, start, end, parent, rid, attrs]


def test_self_time_subtracts_nested_children_once():
    request = [
        span("a:0", "journal.audit", 0, 100),
        span("a:1", "auditor.decide", 10, 60, "a:0"),
        span("a:2", "maxprob.sample", 20, 30, "a:1"),
        span("a:3", "wal.append", 60, 90, "a:0"),
    ]
    self_ns, parent, _, errors = spans.self_times(request)
    assert errors == []
    assert self_ns == {"a:0": 20, "a:1": 40, "a:2": 10, "a:3": 30}
    assert parent["a:2"] == "a:1"
    assert sum(self_ns.values()) == 100


def test_children_in_other_processes_join_by_containment():
    request = [
        span("edge:0", "edge.handler", 0, 1000),
        span("edge:1", "edge.dispatch", 100, 900, "edge:0"),
        # executor thread: no parent recorded in-process
        span("edge:2", "ipc.request", 150, 850),
        # worker process
        span("w:0", "worker.handle", 200, 800),
        span("w:1", "frontend.ask", 250, 750, "w:0"),
        span("edge:3", "http.write", 1000, 1100),
    ]
    self_ns, parent, _, errors = spans.self_times(request, window=(0, 1200))
    assert errors == []
    assert parent["edge:2"] == "edge:1"
    assert parent["w:0"] == "edge:2"
    assert parent["edge:3"] is None and parent["edge:0"] is None
    assert self_ns["edge:1"] == 100          # wait: 50 before, 50 after
    assert self_ns["edge:2"] == 100          # ipc: 50 out, 50 back
    assert self_ns["w:0"] == 100
    assert sum(self_ns.values()) == 1100


def test_aggregated_calls_count_as_children():
    request = [span("w:0", "coloring.posterior", 0, 100, attrs={
        "agg": {"coloring.chain": [70, 5, 500]}})]
    self_ns, _, _, errors = spans.self_times(request)
    assert self_ns["w:0"] == 30 and errors == []


def test_a_child_leaving_its_parent_is_an_error():
    request = [
        span("a:0", "frontend.ask", 0, 100),
        span("a:1", "journal.audit", 50, 150, "a:0"),
    ]
    _, _, _, errors = spans.self_times(request)
    assert errors == ["journal.audit leaves frontend.ask"]


def test_top_level_span_is_clipped_at_the_client_receive():
    request = [span("e:0", "edge.handler", 10, 50),
               span("e:1", "http.write", 50, 130)]
    self_ns, _, clipped, errors = spans.self_times(request, window=(0, 100))
    assert errors == []
    assert self_ns["e:1"] == 50
    assert [s[spans.END] for s in clipped] == [50, 100]
    _, _, _, errors = spans.self_times(request, window=(20, 100))
    assert errors == ["edge.handler starts outside the client's request"]


def _dump(role, pid, span_list, counters=None):
    return {"role": role, "pid": pid, "spans": span_list,
            "counters": counters or {}}


def test_join_pairs_edge_and_worker_requests_by_arrival_order():
    edge = _dump("edge", 1, [
        span("1:0", "edge.handler", 0, 100, rid=0),
        span("1:1", "ipc.request", 10, 90, rid=0, attrs={"shard": 1}),
        span("1:2", "edge.handler", 200, 300, rid=1),
        span("1:3", "ipc.request", 210, 290, rid=1, attrs={"shard": 1}),
    ])
    idle = _dump("worker", 2, [span("2:0", "recovery.open", -50, -40,
                                    rid=None)])
    busy = _dump("worker", 3, [
        span("3:0", "worker.handle", 20, 80, rid=0, attrs={"shard": 1}),
        span("3:1", "worker.handle", 220, 280, rid=1, attrs={"shard": 1}),
    ], counters={"0": {"wal.bytes": 100}, "1": {"wal.bytes": 120}})
    joined = run.join_requests([edge, idle, busy])
    assert [[s[0] for s in request] for request, _ in joined] == \
        [["1:0", "1:1", "3:0"], ["1:2", "1:3", "3:1"]]
    assert [counters for _, counters in joined] == \
        [{"wal.bytes": 100}, {"wal.bytes": 120}]


def test_reconciliation_adds_up_to_the_client_latency():
    totals = run.LayerTotals()
    request = [
        span("e:0", "edge.handler", 100, 600),
        span("e:1", "edge.dispatch", 150, 550, "e:0"),
        span("e:2", "ipc.request", 200, 500),
        span("w:0", "worker.handle", 250, 450, attrs={"shard": 0}),
        span("e:3", "http.write", 650, 700),
    ]
    totals.add(request, {"wal.bytes": 10}, sent=0, received=800)
    assert totals.errors == []
    assert totals.unattributed_ms == [250 / 1e6]
    assert totals.requests[0]["self"]["ipc.request"] == 100


def test_recorder_spans_nest_across_await_and_threads(tmp_path):
    rec = Recorder("edge")

    class Edge:
        async def handler(self):
            await self.dispatch()

        async def dispatch(self):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.request)

        def request(self):
            return 1

    rec.wrap_async(Edge, "handler", "edge.handler", starts_request=True)
    rec.wrap_async(Edge, "dispatch", "edge.dispatch")
    rec.wrap(Edge, "request", "ipc.request")
    asyncio.run(Edge().handler())
    by_name = {s[spans.NAME]: s for s in rec.spans}
    assert by_name["edge.dispatch"][spans.PARENT] == \
        by_name["edge.handler"][spans.ID]
    assert by_name["ipc.request"][spans.PARENT] == -1  # other thread
    assert {s[spans.RID] for s in rec.spans} == {0}
    rec.dump(str(tmp_path))
    (path,) = tmp_path.iterdir()
    assert json.loads(path.read_text())["role"] == "edge"


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("values, expected", [
    ([], 0), ([(0, 10)], 10), ([(0, 10), (5, 15)], 15),
    ([(0, 10), (20, 30)], 20), ([(0, 30), (5, 10)], 30),
])
def test_union_of_intervals(values, expected):
    assert spans.union_ns(values) == expected
