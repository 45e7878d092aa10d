"""Tail choice, digests and seeded inputs."""

import json
import os
import subprocess
import sys

import pytest

import harness
from conftest import BENCH_DIR
from workload import WORKLOADS, QueryStream, dataset_values


@pytest.mark.parametrize("count, expected", [
    (1, 50.0), (37, 50.0), (38, 75.0), (4000, 75.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        count, expected):
    assert harness.tail_percentile(count) == expected
    values = [float(v) for v in range(count)]
    value, pct, samples = harness.tail(values)
    assert (pct, samples) == (expected, count)
    beyond = sum(v > value for v in values)
    assert beyond >= 10 or expected == 50.0
    higher = [p for p in harness.TAIL_LADDER if p > expected]
    if higher:
        above = harness.percentile(values, higher[0])
        assert sum(v > above for v in values) < 10


def test_tail_reports_value_percentile_and_sample_count():
    values = [float(v) for v in range(1, 39)]  # 38 samples -> p75
    value, pct, count = harness.tail(values)
    assert (pct, count) == (75.0, 38)
    assert value == pytest.approx(28.75)
    assert sum(v > value for v in values) == 10


def test_percentile_interpolates_like_numpy():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert harness.median([5.0]) == 5.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


DECISIONS = [
    {"denied": True, "reason": "partial-disclosure", "detail": "x"},
    {"denied": False, "value": 0.1},
    {"denied": False, "value": 812.000125},
    {"denied": True, "reason": "structural"},
]

_CHILD = """
import json, sys
sys.path.insert(0, {bench!r})
import harness
chain = harness.DigestChain()
for d in json.loads(sys.argv[1]):
    chain.add(d)
print(json.dumps(chain.prefixes))
"""


def _digests_in_fresh_interpreter(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(bench=BENCH_DIR),
         json.dumps(DECISIONS)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_digest_is_equal_across_interpreter_processes():
    chain = harness.DigestChain()
    for decision in DECISIONS:
        chain.add(decision)
    first = _digests_in_fresh_interpreter("1")
    second = _digests_in_fresh_interpreter("2")
    assert first == second == chain.prefixes
    assert (chain.denied, chain.answered) == (2, 2)


def test_digest_covers_flag_reason_and_exact_value():
    base = harness.DigestChain.record({"denied": False, "value": 0.1})
    assert base == b"0||0x1.999999999999ap-4\n"
    nudged = harness.DigestChain.record(
        {"denied": False, "value": 0.1 + 2 ** -56})
    assert nudged != base
    assert harness.DigestChain.record(
        {"denied": True, "reason": "structural"}) == b"1|structural|\n"


def test_reference_compares_on_common_prefix(tmp_path):
    path = str(tmp_path / "ref.json")
    long_chain, short_chain = harness.DigestChain(), harness.DigestChain()
    for decision in DECISIONS:
        long_chain.add(decision)
    for decision in DECISIONS[:2]:
        short_chain.add(decision)
    assert harness.check_against_reference(path, short_chain.prefixes)
    assert harness.check_against_reference(path, long_chain.prefixes)
    assert harness.check_against_reference(path, short_chain.prefixes)
    with open(path) as handle:
        assert json.load(handle) == long_chain.prefixes
    other = harness.DigestChain()
    other.add(DECISIONS[1])
    assert not harness.check_against_reference(path, other.prefixes)


def test_decision_check_accepts_only_well_formed_true_answers():
    values = [3.5, 1.25, 9.0]
    reasons = frozenset({"partial-disclosure"})

    def check(status, payload, query=("max", (0, 2))):
        return harness.decision_error(status, json.dumps(payload).encode(),
                                      query, values, reasons)[0]

    assert check(200, {"denied": False, "value": 9.0}) is None
    assert check(200, {"denied": False, "value": 1.25},
                 ("min", (1, 2))) is None
    assert check(200, {"denied": False, "value": 12.5},
                 ("sum", (0, 2))) is None
    assert check(200, {"denied": True, "reason": "partial-disclosure"}) \
        is None
    assert check(200, {"denied": False, "value": 3.5}) is not None
    assert check(200, {"denied": True, "reason": "bogus"}) is not None
    assert check(200, {"value": 9.0}) is not None
    assert check(429, {"denied": True, "reason": "partial-disclosure"}) \
        is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    values = dataset_values(workload, 7)
    assert values == dataset_values(workload, 7, 0)
    assert values != dataset_values(workload, 8)
    assert values != dataset_values(workload, 7, 1)
    assert len(values) == len(set(values)) == workload.n
    for text in values:
        float(text)
        assert "e" not in text and "np" not in text
    a, b = QueryStream(workload, 7), QueryStream(workload, 7)
    assert [b.body(i) for i in range(50)] == [a.body(i) for i in range(50)]
    other = QueryStream(workload, 7, 1)
    assert [other.body(i) for i in range(5)] != [a.body(i) for i in range(5)]
    for i in range(50):
        kind, members = a.query(i)
        assert kind in workload.kinds
        assert workload.min_members <= len(members) <= workload.max_members
        assert all(0 <= m < workload.n for m in members)


def test_replicated_workload_reasks_about_one_in_five():
    stream = QueryStream(WORKLOADS["maxprob_n1000_repl"], 3)
    queries = [stream.query(i) for i in range(2000)]
    repeats = sum(q in queries[:i] for i, q in enumerate(queries))
    assert 0.15 < repeats / len(queries) < 0.25


def test_maxmin_workload_alternates_max_and_min():
    stream = QueryStream(WORKLOADS["maxminprob_n1000"], 3)
    assert [stream.query(i)[0] for i in range(4)] == \
        ["max", "min", "max", "min"]
