"""Tests for the FORK rule family (process/fork safety)."""

import pathlib

import pytest

from repro.analysis import (
    RULE_EFFECTFUL_WORKER_FN,
    RULE_HANDLE_IN_WORKER_PAYLOAD,
    RULE_NONSPAWN_CONTEXT,
    analyze_package,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def report():
    return analyze_package(select=["FORK"], extra_modules=[
        ("repro._fixture_fork_payloads", FIXTURES / "fork_payloads.py"),
    ])


def fixture_findings(report, method=None):
    hits = [f for f in report.findings
            if f.file.endswith("fork_payloads.py")]
    if method is not None:
        hits = [f for f in hits if f.entry_method == method]
    return hits


def test_open_handle_in_payload_is_caught(report):
    hits = fixture_findings(report, "ship_open_handle")
    assert [f.rule for f in hits] == [RULE_HANDLE_IN_WORKER_PAYLOAD]
    assert "handle" in hits[0].sink


def test_live_generator_in_payload_is_caught(report):
    hits = fixture_findings(report, "ship_generator")
    assert [f.rule for f in hits] == [RULE_HANDLE_IN_WORKER_PAYLOAD]
    assert "gen" in hits[0].sink


def test_seed_only_payload_is_clean(report):
    assert not fixture_findings(report, "safe_payload")


def test_unseeded_worker_fn_is_caught(report):
    hits = fixture_findings(report, "fan_out_unseeded")
    assert [f.rule for f in hits] == [RULE_EFFECTFUL_WORKER_FN]
    assert "unseeded" in hits[0].sink


def test_unseeded_draw_in_worker_helper_is_caught(report):
    hits = fixture_findings(report, "fan_out_helper_unseeded")
    assert [f.rule for f in hits] == [RULE_EFFECTFUL_WORKER_FN]
    assert "_helper_unseeded_worker draws unseeded" in hits[0].sink


def test_bare_pool_is_caught(report):
    hits = fixture_findings(report, "default_start_method")
    assert [f.rule for f in hits] == [RULE_NONSPAWN_CONTEXT]
    assert "multiprocessing.Pool" in hits[0].sink


def test_fork_context_is_caught(report):
    hits = fixture_findings(report, "fork_context")
    assert [f.rule for f in hits] == [RULE_NONSPAWN_CONTEXT]
    assert "'fork'" in hits[0].sink


def test_switching_parallel_helpers_to_fork_is_caught():
    # Acceptance scenario: flip the experiment fan-out to the platform
    # default fork context and FORK003 must fire on both pools.
    from repro.analysis.simulatability import default_package_dir

    path = default_package_dir() / "utility" / "parallel.py"
    source = path.read_text()
    broken = source.replace('multiprocessing.get_context("spawn")',
                            'multiprocessing.get_context("fork")')
    assert broken != source, "parallel.py context changed; update test"
    flipped = analyze_package(select=["FORK"],
                              source_overrides={str(path): broken})
    hits = [f for f in flipped.findings
            if f.rule == RULE_NONSPAWN_CONTEXT
            and f.file.endswith("parallel.py")]
    assert len(hits) == 2, flipped.format_text()


def test_shipped_tree_is_fork_clean(report):
    real = [f for f in report.findings
            if "fixtures" not in f.file and f.severity == "violation"]
    assert not real, "\n".join(f.format_text() for f in real)
