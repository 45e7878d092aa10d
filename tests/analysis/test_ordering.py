"""Tests for the WAL and BUD rule families (fail-closed ordering)."""

import pathlib

import pytest

from repro.analysis import (
    RULE_RELEASE_BEFORE_APPEND,
    RULE_SWALLOWED_APPEND_FAILURE,
    RULE_UNCHECKPOINTED_LOOP,
    analyze_package,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def report():
    return analyze_package(select=["WAL", "BUD"], extra_modules=[
        ("repro._fixture_wal_boundary", FIXTURES / "wal_boundary.py"),
        ("repro._fixture_budget_sampler", FIXTURES / "budget_sampler.py"),
    ])


def fixture_findings(report, name):
    return [f for f in report.findings if f.file.endswith(name)]


def test_release_without_append_is_caught(report):
    hits = [f for f in fixture_findings(report, "wal_boundary.py")
            if f.rule == RULE_RELEASE_BEFORE_APPEND
            and f.entry_class == "LeakyJournaledAuditor"]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.entry_method == "audit"
    assert "return" in finding.sink
    assert finding.severity == "violation"


def test_swallowed_journal_failure_is_caught(report):
    hits = [f for f in fixture_findings(report, "wal_boundary.py")
            if f.rule == RULE_SWALLOWED_APPEND_FAILURE]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.entry_class == "SwallowingJournaledAuditor"
    assert "except handler" in finding.sink
    # The swallowed failure also means the final return is not dominated
    # by a successful append: WAL001 fires on the same function.
    assert any(f.rule == RULE_RELEASE_BEFORE_APPEND
               and f.entry_class == "SwallowingJournaledAuditor"
               for f in fixture_findings(report, "wal_boundary.py"))


def test_fail_closed_twin_is_clean(report):
    assert not [f for f in fixture_findings(report, "wal_boundary.py")
                if f.entry_class == "StrictJournaledAuditor"]


def test_appending_release_path_not_flagged(report):
    # LeakyJournaledAuditor's journalled branch must not be flagged: only
    # the early return escapes the append.
    leaky = [f for f in fixture_findings(report, "wal_boundary.py")
             if f.entry_class == "LeakyJournaledAuditor"]
    assert len(leaky) == 1


def test_uncheckpointed_sampler_loop_is_caught(report):
    hits = [f for f in fixture_findings(report, "budget_sampler.py")
            if f.rule == RULE_UNCHECKPOINTED_LOOP]
    assert len(hits) == 1
    assert hits[0].entry_class == "GreedyFixtureSampler"
    assert hits[0].entry_method == "run"


def test_checkpointed_twin_is_clean(report):
    assert not [f for f in fixture_findings(report, "budget_sampler.py")
                if f.entry_class == "PoliteFixtureSampler"]


def test_stripping_replay_journal_from_engine_is_caught():
    # The acceptance scenario from the issue: delete the journal call from
    # the engine's decision-cache hit path and the released replay must
    # trip WAL001 — even though the delegated auditor.audit() call on the
    # miss path is the only remaining journal obligation.
    from repro.analysis.simulatability import default_package_dir

    path = default_package_dir() / "sdb" / "engine.py"
    source = path.read_text()
    broken = source.replace(
        "            self.auditor.record_replay(query, cached)\n"
        "            return cached",
        "            return cached")
    assert broken != source, "engine cache-hit path changed; update test"
    stripped = analyze_package(select=["WAL"],
                               source_overrides={str(path): broken})
    hits = [f for f in stripped.findings
            if f.rule == RULE_RELEASE_BEFORE_APPEND
            and f.file.endswith("engine.py")
            and f.entry_method == "_audit"]
    assert len(hits) == 1, stripped.format_text()


def test_stripping_refusal_journal_from_frontend_is_caught():
    # The audit worker's admission sheds and the edge's expired-deadline
    # refusals all go through MultiUserFrontend.refuse.  WAL001 checks its
    # body instead of trusting it as a journal primitive: delete its
    # record call and refuse(), which releases the refusal, must trip
    # WAL001.
    from repro.analysis.simulatability import default_package_dir

    path = default_package_dir() / "sdb" / "multiuser.py"
    source = path.read_text()
    broken = source.replace(
        "            self._auditor_for(user).record_refusal(query, decision)\n",
        "")
    assert broken != source, "frontend refusal path changed; update test"
    stripped = analyze_package(select=["WAL"],
                               source_overrides={str(path): broken})
    hits = [f for f in stripped.findings
            if f.rule == RULE_RELEASE_BEFORE_APPEND
            and f.file.endswith("multiuser.py")
            and f.entry_method == "refuse"]
    assert len(hits) == 1, stripped.format_text()


def test_shipped_tree_is_wal_and_bud_clean(report):
    real = [f for f in report.findings
            if "fixtures" not in f.file and f.severity == "violation"]
    assert not real, "\n".join(f.format_text() for f in real)
