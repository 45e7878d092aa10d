"""Tests for the simulatability taint analyzer itself."""

import json
import pathlib
import shutil

import pytest

from repro.analysis import (
    RULE_SENSITIVE_ESCAPE,
    RULE_SENSITIVE_READ,
    RULE_TRUE_ANSWER,
    SCHEMA_VERSION,
    analyze_package,
)
from repro.analysis.simulatability import default_package_dir
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Auditors the paper proves (or trivially argues) simulatable: the analyzer
#: must pass them with zero findings, documented or not.
SIMULATABLE_AUDITORS = {
    "SumClassicAuditor",
    "MaxClassicAuditor",
    "MaxMinClassicAuditor",
    "MaxProbabilisticAuditor",
    "OverlapRestrictionAuditor",
    "CountAuditor",
    "DenyAllAuditor",
    "OracleMaxAuditor",
}


@pytest.fixture(scope="module")
def report():
    return analyze_package(select=["SIM"])


def naive_path() -> pathlib.Path:
    return default_package_dir() / "auditors" / "naive.py"


def strip_pragmas(source: str) -> str:
    return "\n".join(line for line in source.splitlines()
                     if "simulatability: violation" not in line) + "\n"


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------

def test_shipped_tree_has_no_undocumented_violations(report):
    assert report.ok, report.format_text()


def test_every_simulatable_auditor_passes_clean(report):
    flagged = {f.entry_class for f in report.findings}
    assert not (flagged & SIMULATABLE_AUDITORS), report.format_text()


def test_known_documented_violations_are_reported(report):
    documented = {(f.entry_class, f.rule) for f in report.documented}
    assert ("NaiveMaxAuditor", RULE_TRUE_ANSWER) in documented
    assert ("SumProbabilisticAuditor", RULE_SENSITIVE_READ) in documented
    assert ("MaxMinProbabilisticAuditor", RULE_SENSITIVE_READ) in documented


def test_documented_findings_carry_the_pragma_reason(report):
    for finding in report.documented:
        assert finding.pragma_reason, finding.format_text()
        assert finding.severity == "documented"


def test_findings_carry_file_line_and_chain(report):
    for finding in report.findings:
        assert finding.file.endswith(".py")
        assert finding.line > 0
        assert finding.chain, "findings must include the call chain"
        assert finding.chain[0].function.startswith(finding.entry_class)


def test_analyzer_covers_the_auditor_zoo(report):
    # All shipped Auditor subclasses, each with at least _deny_reason.
    assert report.classes_checked >= 10
    assert report.entry_points >= report.classes_checked
    assert report.modules_scanned > 50


# ----------------------------------------------------------------------
# Detection: the NaiveMaxAuditor straw man without its pragma
# ----------------------------------------------------------------------

def test_naive_auditor_detected_when_pragma_stripped():
    path = naive_path()
    stripped = strip_pragmas(path.read_text())
    report = analyze_package(select=["SIM"],
                             source_overrides={str(path): stripped})
    assert not report.ok
    hits = [f for f in report.violations
            if f.entry_class == "NaiveMaxAuditor"]
    assert hits, report.format_text()
    assert hits[0].rule == RULE_TRUE_ANSWER
    assert hits[0].file.endswith("auditors/naive.py")
    assert hits[0].entry_method == "_deny_reason"
    assert "true_answer" in hits[0].sink


def test_pragma_only_documents_its_own_line():
    # Stripping the *other* files' pragmas must not excuse naive.py.
    path = default_package_dir() / "auditors" / "sum_prob.py"
    stripped = strip_pragmas(path.read_text())
    report = analyze_package(select=["SIM"],
                             source_overrides={str(path): stripped})
    undocumented = {f.entry_class for f in report.violations}
    assert undocumented == {"SumProbabilisticAuditor"}


# ----------------------------------------------------------------------
# Detection: indirect (two-hop) reads through helper functions
# ----------------------------------------------------------------------

def test_two_hop_indirect_read_is_caught():
    report = analyze_package(select=["SIM"], extra_modules=[
        ("repro._fixture_indirect_leak", FIXTURES / "indirect_leak.py"),
    ])
    hits = [f for f in report.violations
            if f.entry_class == "IndirectLeakAuditor"]
    assert hits, report.format_text()
    finding = hits[0]
    assert finding.rule == RULE_SENSITIVE_READ
    assert finding.file.endswith("indirect_leak.py")
    # entry -> _hypothetical_answer -> _peek_values
    assert len(finding.chain) == 3
    assert "_hypothetical_answer" in finding.chain[1].function
    assert "_peek_values" in finding.chain[2].function
    # nothing else in the shipped tree regresses
    assert {f.entry_class for f in report.violations} == {
        "IndirectLeakAuditor"}


# ----------------------------------------------------------------------
# Detection: the dataset escaping into a call the analyzer cannot follow
# ----------------------------------------------------------------------

def test_dataset_passed_to_an_opaque_callee_is_sim003():
    report = analyze_package(select=["SIM"], extra_modules=[
        ("repro._fixture_sim_escape", FIXTURES / "sim_escape.py"),
    ])
    hits = [f for f in report.violations
            if f.rule == RULE_SENSITIVE_ESCAPE]
    assert [(f.entry_class, f.entry_method) for f in hits] == [
        ("OpaqueScoringAuditor", "_deny_reason")], report.format_text()
    assert hits[0].file.endswith("sim_escape.py")
    assert "scorer" in hits[0].sink
    # The twin that hands over only the public size stays silent, and
    # nothing in the shipped tree regresses.
    assert {f.entry_class for f in report.violations} == {
        "OpaqueScoringAuditor"}


# ----------------------------------------------------------------------
# JSON schema stability
# ----------------------------------------------------------------------

def test_json_schema_is_stable(report):
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == SCHEMA_VERSION == 2
    assert set(payload) == {"schema_version", "package", "root", "rules",
                            "counts", "findings"}
    assert set(payload["counts"]) == {
        "findings", "violations", "documented", "baselined", "entry_points",
        "classes_checked", "modules_scanned", "functions_scanned"}
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "severity", "message", "file",
                                "line", "col", "entry", "sink", "chain",
                                "pragma", "fingerprint"}
        assert set(finding["entry"]) == {"class", "method", "module"}
        assert finding["severity"] in ("violation", "documented",
                                       "baselined")
        assert finding["rule"].startswith("SIM")
        assert len(finding["fingerprint"]) == 16
        for frame in finding["chain"]:
            assert set(frame) == {"function", "module", "file", "line"}


def test_json_findings_are_sorted_and_counted(report):
    payload = json.loads(report.to_json())
    keys = [(f["file"], f["line"], f["col"], f["rule"])
            for f in payload["findings"]]
    assert keys == sorted(keys)
    assert payload["counts"]["findings"] == len(payload["findings"])
    assert (payload["counts"]["violations"]
            + payload["counts"]["documented"]) == len(payload["findings"])


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------

def test_cli_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    assert "documented" in out


def test_cli_lint_json(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 2
    assert payload["counts"]["violations"] == 0


def test_cli_lint_fails_on_stripped_pragma(tmp_path, capsys):
    copy = tmp_path / "repro"
    shutil.copytree(default_package_dir(), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "auditors" / "naive.py"
    target.write_text(strip_pragmas(target.read_text()))
    assert main(["lint", "--package-dir", str(copy)]) == 1
    captured = capsys.readouterr()
    assert "SIM001" in captured.out
    assert "[violation]" in captured.out
    assert "undocumented" in captured.err


def test_cli_lint_missing_package_dir(capsys):
    assert main(["lint", "--package-dir", "/nonexistent/nowhere"]) == 2
    assert "error" in capsys.readouterr().err
