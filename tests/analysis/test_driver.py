"""Rule selection, baselines, SARIF output, and lint CLI exit codes."""

import json
import pathlib

import pytest

import repro.analysis
from repro.analysis import (
    ALL_RULES,
    active_rules,
    analyze_package,
    apply_baseline,
    load_baseline,
    report_to_sarif,
    report_to_sarif_json,
    write_baseline,
)
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DET_MODULES = [("repro._fixture_det_rules", FIXTURES / "det_sampler.py")]


# ----------------------------------------------------------------------
# Rule selection
# ----------------------------------------------------------------------

def test_default_selection_is_every_rule():
    assert active_rules() == set(ALL_RULES)


def test_family_select_and_ignore():
    assert active_rules(select=["DET"]) == {
        "DET001", "DET002", "DET003", "DET004"}
    assert active_rules(select=["DET", "WAL001"]) == {
        "DET001", "DET002", "DET003", "DET004", "WAL001"}
    assert active_rules(ignore=["SIM"]) == {
        r for r in ALL_RULES if not r.startswith("SIM")}
    assert active_rules(select=["DET"], ignore=["DET003"]) == {
        "DET001", "DET002", "DET004"}


def test_unknown_rule_raises():
    with pytest.raises(ValueError):
        active_rules(select=["BOGUS"])


# ----------------------------------------------------------------------
# Fingerprints and baselines
# ----------------------------------------------------------------------

def test_fingerprint_survives_line_shifts():
    source = (FIXTURES / "det_sampler.py").read_text()
    before = analyze_package(select=["DET"], extra_modules=DET_MODULES)
    after = analyze_package(
        select=["DET"], extra_modules=DET_MODULES,
        source_overrides={str(FIXTURES / "det_sampler.py"):
                          "\n\n\n" + source})

    def prints(report):
        return sorted(f.fingerprint for f in report.findings
                      if f.file.endswith("det_sampler.py"))

    assert prints(before) == prints(after)
    assert all(len(p) == 16 for p in prints(before))
    # the override really shifted the findings: same prints, new lines
    lines = {f.fingerprint: f.line for f in before.findings
             if f.file.endswith("det_sampler.py")}
    for finding in after.findings:
        if finding.file.endswith("det_sampler.py"):
            assert finding.line == lines[finding.fingerprint] + 3


def test_baseline_roundtrip_suppresses_recorded_findings(tmp_path):
    report = analyze_package(select=["DET"], extra_modules=DET_MODULES)
    assert not report.ok
    path = tmp_path / "baseline.json"
    recorded = write_baseline(path, report)
    assert recorded == len(report.violations)

    again = analyze_package(select=["DET"], extra_modules=DET_MODULES,
                            baseline=path)
    assert again.ok, again.format_text()
    baselined = [f for f in again.findings if f.severity == "baselined"]
    assert len(baselined) == recorded


def test_baseline_does_not_cover_new_instances(tmp_path):
    report = analyze_package(select=["DET"], extra_modules=DET_MODULES)
    path = tmp_path / "baseline.json"
    write_baseline(path, report)

    # A second copy of the broken fixture introduces *new* findings with
    # fresh fingerprints (different file): the baseline must not absorb
    # them.
    both = analyze_package(select=["DET"], extra_modules=[
        ("repro._fixture_det_rules", FIXTURES / "det_sampler.py"),
        ("repro._fixture_det_rules_copy", FIXTURES / "det_sampler.py"),
    ], baseline=path)
    assert not both.ok
    assert all("det_sampler" in f.file for f in both.violations)


def test_apply_baseline_consumes_per_fingerprint_counts():
    report = analyze_package(select=["DET"], extra_modules=DET_MODULES)
    one = report.violations[0]
    patched = apply_baseline(report, {one.fingerprint: 1})
    still = [f.fingerprint for f in patched.violations]
    assert one.fingerprint not in still
    assert len(still) == 3


def test_load_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        load_baseline(path)


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sarif_payload():
    report = analyze_package(extra_modules=DET_MODULES)
    return report_to_sarif(report)


def test_sarif_shape(sarif_payload):
    assert sarif_payload["version"] == "2.1.0"
    run = sarif_payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-audit"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == set(ALL_RULES)


def test_sarif_results_carry_fingerprints_and_flows(sarif_payload):
    results = sarif_payload["runs"][0]["results"]
    det = [r for r in results
           if r["locations"][0]["physicalLocation"]["artifactLocation"]
           ["uri"].endswith("det_sampler.py")]
    assert len(det) == 4
    for result in det:
        assert result["level"] == "error"
        assert result["partialFingerprints"]["reproAudit/v1"]
        flow = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert flow, result


def test_sarif_documents_suppressed_findings(sarif_payload):
    results = sarif_payload["runs"][0]["results"]
    suppressed = [r for r in results if "suppressions" in r]
    assert suppressed  # the shipped tree's documented pragmas
    for result in suppressed:
        assert result["level"] == "note"
        assert result["suppressions"][0]["justification"]


def test_sarif_json_is_parseable():
    report = analyze_package(select=["SIM"])
    payload = json.loads(report_to_sarif_json(report))
    assert payload["runs"][0]["results"] is not None


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------

def test_cli_bad_select_exits_two(capsys):
    assert main(["lint", "--select", "BOGUS"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_update_baseline_requires_baseline(capsys):
    assert main(["lint", "--update-baseline"]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_cli_missing_baseline_file_exits_two(capsys):
    assert main(["lint", "--baseline", "/nonexistent/baseline.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_sarif_output_on_clean_tree(capsys):
    assert main(["lint", "--format", "sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"


def test_cli_update_baseline_writes_file(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    assert main(["lint", "--baseline", str(path),
                 "--update-baseline"]) == 0
    payload = json.loads(path.read_text())
    assert payload == {"version": 1, "findings": []}
    assert "recorded 0" in capsys.readouterr().out


def test_cli_internal_error_exits_two(monkeypatch, capsys):
    def boom(**kwargs):
        raise RuntimeError("analyzer bug")

    monkeypatch.setattr(repro.analysis, "analyze_package", boom)
    assert main(["lint"]) == 2
    err = capsys.readouterr().err
    assert "internal analyzer error" in err
    assert "RuntimeError" in err


def test_shipped_baseline_is_empty():
    shipped = pathlib.Path(__file__).resolve().parents[2] \
        / ".repro-audit-baseline.json"
    payload = json.loads(shipped.read_text())
    assert payload == {"version": 1, "findings": []}

