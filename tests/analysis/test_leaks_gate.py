"""CI gate: the shipped tree must satisfy the LEAK taint invariants.

Mirrors ``test_concurrency_gate.py`` for the leak-freedom rules: the
moment a change lets a sensitive value reach an exception message, a
denial detail, a log/print, a journal/replication payload, or
thread-shared state without a documented ``# audit:`` pragma, this fails
— in every pytest run and in CI.

The fixture half proves the rules are not vacuous: every LEAK rule has a
true positive that must fire and a scrubbed twin that must stay silent.
"""

import json
import pathlib

import pytest

from repro.analysis import (
    analyze_package,
    report_to_sarif,
    write_baseline,
)
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
LEAK_MODULES = [("repro._fixture_leak_channels",
                 FIXTURES / "leak_channels.py")]

LEAKY_PACKAGE_SOURCE = '''\
def debug_dump(dataset):
    print("cells:", dataset.values)
'''


def full_report():
    return analyze_package(select=["LEAK"])


@pytest.fixture(scope="module")
def fixture_report():
    return analyze_package(select=["LEAK"], extra_modules=LEAK_MODULES)


def test_leak_gate():
    report = full_report()
    assert report.ok, (
        "taint-flow invariants broken — scrub the channel or document it "
        "with an '# audit:' pragma:\n" + report.format_text()
    )


def test_gate_actually_walked_the_tree():
    # Anti-vacuity: a refactor that empties the taint pass or the rule
    # registration must fail here, not pass the gate for free.
    report = full_report()
    assert set(report.rules) == {"LEAK001", "LEAK002", "LEAK003", "LEAK004"}
    assert report.functions_scanned >= 300, report.functions_scanned
    assert report.modules_scanned >= 50, report.modules_scanned


def test_min_frequency_denials_clean_without_pragma():
    # The PR fixed the real leak (query/complement sizes in denial
    # details) instead of papering over it; a pragma creeping back in
    # would silently reopen the oracle.
    report = full_report()
    assert not [f for f in report.findings
                if "min_frequency" in f.file], report.format_text()


def test_every_rule_has_a_true_positive(fixture_report):
    hits = {}
    for f in fixture_report.findings:
        if f.entry_module == "repro._fixture_leak_channels":
            hits.setdefault(f.rule, []).append(f)
    assert set(hits) == {"LEAK001", "LEAK002", "LEAK003", "LEAK004"}
    fired = {(f.entry_class, f.entry_method)
             for fs in hits.values() for f in fs}
    assert ("LeakyExceptions", "raise_with_value") in fired
    assert ("LeakyExceptions", "deny_with_value") in fired
    assert ("LeakyExceptions", "deny_nonconstant") in fired  # strict mode
    assert ("LeakyExceptions", "deny_shadowed_constant") in fired
    assert ("LeakyLogging", "print_value") in fired
    assert ("LeakyReplication", "ship_cell") in fired
    assert ("SharedCache", "remember") in fired


def test_scrubbed_twins_stay_silent(fixture_report):
    clean = {("CleanExceptions", "raise_scrubbed"),
             ("CleanExceptions", "deny_scrubbed"),
             ("CleanExceptions", "deny_named_constant"),
             ("CleanExceptions", "deny_imported_constant"),
             ("LeakyLogging", "print_size"),
             ("LeakyReplication", "ship_count"),
             ("SharedCache", "remember_size"),
             ("SharedCache", "__init__")}
    fired = {(f.entry_class, f.entry_method)
             for f in fixture_report.findings
             if f.entry_module == "repro._fixture_leak_channels"}
    assert not (fired & clean), sorted(fired & clean)


def test_pragma_suppresses_and_its_removal_resurfaces(fixture_report):
    doc = [f for f in fixture_report.findings
           if (f.entry_class, f.entry_method)
           == ("CleanExceptions", "deny_documented")]
    assert len(doc) == 1
    assert doc[0].severity == "documented"
    assert "operational" in doc[0].pragma_reason

    source = (FIXTURES / "leak_channels.py").read_text()
    pragma = ("        # audit: LEAK001 -- attempt counter is operational, "
              "not data\n")
    assert pragma in source, "fixture pragma changed; update test"
    resurfaced = analyze_package(
        select=["LEAK"], extra_modules=LEAK_MODULES,
        source_overrides={str(FIXTURES / "leak_channels.py"):
                          source.replace(pragma, "")})
    back = [f for f in resurfaced.findings
            if (f.entry_class, f.entry_method)
            == ("CleanExceptions", "deny_documented")]
    assert len(back) == 1
    assert back[0].severity == "violation"


def test_baseline_roundtrip_with_leak_rules(tmp_path, fixture_report):
    assert not fixture_report.ok
    path = tmp_path / "baseline.json"
    recorded = write_baseline(path, fixture_report)
    assert recorded == len(fixture_report.violations)
    again = analyze_package(select=["LEAK"], extra_modules=LEAK_MODULES,
                            baseline=path)
    assert again.ok, again.format_text()
    assert len([f for f in again.findings
                if f.severity == "baselined"]) == recorded


def test_sarif_declares_leak_rules(fixture_report):
    payload = report_to_sarif(fixture_report)
    rules = {r["id"]: r
             for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    for rule_id in ("LEAK001", "LEAK002", "LEAK003", "LEAK004"):
        assert rule_id in rules
        assert rules[rule_id]["shortDescription"]["text"]
    declared = set(rules)
    results = payload["runs"][0]["results"]
    assert any(r["ruleId"].startswith("LEAK") for r in results)
    for result in results:
        assert result["ruleId"] in declared
        assert result["partialFingerprints"]["reproAudit/v1"]


def test_cli_baseline_roundtrip_with_leak_rules(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "dump.py").write_text(LEAKY_PACKAGE_SOURCE)
    baseline = tmp_path / "baseline.json"

    assert main(["lint", "--package-dir", str(pkg),
                 "--select", "LEAK"]) == 1
    capsys.readouterr()
    assert main(["lint", "--package-dir", str(pkg), "--select", "LEAK",
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    payload = json.loads(baseline.read_text())
    assert payload["findings"], "baseline should record the LEAK finding"
    capsys.readouterr()
    assert main(["lint", "--package-dir", str(pkg), "--select", "LEAK",
                 "--baseline", str(baseline)]) == 0


def test_reflowed_sink_keeps_baseline_valid(tmp_path):
    # The regression behind the fingerprint fix: wrapping a long f-string
    # denial across source lines must not invalidate a recorded baseline.
    report = analyze_package(select=["LEAK"], extra_modules=LEAK_MODULES)
    path = tmp_path / "baseline.json"
    write_baseline(path, report)

    source = (FIXTURES / "leak_channels.py").read_text()
    original = "f\"the maximum is {peek}\")  # LEAK001"
    reflowed = "f\"the maximum \"\n                                  f\"is {peek}\")  # LEAK001"
    assert original in source, "fixture sink changed; update test"
    again = analyze_package(
        select=["LEAK"], extra_modules=LEAK_MODULES, baseline=path,
        source_overrides={str(FIXTURES / "leak_channels.py"):
                          source.replace(original, reflowed)})
    assert again.ok, again.format_text()
