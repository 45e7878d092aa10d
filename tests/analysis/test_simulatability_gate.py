"""CI gate: the installed package must satisfy the simulatability invariant.

This test *is* the enforcement the paper's §2.2 argument asks for: the
moment any auditor (or a helper reachable from a decision path) reads
``true_answer`` / ``Dataset.values`` without a documented
``# simulatability: violation`` pragma, this fails — in every pytest run
and in CI, not just when someone remembers to run ``repro-audit lint``.
"""

from repro.analysis import analyze_package


def test_simulatability_gate():
    report = analyze_package(select=["SIM"])
    assert report.ok, (
        "simulatability invariant broken — decision paths reach sensitive "
        "data without a documented pragma:\n" + report.format_text()
    )


def test_gate_actually_analyzed_the_auditors():
    # Guard against the gate passing vacuously (e.g. the analyzer failing
    # to discover any Auditor subclass after a refactor).
    report = analyze_package(select=["SIM"])
    assert report.classes_checked >= 10, report.format_text()
    assert report.entry_points >= 20, report.format_text()
    # The intentional straw man must remain visible as a documented finding.
    assert any(f.entry_class == "NaiveMaxAuditor" for f in report.documented)
