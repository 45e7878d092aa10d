"""Analyzer cost and yield: ``repro-audit lint`` over the shipped tree.

The static analyzer runs on every pytest invocation (the SIM/DET/CONC/
LEAK gates) and in pre-commit, so its wall-clock cost is a
developer-facing number worth pinning.  Two tables:

1. runtime — the full eight-family run plus each rule group alone (SIM
   alone needs no effect engine; DET/WAL/BUD share the effect fixpoint;
   CONC/FORK/ATOM add the escape/alias pass; LEAK adds the taint fixpoint
   on top of both), each the median of ``RUNS`` interleaved runs, with
   the modules/functions actually scanned as anti-vacuity columns;
2. yield — per rule, the findings on the shipped tree (each one carries
   a documenting pragma, or the gate would fail) against the hits in the
   fixture modules the rule tests load.  A rule that finds nothing on
   the tree is enforced by its fixtures alone.

The series is written to ``BENCH_analysis_runtime.json`` (a committed
artifact, like ``BENCH_fault_recovery.json``) so analyzer slowdowns show
up in review rather than in everyone's pre-commit hook.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path

from repro.analysis import ALL_RULES, analyze_package

from .conftest import run_once

ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = ROOT / "BENCH_analysis_runtime.json"
FIXTURES = ROOT / "tests" / "analysis" / "fixtures"

#: The fixture modules the rule tests load, under the names they use.
FIXTURE_MODULES = [
    ("repro._fixture_atom_protocol", FIXTURES / "atom_protocol.py"),
    ("repro._fixture_budget_sampler", FIXTURES / "budget_sampler.py"),
    ("repro._fixture_conc_discipline", FIXTURES / "conc_discipline.py"),
    ("repro._fixture_det_rules", FIXTURES / "det_sampler.py"),
    ("repro._fixture_fork_payloads", FIXTURES / "fork_payloads.py"),
    ("repro._fixture_indirect_leak", FIXTURES / "indirect_leak.py"),
    ("repro._fixture_leak_channels", FIXTURES / "leak_channels.py"),
    ("repro._fixture_sim_escape", FIXTURES / "sim_escape.py"),
    ("repro._fixture_wal_boundary", FIXTURES / "wal_boundary.py"),
]

SELECTIONS = (
    ("all families", None),
    ("SIM", ["SIM"]),
    ("DET+WAL+BUD", ["DET", "WAL", "BUD"]),
    ("CONC+FORK+ATOM", ["CONC", "FORK", "ATOM"]),
    ("LEAK", ["LEAK"]),
)

#: Timed runs per selection, interleaved; each row reports their median.
RUNS = 3


def _measure_runtime():
    times = {label: [] for label, _ in SELECTIONS}
    reports = {}
    for _ in range(RUNS):
        for label, select in SELECTIONS:
            start = time.perf_counter()
            report = analyze_package(select=select)
            times[label].append(time.perf_counter() - start)
            reports[label] = report
    series = []
    for label, select in SELECTIONS:
        report = reports[label]
        # The gate property itself: the shipped tree is clean under every
        # selection, and the run was not vacuous.
        assert report.ok, report.format_text()
        assert report.modules_scanned >= 50, report.modules_scanned
        if select != ["SIM"]:
            # SIM runs on the call graph alone; every other family walks
            # function CFGs, so a zero here means a vacuous run.
            assert report.functions_scanned >= 300, report.functions_scanned
        series.append({
            "selection": label,
            "rules": len(report.rules),
            "modules_scanned": report.modules_scanned,
            "functions_scanned": report.functions_scanned,
            "documented_findings": len(
                [f for f in report.findings if f.severity == "documented"]),
            "runtime_ms": round(statistics.median(times[label]) * 1e3, 1),
            "runtime_ms_runs": [round(t * 1e3, 1) for t in times[label]],
        })
    return series, reports["all families"]


def _measure_yield(tree_report):
    tree = Counter(f.rule for f in tree_report.findings)
    assert all(f.documented for f in tree_report.findings)
    with_fixtures = analyze_package(extra_modules=FIXTURE_MODULES)
    fixture_files = {path.name for _, path in FIXTURE_MODULES}
    fixtures = Counter(f.rule for f in with_fixtures.findings
                       if Path(f.file).name in fixture_files)
    # Adding the fixtures must not move a finding on the tree itself.
    assert Counter(f.rule for f in with_fixtures.findings
                   if Path(f.file).name not in fixture_files) == tree
    return [{"rule": rule, "tree_findings": tree[rule],
             "fixture_hits": fixtures[rule]} for rule in ALL_RULES]


def _measure():
    series, tree_report = _measure_runtime()
    return {"benchmark": "analysis_runtime", "runs_per_row": RUNS,
            "runs": series, "yield": _measure_yield(tree_report)}


def test_analyzer_runtime_over_shipped_tree(benchmark):
    report = run_once(benchmark, _measure)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    from repro.reporting.tables import format_table
    print(format_table(
        ["selection", "rules", "modules", "functions", "documented",
         "runtime ms"],
        [(r["selection"], r["rules"], r["modules_scanned"],
          r["functions_scanned"], r["documented_findings"],
          f"{r['runtime_ms']:.0f}") for r in report["runs"]],
        title=f"repro-audit lint runtime over src/repro, median of {RUNS} "
              f"(-> {RESULT_PATH.name})",
    ))
    print(format_table(
        ["rule", "tree findings (pragma'd)", "fixture hits"],
        [(r["rule"], r["tree_findings"], r["fixture_hits"])
         for r in report["yield"]],
        title="Per-rule yield: the shipped tree against the rule fixtures",
    ))
