"""Analyzer cost: ``repro-audit lint`` runtime over the shipped tree.

The static analyzer runs on every pytest invocation (the SIM/DET/CONC/
LEAK gates) and in pre-commit, so its wall-clock cost is a
developer-facing number worth pinning.  One table: the full eight-family
run plus each rule group alone (SIM alone needs no effect engine;
DET/WAL/BUD share the effect fixpoint; CONC/FORK/ATOM add the
escape/alias pass; LEAK adds the taint fixpoint on top of both), with the
modules/functions actually scanned as anti-vacuity columns.

The series is written to ``BENCH_analysis_runtime.json`` (a committed
artifact, like ``BENCH_fault_recovery.json``) so analyzer slowdowns show
up in review rather than in everyone's pre-commit hook.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import analyze_package

from .conftest import run_once

RESULT_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_analysis_runtime.json"

SELECTIONS = (
    ("all families", None),
    ("SIM", ["SIM"]),
    ("DET+WAL+BUD", ["DET", "WAL", "BUD"]),
    ("CONC+FORK+ATOM", ["CONC", "FORK", "ATOM"]),
    ("LEAK", ["LEAK"]),
)


def _measure():
    series = []
    for label, select in SELECTIONS:
        start = time.perf_counter()
        report = analyze_package(select=select)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        # The gate property itself: the shipped tree is clean under every
        # selection, and the run was not vacuous.
        assert report.ok, report.format_text()
        assert report.modules_scanned >= 50, report.modules_scanned
        if select is None or select != ["SIM"]:
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
            "runtime_ms": round(elapsed_ms, 1),
        })
    return {"benchmark": "analysis_runtime", "runs": series}


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
        title="repro-audit lint runtime over src/repro "
              f"(-> {RESULT_PATH.name})",
    ))
