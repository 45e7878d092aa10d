"""Full-analysis orchestration: all eight rule families in one pass.

Builds the package index, the call-graph resolver and the per-run
:class:`~repro.analysis.facts.FunctionFacts` exactly once, runs every
selected rule family over them, and merges the findings into one
:class:`~repro.analysis.findings.Report`.  This is what ``repro-audit
lint`` runs, and the library's only entry point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .atomics import check_atomics
from .baseline import apply_baseline, load_baseline
from .callgraph import Resolver
from .concurrency import check_concurrency
from .determinism import check_determinism
from .escape import EscapeEngine
from .facts import FunctionFacts
from .findings import ALL_RULES, Finding, Report, expand_rule_selection
from .forksafety import check_forksafety
from .leaks import check_leaks
from .modindex import build_index
from .ordering import check_ordering
from .purity import EffectEngine
from .simulatability import PACKAGE, check_simulatability, \
    default_package_dir
from .taintflow import TaintEngine


def active_rules(select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> Set[str]:
    """The rule set a ``--select``/``--ignore`` pair leaves enabled."""
    selected = expand_rule_selection(list(select) if select else None)
    ignored = expand_rule_selection(list(ignore) if ignore else None)
    rules = set(ALL_RULES) if selected is None else selected
    if ignored:
        rules -= ignored
    return rules


def analyze_package(package_dir: Union[str, Path, None] = None,
                    select: Optional[Iterable[str]] = None,
                    ignore: Optional[Iterable[str]] = None,
                    baseline: Union[str, Path, None] = None,
                    source_overrides: Optional[Dict[str, str]] = None,
                    extra_modules: Optional[Iterable[Tuple[str, Path]]]
                    = None) -> Report:
    """Run every selected rule family over a package tree.

    package_dir:
        The package directory (holding ``__init__.py``); defaults to the
        installed ``repro`` package.
    select / ignore:
        Rule IDs or family prefixes (``DET``, ``WAL001``, …).  Default:
        everything.
    baseline:
        Optional path to a baseline file; recorded findings are demoted to
        ``baselined`` severity and don't fail the run.
    source_overrides:
        ``{path: source}`` replacements applied before parsing (tests use
        this to strip pragmas without touching the tree).
    extra_modules:
        Extra ``(dotted_name, path)`` modules analysed alongside the
        package (tests inject fixture modules this way).

    ``report.ok`` is False when any undocumented violation was found.
    """
    rules = active_rules(select, ignore)

    def wants(*families: str) -> bool:
        return any(rule.startswith(families) for rule in rules)

    package_dir = Path(package_dir) if package_dir is not None \
        else default_package_dir()
    index = build_index(package_dir, package=PACKAGE,
                        source_overrides=source_overrides,
                        extra_modules=extra_modules)
    facts = FunctionFacts(index, Resolver(index))

    found: List[Finding] = []
    entry_points = 0
    classes_checked = 0
    functions_scanned = 0

    if wants("SIM"):
        sim_findings, entry_points, classes_checked = \
            check_simulatability(facts)
        found.extend(sim_findings)

    if wants("DET", "WAL", "BUD", "CONC", "FORK", "ATOM", "LEAK"):
        effects = EffectEngine(facts)
        functions_scanned = len(facts.functions)
        if wants("DET"):
            det_findings, det_roots = check_determinism(facts, effects)
            entry_points += det_roots
            found.extend(det_findings)
        if wants("WAL", "BUD"):
            found.extend(check_ordering(facts, effects))
        if wants("CONC", "FORK", "LEAK"):
            escape = EscapeEngine(facts)
        if wants("CONC"):
            found.extend(check_concurrency(facts, effects, escape))
            entry_points += len(facts.functions)  # CONC checks each one
        if wants("FORK"):
            found.extend(check_forksafety(facts, effects, escape))
        if wants("ATOM"):
            found.extend(check_atomics(facts, effects))
        if wants("LEAK"):
            taint = TaintEngine(facts, effects, escape)
            found.extend(check_leaks(facts, taint))

    report = Report(package=PACKAGE, root=str(index.root),
                    findings=[f for f in found if f.rule in rules],
                    entry_points=entry_points,
                    classes_checked=classes_checked,
                    modules_scanned=len(index.modules),
                    functions_scanned=functions_scanned,
                    rules=sorted(rules))
    if baseline is not None:
        report = apply_baseline(report, load_baseline(baseline))
    return report
