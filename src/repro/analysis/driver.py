"""Full-analysis orchestration: all eight rule families in one pass.

Builds the package index, the call-graph resolver, and the effect-summary
engine exactly once, runs every selected rule family over them, and merges
the findings into one :class:`~repro.analysis.findings.Report`.  This is
what ``repro-audit lint`` runs; :func:`repro.analysis.check_package`
remains the SIM-only library entry point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .atomics import DEFAULT_ATOMICITY_CONFIG, AtomicityConfig, \
    check_atomics
from .baseline import apply_baseline, load_baseline
from .callgraph import Resolver
from .concurrency import DEFAULT_CONCURRENCY_CONFIG, ConcurrencyConfig, \
    check_concurrency
from .determinism import DEFAULT_DET_CONFIG, DeterminismConfig, \
    check_determinism
from .escape import DEFAULT_ESCAPE_CONFIG, EscapeConfig, EscapeEngine
from .findings import ALL_RULES, Finding, Report, expand_rule_selection
from .forksafety import DEFAULT_FORKSAFETY_CONFIG, ForkSafetyConfig, \
    check_forksafety
from .leaks import DEFAULT_LEAK_CONFIG, LeakConfig, check_leaks
from .modindex import build_index
from .ordering import DEFAULT_ORDERING_CONFIG, OrderingConfig, \
    check_ordering
from .purity import EffectEngine
from .simulatability import (
    DEFAULT_CONFIG,
    AnalysisConfig,
    _Walker,
    default_package_dir,
    find_auditor_classes,
)
from .taintflow import DEFAULT_TAINT_CONFIG, TaintConfig, TaintEngine

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
                    config: Optional[AnalysisConfig] = None,
                    det_config: Optional[DeterminismConfig] = None,
                    ordering_config: Optional[OrderingConfig] = None,
                    escape_config: Optional[EscapeConfig] = None,
                    conc_config: Optional[ConcurrencyConfig] = None,
                    fork_config: Optional[ForkSafetyConfig] = None,
                    atom_config: Optional[AtomicityConfig] = None,
                    taint_config: Optional[TaintConfig] = None,
                    leak_config: Optional[LeakConfig] = None,
                    select: Optional[Iterable[str]] = None,
                    ignore: Optional[Iterable[str]] = None,
                    baseline: Union[str, Path, None] = None,
                    source_overrides: Optional[Dict[str, str]] = None,
                    extra_modules: Optional[Iterable[Tuple[str, Path]]]
                    = None) -> Report:
    """Run every selected rule family over a package tree.

    Parameters mirror :func:`repro.analysis.check_package`, plus:

    select / ignore:
        Rule IDs or family prefixes (``DET``, ``WAL001``, …).  Default:
        everything.
    baseline:
        Optional path to a baseline file; recorded findings are demoted to
        ``baselined`` severity and don't fail the run.
    """
    config = config or DEFAULT_CONFIG
    det_config = det_config or DEFAULT_DET_CONFIG
    ordering_config = ordering_config or DEFAULT_ORDERING_CONFIG
    escape_config = escape_config or DEFAULT_ESCAPE_CONFIG
    conc_config = conc_config or DEFAULT_CONCURRENCY_CONFIG
    fork_config = fork_config or DEFAULT_FORKSAFETY_CONFIG
    atom_config = atom_config or DEFAULT_ATOMICITY_CONFIG
    taint_config = taint_config or DEFAULT_TAINT_CONFIG
    leak_config = leak_config or DEFAULT_LEAK_CONFIG
    rules = active_rules(select, ignore)

    package_dir = Path(package_dir) if package_dir is not None \
        else default_package_dir()

    index = build_index(package_dir, package=config.package,
                        source_overrides=source_overrides,
                        extra_modules=extra_modules)
    resolver = Resolver(index)

    findings: List[Finding] = []
    entry_points = 0
    classes_checked = 0
    functions_scanned = 0

    if any(rule.startswith("SIM") for rule in rules):
        walker = _Walker(index, resolver, config)
        classes = find_auditor_classes(index, resolver, config)
        for cls in classes:
            entry_points += walker.check_class(cls)
        classes_checked = len(classes)
        findings.extend(f for f in walker.findings if f.rule in rules)

    needs_effects = any(rule.startswith(("DET", "WAL", "BUD",
                                         "CONC", "FORK", "ATOM", "LEAK"))
                        for rule in rules)
    if needs_effects:
        engine = EffectEngine(index, resolver)
        functions_scanned = engine.functions_scanned
        if any(rule.startswith("DET") for rule in rules):
            det_findings, det_roots, _ = check_determinism(
                index, resolver, engine, sim_config=config,
                config=det_config)
            entry_points += det_roots
            findings.extend(f for f in det_findings if f.rule in rules)
        if any(rule.startswith(("WAL", "BUD")) for rule in rules):
            ord_findings, _ = check_ordering(
                index, resolver, engine, config=ordering_config,
                rules={r for r in rules if r.startswith(("WAL", "BUD"))})
            findings.extend(ord_findings)
        if any(rule.startswith(("CONC", "FORK", "ATOM", "LEAK"))
               for rule in rules):
            escape = EscapeEngine(index, resolver, engine,
                                  config=escape_config)
            if any(rule.startswith("CONC") for rule in rules):
                conc_findings, conc_roots = check_concurrency(
                    index, resolver, engine, escape, config=conc_config,
                    rules={r for r in rules if r.startswith("CONC")})
                entry_points += conc_roots
                findings.extend(conc_findings)
            if any(rule.startswith("FORK") for rule in rules):
                fork_findings, _ = check_forksafety(
                    index, resolver, engine, escape, config=fork_config,
                    rules={r for r in rules if r.startswith("FORK")})
                findings.extend(fork_findings)
            if any(rule.startswith("ATOM") for rule in rules):
                atom_findings, _ = check_atomics(
                    index, resolver, engine, escape, config=atom_config,
                    rules={r for r in rules if r.startswith("ATOM")})
                findings.extend(atom_findings)
            if any(rule.startswith("LEAK") for rule in rules):
                taint = TaintEngine(index, resolver, engine, escape,
                                    config=taint_config)
                leak_findings, _ = check_leaks(
                    index, resolver, engine, escape, taint,
                    config=leak_config,
                    rules={r for r in rules if r.startswith("LEAK")})
                findings.extend(leak_findings)

    report = Report(package=config.package, root=str(index.root),
                    findings=findings,
                    entry_points=entry_points,
                    classes_checked=classes_checked,
                    modules_scanned=len(index.modules),
                    functions_scanned=functions_scanned,
                    rules=sorted(rules))
    if baseline is not None:
        report = apply_baseline(report, load_baseline(baseline))
    return report

