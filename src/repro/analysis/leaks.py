"""LEAK rules: sensitive values must not escape through side channels.

Simulatability (the paper's central property) is stated over everything
the auditor *emits*, not just released answers.  The SIM family proves
decision paths do not read sensitive state; this family consumes the
value-level taint flows of :mod:`repro.analysis.taintflow` and proves
sensitive *values* cannot flow out through the unsanctioned channels:

* ``LEAK001`` — a tainted value reaches an exception message or a
  denial-detail string.  Any denial detail that is not built from
  constants also fires, tainted or not: denial reasons must be fixed
  reason codes, because a detail that varies with the data (a set size,
  a threshold comparison, a sampled value) is an oracle even when each
  piece looks attacker-computable;
* ``LEAK002`` — a tainted value reaches logging / ``print`` / CSV-export
  output outside the released-answer path;
* ``LEAK003`` — a tainted value is serialized into a journal/WAL append
  or a replication frame beyond the released decision record (the
  decision record itself is public: it crosses the release boundary);
* ``LEAK004`` — a tainted value is stored on thread-shared state (a
  class the escape analysis marks as crossing thread boundaries), where
  any other request's handler could read it back.

Findings are suppressed the usual way: a ``# audit: LEAK001 -- reason``
pragma on (or just above) the sink line documents a vetted false
positive — e.g. a classic auditor whose denial detail is derived only
from *past released answers* and is therefore simulatable by
construction.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .findings import (
    RULE_TAINTED_EXCEPTION,
    RULE_TAINTED_JOURNAL,
    RULE_TAINTED_LOG,
    RULE_TAINTED_SHARED_STATE,
    Finding,
    function_finding,
)
from .facts import FunctionFacts
from .modindex import ClassInfo, FunctionNode, PackageIndex
from .taintflow import SOURCE, SinkEvent, TaintEngine

#: sink-event kind (see :class:`~repro.analysis.taintflow.SinkEvent`)
#: -> the rule it violates
KIND_RULES: Dict[str, str] = {
    "raise": RULE_TAINTED_EXCEPTION,
    "deny": RULE_TAINTED_EXCEPTION,
    "log": RULE_TAINTED_LOG,
    "journal": RULE_TAINTED_JOURNAL,
    "shared": RULE_TAINTED_SHARED_STATE,
}

_MESSAGES = {
    "raise": ("a sensitive-tainted value reaches an exception message "
              "(scrub the payload; keep len()/count projections only)"),
    "deny": ("a sensitive-tainted value reaches a denial-detail string "
             "(denial reasons must be generic reason codes)"),
    "log": ("a sensitive-tainted value flows into log/print/export output "
            "outside the released-answer path"),
    "journal": ("a sensitive-tainted value is serialized into a "
                "journal/WAL/replication payload beyond the released "
                "decision record"),
    "shared": ("a sensitive-tainted value is stored on thread-shared "
               "state where other requests can observe it"),
}

_STRICT_DENY_MESSAGE = (
    "denial detail is not a constant reason string (sizes, thresholds, "
    "and computed values in denials are an oracle for the data)")


class _LeakChecker:
    def __init__(self, index: PackageIndex, taint: TaintEngine) -> None:
        self.index = index
        self.taint = taint
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str, int, int, str]] = set()

    def check_function(self, module: str, node: FunctionNode,
                       self_class: Optional[ClassInfo]) -> None:
        for event in self.taint.events_for(node):
            self._check_event(module, node, self_class, event)

    def _check_event(self, module: str, node: FunctionNode,
                     self_class: Optional[ClassInfo],
                     event: SinkEvent) -> None:
        rule = KIND_RULES[event.kind]
        tainted = SOURCE in event.origins
        if event.kind == "deny":
            if tainted:
                message = _MESSAGES["deny"]
            elif not event.constantish:
                message = _STRICT_DENY_MESSAGE
            else:
                return
        else:
            if not tainted:
                return
            message = _MESSAGES[event.kind]
        if event.via is not None:
            message += f" (flows through {event.via}())"
        self._emit(rule, module, event.node, event.sink, message,
                   self_class, node.name)

    def _emit(self, rule: str, module: str, node: ast.AST, sink: str,
              message: str, self_class: Optional[ClassInfo],
              method: str) -> None:
        key = (rule, module, getattr(node, "lineno", 0),
               getattr(node, "col_offset", 0), sink)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(function_finding(
            self.index, rule, module, node, sink, message, self_class,
            method))


def check_leaks(facts: FunctionFacts, taint: TaintEngine) -> List[Finding]:
    """Run the LEAK rules over every function of the package."""
    checker = _LeakChecker(facts.index, taint)
    for module, node, self_class in facts.functions:
        checker.check_function(module, node, self_class)
    return checker.findings
