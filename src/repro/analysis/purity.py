"""Shared effect summaries for the DET/WAL/BUD/CONC/FORK/ATOM families.

Each function/method of the analysed package gets an :class:`EffectSummary`
— does it (transitively) draw randomness (seeded or not), append to the
audit journal/WAL, checkpoint a budget, pass a fault-injection site, or
fsync a file or a directory?  Summaries are computed by classifying the
*primitive* effects of each call site (dotted stdlib/numpy names expanded
through the module's import aliases, plus name-based conventions for
journal/WAL/checkpoint calls) and then propagating them to fixpoint over
the best-effort call graph from :mod:`repro.analysis.callgraph`.

The rule modules share the same per-call classifier
(:meth:`EffectEngine.call_facts`), so "what counts as an append" is defined
exactly once:

* **randomness** — module-level ``random.*`` / ``numpy.random.*`` calls,
  unseeded factory calls (``default_rng()`` / ``as_generator()`` with no
  seed), and draw methods (``integers`` / ``random`` / ``choice`` …) on
  rng-ish receivers; the first two are also *unseeded* draws, which
  FORK002 rejects in worker functions;
* **clock/entropy** — ``time.time``, ``os.urandom``, ``uuid.uuid4``,
  ``secrets.*``, ``datetime.now`` …; ``time.monotonic`` (and the other
  monotonic clocks) is *allowed* — it is the budget layer's sanctioned
  deadline clock and never feeds a released value;
* **journal appends** — ``CheckpointedWal.append`` and the
  ``record_decision`` / ``record_replay`` / ``record_refusal`` /
  ``record_update`` calling conventions (resolved or name-based);
* **budget checkpoints** — ``BudgetScope.checkpoint`` and the
  ``checkpoint`` / ``_checkpoint`` calling conventions;
* **fault sites** — ``repro.resilience.faults.fault_site``;
* **fsync** — ``os.fsync`` / ``os.fdatasync`` and the ``fsync_directory``
  helper, which also counts as a *directory* fsync.  CONC003 uses the
  file bit to spot durability stalls under a lock; ATOM001 uses both to
  prove a rename's fsync protocol through helpers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Set

from .callgraph import ResolvedCall, TypeEnv
from .facts import FunctionFacts
from .modindex import FunctionNode, PackageIndex

#: factories that are fine *when seeded*: flagged only when called with
#: no seed argument (or a literal ``None`` seed)
SEEDED_FACTORIES = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "random.Random",
    "repro.rng.as_generator",
    "repro.rng.spawn",
})
#: dotted prefixes whose *module-level* calls use hidden global RNG state
_GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
#: names under those prefixes that are not draws (types, submodule refs)
_GLOBAL_RNG_ALLOW = frozenset({
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
})
_CLOCK_ENTROPY = frozenset({
    "time.time", "time.time_ns",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "random.SystemRandom",
})
#: ``Generator`` draw methods; a call ``<rng-ish>.<draw>(...)`` draws
_DRAW_METHODS = frozenset({
    "random", "integers", "choice", "uniform", "normal",
    "standard_normal", "shuffle", "permutation", "permuted",
    "exponential", "beta", "gamma", "binomial", "poisson",
    "multivariate_normal", "bytes", "bit_generator", "spawn",
})
#: receiver-name substrings that mark a receiver as an RNG handle
_RNGISH_RECEIVERS = ("rng", "gen", "random")
#: fully-resolved functions that append a decision/replay/update record
APPEND_FUNCTIONS = frozenset({
    "repro.resilience.checkpoint.CheckpointedWal.append",
    "repro.resilience.checkpoint.CheckpointedWal.raw_append",
    "repro.resilience.replication.Follower._apply_append",
})
#: method names that journal by convention, on any receiver
_APPEND_METHOD_NAMES = frozenset({
    "record_decision", "record_replay", "record_refusal", "record_update",
})
#: ``x.append(...)`` receivers (lowercased dotted text suffix) that are
#: write-ahead logs rather than plain lists
_APPEND_RECEIVER_SUFFIXES = ("wal", "journal", "log")
_CHECKPOINT_FUNCTIONS = frozenset({
    "repro.resilience.budget.BudgetScope.checkpoint",
})
_CHECKPOINT_NAMES = frozenset({"checkpoint", "_checkpoint"})
_FAULT_SITE_FUNCTIONS = frozenset({"repro.resilience.faults.fault_site"})
#: method names that *delegate* the whole release+journal obligation
_DELEGATE_METHOD_NAMES = frozenset({"audit"})
#: file-fsync primitives (the durable-write syscall)
FSYNC_CALLS = frozenset({"os.fsync", "os.fdatasync"})
#: directory-fsync helpers (persist a rename itself), matched by name
DIR_FSYNC_NAMES = frozenset({"fsync_directory"})


@dataclass
class CallFacts:
    """Primitive classification of one call site."""

    dotted: Optional[str] = None         #: expanded dotted callee, if any
    resolved: Optional[ResolvedCall] = None
    unseeded_rng: Optional[str] = None   #: dotted name when DET001 applies
    clock: Optional[str] = None          #: dotted name when DET002 applies
    draws: bool = False
    appends: bool = False
    delegates_audit: bool = False
    checkpoints: bool = False
    fault_site: bool = False
    fsync: bool = False
    dir_fsync: bool = False


@dataclass
class EffectSummary:
    """Transitive effects of one function/method."""

    draws_randomness: bool = False
    #: draws not derived from an explicit seed (a subset of the above)
    draws_unseeded: bool = False
    appends_journal: bool = False
    checkpoints_budget: bool = False
    hits_fault_site: bool = False
    fsyncs: bool = False
    #: fsyncs a directory (a subset of ``fsyncs``)
    fsyncs_directory: bool = False

    def merge(self, other: "EffectSummary") -> bool:
        """OR ``other`` in; True when anything changed."""
        changed = False
        for name in _SUMMARY_BITS:
            if getattr(other, name) and not getattr(self, name):
                setattr(self, name, True)
                changed = True
        return changed


_SUMMARY_BITS = tuple(f.name for f in fields(EffectSummary))


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

def attr_text(expr: ast.expr) -> Optional[str]:
    """Best-effort dotted rendering of an attribute/name chain."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return None


def dotted_callee(func: ast.expr, index: PackageIndex,
                  module: str) -> Optional[str]:
    """Fully-expanded dotted name of a callee whose root is an import.

    ``np.random.default_rng`` → ``numpy.random.default_rng`` when ``np``
    aliases numpy; ``time()`` → ``time.time`` after ``from time import
    time``.  Receivers rooted in locals/``self`` return None —
    :class:`~repro.analysis.callgraph.Resolver` handles those.
    """
    text = attr_text(func)
    if text is None:
        return None
    root, _, rest = text.partition(".")
    mod = index.modules.get(module)
    target = mod.imports.get(root) if mod is not None else None
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


def _seed_argument_missing(call: ast.Call) -> bool:
    """True when a factory call carries no seed (or a literal None seed)."""
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in call.keywords:
        if kw.arg in ("seed", "rng", "x"):
            return (isinstance(kw.value, ast.Constant)
                    and kw.value.value is None)
        if kw.arg is None:
            return False  # **kwargs may carry a seed — benefit of the doubt
    return True


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class EffectEngine:
    """Computes and caches effect summaries for one package index."""

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self.index: PackageIndex = facts.index
        self.resolver = facts.resolver
        #: function -> summary
        self._summaries: Dict[FunctionNode, EffectSummary] = {}
        self._compute()

    # -- per-call classification ---------------------------------------

    def call_facts(self, call: ast.Call, module: str,
                   env: TypeEnv) -> CallFacts:
        """Classify the primitive effects of one call site."""
        facts = CallFacts()
        facts.dotted = dotted_callee(call.func, self.index, module)
        try:
            facts.resolved = self.resolver.resolve_call(call.func, env)
        except RecursionError:  # pragma: no cover - pathological hierarchies
            facts.resolved = None

        dotted = facts.dotted
        if dotted is not None:
            if dotted in SEEDED_FACTORIES:
                if _seed_argument_missing(call):
                    facts.unseeded_rng = dotted
            elif dotted in _GLOBAL_RNG_ALLOW:
                pass
            elif dotted.startswith(_GLOBAL_RNG_PREFIXES):
                facts.unseeded_rng = dotted
                facts.draws = True
            if dotted in _CLOCK_ENTROPY:
                facts.clock = dotted
            if dotted in _FAULT_SITE_FUNCTIONS:
                facts.fault_site = True
            if dotted in FSYNC_CALLS:
                facts.fsync = True

        resolved = facts.resolved
        if resolved is not None:
            if resolved.qualname in SEEDED_FACTORIES:
                if _seed_argument_missing(call):
                    facts.unseeded_rng = resolved.qualname
            if resolved.qualname in APPEND_FUNCTIONS:
                facts.appends = True
            if resolved.qualname in _CHECKPOINT_FUNCTIONS:
                facts.checkpoints = True
            if resolved.qualname in _FAULT_SITE_FUNCTIONS:
                facts.fault_site = True

        name: Optional[str] = None
        if isinstance(call.func, ast.Attribute):
            name = attr = call.func.attr
            receiver = (attr_text(call.func.value) or "").lower()
            root = receiver.rsplit(".", 1)[-1]
            if attr in _DRAW_METHODS and any(
                    token in root for token in _RNGISH_RECEIVERS):
                facts.draws = True
            if attr in _APPEND_METHOD_NAMES:
                facts.appends = True
            if attr == "append" and root.endswith(_APPEND_RECEIVER_SUFFIXES):
                facts.appends = True
            if attr in _DELEGATE_METHOD_NAMES:
                facts.delegates_audit = True
        elif isinstance(call.func, ast.Name):
            name = call.func.id
        if name in _CHECKPOINT_NAMES:
            facts.checkpoints = True
        if name == "fault_site":
            facts.fault_site = True
        if name in DIR_FSYNC_NAMES:
            facts.fsync = facts.dir_fsync = True
        return facts

    def merged_facts(self, call: ast.Call, module: str,
                     env: TypeEnv) -> CallFacts:
        """Primitive facts OR the transitive summary of the resolved callee."""
        facts = self.call_facts(call, module, env)
        resolved = facts.resolved
        if resolved is not None and resolved.node is not None:
            summary = self._summaries.get(resolved.node)
            if summary is not None:
                facts.draws |= summary.draws_randomness
                facts.appends |= summary.appends_journal
                facts.checkpoints |= summary.checkpoints_budget
                facts.fault_site |= summary.hits_fault_site
                facts.fsync |= summary.fsyncs
                facts.dir_fsync |= summary.fsyncs_directory
        return facts

    def summary_of(self, node: FunctionNode) -> EffectSummary:
        """The (transitive) summary of a function node; empty if unknown."""
        return self._summaries.get(node, EffectSummary())

    # -- whole-package fixpoint ----------------------------------------

    def _compute(self) -> None:
        edges: Dict[FunctionNode, Set[FunctionNode]] = {}
        for module, node, self_class in self.facts.functions:
            summary = EffectSummary()
            callees: Set[FunctionNode] = set()
            env = self.facts.param_env(module, node, self_class)
            for call in self.facts.calls(node):
                facts = self.call_facts(call, module, env)
                summary.draws_randomness |= bool(facts.draws
                                                 or facts.unseeded_rng)
                summary.draws_unseeded |= facts.unseeded_rng is not None
                summary.appends_journal |= facts.appends
                summary.checkpoints_budget |= facts.checkpoints
                summary.hits_fault_site |= facts.fault_site
                summary.fsyncs |= facts.fsync
                summary.fsyncs_directory |= facts.dir_fsync
                if (facts.resolved is not None
                        and facts.resolved.node is not None):
                    callees.add(facts.resolved.node)
            self._summaries[node] = summary
            edges[node] = callees
        changed = True
        while changed:
            changed = False
            for caller, callees in edges.items():
                target = self._summaries[caller]
                for callee in callees:
                    callee_summary = self._summaries.get(callee)
                    if callee_summary is not None and target.merge(
                            callee_summary):
                        changed = True
