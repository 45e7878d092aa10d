"""Shared effect summaries for the DET/WAL/BUD rule families.

Each function/method of the analysed package gets an :class:`EffectSummary`
— does it (transitively) draw randomness, append to the audit journal/WAL,
checkpoint a budget, or pass a fault-injection site?  Summaries are
computed by classifying the *primitive* effects of each call site (dotted
stdlib/numpy names expanded through the module's import aliases, plus
name-based conventions for journal/WAL/checkpoint calls) and then
propagating them to fixpoint over the best-effort call graph from
:mod:`repro.analysis.callgraph`.

The rule modules share the same per-call classifier
(:meth:`EffectEngine.call_facts`), so "what counts as an append" is defined
exactly once:

* **randomness** — module-level ``random.*`` / ``numpy.random.*`` calls,
  unseeded factory calls (``default_rng()`` / ``as_generator()`` with no
  seed), and draw methods (``integers`` / ``random`` / ``choice`` …) on
  rng-ish receivers;
* **clock/entropy** — ``time.time``, ``os.urandom``, ``uuid.uuid4``,
  ``secrets.*``, ``datetime.now`` …; ``time.monotonic`` (and the other
  monotonic clocks) is *allowed* — it is the budget layer's sanctioned
  deadline clock and never feeds a released value;
* **journal appends** — ``CheckpointedWal.append`` and the
  ``record_decision`` / ``record_replay`` / ``record_refusal`` /
  ``record_update`` calling conventions (resolved or name-based);
* **budget checkpoints** — ``BudgetScope.checkpoint`` and the
  ``checkpoint`` / ``_checkpoint`` calling conventions;
* **fault sites** — ``repro.resilience.faults.fault_site``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import ResolvedCall, Resolver, TypeEnv
from .modindex import ClassInfo, FunctionNode, PackageIndex


@dataclass
class EffectConfig:
    """Names defining the primitive effects (see module docstring)."""

    #: factories that are fine *when seeded*: flagged only when called with
    #: no seed argument (or a literal ``None`` seed)
    seeded_factories: FrozenSet[str] = frozenset({
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "random.Random",
        "repro.rng.as_generator",
        "repro.rng.spawn",
    })
    #: dotted prefixes whose *module-level* calls use hidden global RNG state
    global_rng_prefixes: Tuple[str, ...] = ("random.", "numpy.random.",
                                            "secrets.")
    #: names under those prefixes that are not draws (types, submodule refs)
    global_rng_allow: FrozenSet[str] = frozenset({
        "numpy.random.Generator",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    })
    clock_entropy: FrozenSet[str] = frozenset({
        "time.time", "time.time_ns",
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "random.SystemRandom",
    })
    #: deterministic-serving sanctioned clocks (the Budget deadline clock)
    allowed_clocks: FrozenSet[str] = frozenset({
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time",
    })
    #: ``Generator`` draw methods; a call ``<rng-ish>.<draw>(...)`` draws
    draw_methods: FrozenSet[str] = frozenset({
        "random", "integers", "choice", "uniform", "normal",
        "standard_normal", "shuffle", "permutation", "permuted",
        "exponential", "beta", "gamma", "binomial", "poisson",
        "multivariate_normal", "bytes", "bit_generator", "spawn",
    })
    #: receiver-name substrings that mark a receiver as an RNG handle
    rngish_receivers: Tuple[str, ...] = ("rng", "gen", "random")
    #: fully-resolved functions that append a decision/replay/update record
    append_functions: FrozenSet[str] = frozenset({
        "repro.resilience.checkpoint.CheckpointedWal.append",
        "repro.resilience.checkpoint.CheckpointedWal.raw_append",
        "repro.resilience.replication.Follower._apply_append",
    })
    #: method names that journal by convention, on any receiver
    append_method_names: FrozenSet[str] = frozenset({
        "record_decision", "record_replay", "record_refusal",
        "record_update",
    })
    #: ``x.append(...)`` receivers (lowercased dotted text suffix) that are
    #: write-ahead logs rather than plain lists
    append_receiver_suffixes: Tuple[str, ...] = ("wal", "journal", "log")
    checkpoint_functions: FrozenSet[str] = frozenset({
        "repro.resilience.budget.BudgetScope.checkpoint",
    })
    checkpoint_names: FrozenSet[str] = frozenset({
        "checkpoint", "_checkpoint",
    })
    fault_site_functions: FrozenSet[str] = frozenset({
        "repro.resilience.faults.fault_site",
    })
    #: method names that *delegate* the whole release+journal obligation
    delegate_method_names: FrozenSet[str] = frozenset({"audit"})


DEFAULT_EFFECTS = EffectConfig()


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


@dataclass
class EffectSummary:
    """Transitive effects of one function/method."""

    draws_randomness: bool = False
    appends_journal: bool = False
    checkpoints_budget: bool = False
    hits_fault_site: bool = False

    def merge(self, other: "EffectSummary") -> bool:
        """OR ``other`` in; True when anything changed."""
        before = (self.draws_randomness, self.appends_journal,
                  self.checkpoints_budget, self.hits_fault_site)
        self.draws_randomness |= other.draws_randomness
        self.appends_journal |= other.appends_journal
        self.checkpoints_budget |= other.checkpoints_budget
        self.hits_fault_site |= other.hits_fault_site
        return before != (self.draws_randomness, self.appends_journal,
                          self.checkpoints_budget, self.hits_fault_site)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

def iter_calls(node: ast.AST) -> List[ast.Call]:
    """Call nodes in a function body, excluding nested defs."""
    out: List[ast.Call] = []

    def visit(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            if isinstance(child, ast.Call):
                out.append(child)
            visit(child)

    visit(node)
    return out


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

    def __init__(self, index: PackageIndex, resolver: Resolver,
                 config: Optional[EffectConfig] = None) -> None:
        self.index = index
        self.resolver = resolver
        self.config = config or DEFAULT_EFFECTS
        #: id(FunctionNode) -> summary
        self._summaries: Dict[int, EffectSummary] = {}
        #: id(FunctionNode) -> callee function ids
        self._edges: Dict[int, Set[int]] = {}
        self.functions_scanned = 0
        self._compute()

    # -- per-call classification ---------------------------------------

    def call_facts(self, call: ast.Call, module: str,
                   env: TypeEnv) -> CallFacts:
        """Classify the primitive effects of one call site."""
        config = self.config
        facts = CallFacts()
        facts.dotted = dotted_callee(call.func, self.index, module)
        try:
            facts.resolved = self.resolver.resolve_call(call.func, env)
        except RecursionError:  # pragma: no cover - pathological hierarchies
            facts.resolved = None

        dotted = facts.dotted
        if dotted is not None:
            if dotted in config.seeded_factories:
                if _seed_argument_missing(call):
                    facts.unseeded_rng = dotted
            elif dotted in config.global_rng_allow:
                pass
            elif any(dotted.startswith(p)
                     for p in config.global_rng_prefixes):
                facts.unseeded_rng = dotted
                facts.draws = True
            if dotted in config.clock_entropy:
                facts.clock = dotted
            if dotted in config.fault_site_functions:
                facts.fault_site = True

        resolved = facts.resolved
        if resolved is not None:
            if resolved.qualname in config.seeded_factories:
                if _seed_argument_missing(call):
                    facts.unseeded_rng = resolved.qualname
            if resolved.qualname in config.append_functions:
                facts.appends = True
            if resolved.qualname in config.checkpoint_functions:
                facts.checkpoints = True
            if resolved.qualname in config.fault_site_functions:
                facts.fault_site = True

        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            receiver = (attr_text(call.func.value) or "").lower()
            root = receiver.rsplit(".", 1)[-1]
            if attr in config.draw_methods and any(
                    token in root for token in config.rngish_receivers):
                facts.draws = True
            if attr in config.append_method_names:
                facts.appends = True
            if attr == "append" and any(
                    root.endswith(sfx)
                    for sfx in config.append_receiver_suffixes):
                facts.appends = True
            if attr in config.checkpoint_names:
                facts.checkpoints = True
            if attr == "fault_site":
                facts.fault_site = True
            if attr in config.delegate_method_names:
                facts.delegates_audit = True
        elif isinstance(call.func, ast.Name):
            name = call.func.id
            if name in config.checkpoint_names:
                facts.checkpoints = True
            if name == "fault_site":
                facts.fault_site = True
        return facts

    def merged_facts(self, call: ast.Call, module: str,
                     env: TypeEnv) -> CallFacts:
        """Primitive facts OR the transitive summary of the resolved callee."""
        facts = self.call_facts(call, module, env)
        resolved = facts.resolved
        if resolved is not None and resolved.node is not None:
            summary = self._summaries.get(id(resolved.node))
            if summary is not None:
                facts.draws = facts.draws or summary.draws_randomness
                facts.appends = facts.appends or summary.appends_journal
                facts.checkpoints = (facts.checkpoints
                                     or summary.checkpoints_budget)
                facts.fault_site = (facts.fault_site
                                    or summary.hits_fault_site)
        return facts

    def summary_of(self, node: FunctionNode) -> EffectSummary:
        """The (transitive) summary of a function node; empty if unknown."""
        return self._summaries.get(id(node), EffectSummary())

    # -- whole-package fixpoint ----------------------------------------

    def _all_functions(self) -> List[Tuple[str, FunctionNode,
                                           Optional[ClassInfo]]]:
        out: List[Tuple[str, FunctionNode, Optional[ClassInfo]]] = []
        for mod in self.index.modules.values():
            for fn in mod.functions.values():
                out.append((mod.name, fn, None))
            for cls in mod.classes.values():
                for method in cls.methods.values():
                    out.append((mod.name, method, cls))
        return out

    def _compute(self) -> None:
        functions = self._all_functions()
        self.functions_scanned = len(functions)
        for module, node, self_class in functions:
            summary = EffectSummary()
            edges: Set[int] = set()
            env = self.resolver.param_env(module, node,
                                          self_class=self_class)
            for call in iter_calls(node):
                facts = self.call_facts(call, module, env)
                summary.draws_randomness |= bool(facts.draws
                                                 or facts.unseeded_rng)
                summary.appends_journal |= facts.appends
                summary.checkpoints_budget |= facts.checkpoints
                summary.hits_fault_site |= facts.fault_site
                if (facts.resolved is not None
                        and facts.resolved.node is not None):
                    edges.add(id(facts.resolved.node))
            self._summaries[id(node)] = summary
            self._edges[id(node)] = edges
        changed = True
        while changed:
            changed = False
            for fid, edges in self._edges.items():
                target = self._summaries[fid]
                for callee in edges:
                    callee_summary = self._summaries.get(callee)
                    if callee_summary is not None and target.merge(
                            callee_summary):
                        changed = True
