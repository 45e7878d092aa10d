"""FORK rules: process/fork safety for the experiment fan-out paths.

``repro.utility.parallel`` ships trials across worker processes; the
ROADMAP's multicore ensembles will ship sampler chains the same way.  The
classic fork bugs are all about *duplicated state*: a forked child inherits
open file descriptors (two processes appending to one WAL corrupt it), a
copied ``np.random.Generator`` (every child draws the same stream), and
held locks (instant deadlock).  These rules reject the patterns statically,
using the worker-submission sites collected by
:mod:`repro.analysis.escape`:

* ``FORK001`` — a live WAL/journal/file handle or RNG generator flows into
  a worker payload (``Pool.map`` iterable, ``submit``/``Thread`` args,
  ``initargs``).  Workers must *reconstruct* handles and derive generators
  from integer seeds, never receive them;
* ``FORK002`` — the worker function itself (resolved through the call
  graph) has an effect summary that appends to the audit journal or draws
  randomness not derived from an explicit seed: per-process copies of the
  journal or the RNG stream silently diverge;
* ``FORK003`` — multiprocessing without an explicit ``spawn`` context:
  bare ``multiprocessing.Pool``/``Process``, ``get_context()`` with no or
  a non-spawn argument, or ``set_start_method`` to fork.  On Linux the
  default start method is ``fork``, which duplicates every lock and
  handle in the parent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from .callgraph import Resolver
from .escape import EscapeEngine, WorkerSubmission
from .findings import (
    RULE_EFFECTFUL_WORKER_FN,
    RULE_HANDLE_IN_WORKER_PAYLOAD,
    RULE_NONSPAWN_CONTEXT,
    Finding,
    Frame,
)
from .modindex import ClassInfo, PackageIndex
from .purity import EffectEngine, attr_text, dotted_callee, iter_calls


@dataclass
class ForkSafetyConfig:
    """Vocabulary of the FORK rules."""

    #: package classes that wrap an OS-level handle (fd, file, socket)
    handle_classes: Tuple[str, ...] = (
        "repro.persistence.AuditJournal",
        "repro.resilience.checkpoint.CheckpointedWal",
    )
    #: factory calls binding a handle to a local
    handle_factories: FrozenSet[str] = frozenset({"open", "io.open"})
    #: factory calls binding a live RNG generator to a local
    rng_factories: FrozenSet[str] = frozenset({
        "numpy.random.default_rng", "numpy.random.RandomState",
        "random.Random", "repro.rng.as_generator", "repro.rng.spawn",
    })
    #: payload name/attribute suffixes that denote a handle by convention
    handle_name_suffixes: Tuple[str, ...] = ("wal", "journal", "handle")


DEFAULT_FORKSAFETY_CONFIG = ForkSafetyConfig()


class _ForkChecker:
    def __init__(self, index: PackageIndex, resolver: Resolver,
                 engine: EffectEngine, escape: EscapeEngine,
                 config: ForkSafetyConfig) -> None:
        self.index = index
        self.resolver = resolver
        self.engine = engine
        self.escape = escape
        self.config = config
        self.findings: List[Finding] = []

    # -- FORK001 --------------------------------------------------------

    def check_payloads(self, sub: WorkerSubmission) -> None:
        if sub.env is None:
            return
        handle_locals, rng_locals = self._tracked_locals(sub)
        for expr in sub.payload:
            for leaf in EscapeEngine._leaf_exprs(expr):
                why = self._unsafe_reason(leaf, sub, handle_locals,
                                          rng_locals)
                if why is None:
                    continue
                self._emit(
                    RULE_HANDLE_IN_WORKER_PAYLOAD, sub, leaf,
                    sink=f"{why} in {sub.kind} payload",
                    message=f"worker payload captures {why}: forked/"
                            f"spawned workers duplicate its state "
                            f"(pass integer seeds or paths and "
                            f"reconstruct inside the worker)")

    def _tracked_locals(self, sub: WorkerSubmission
                        ) -> Tuple[Set[str], Set[str]]:
        """Locals of the enclosing function bound to handles/generators."""
        handles: Set[str] = set()
        rngs: Set[str] = set()
        node = sub.enclosing_fn
        if node is None:
            return handles, rngs
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)):
                continue
            name = stmt.targets[0].id
            call = stmt.value
            dotted = dotted_callee(call.func, self.index, sub.module)
            if dotted is None and isinstance(call.func, ast.Name):
                dotted = call.func.id
            if dotted in self.config.handle_factories:
                handles.add(name)
            elif dotted in self.config.rng_factories:
                rngs.add(name)
        return handles, rngs

    def _unsafe_reason(self, leaf: ast.expr, sub: WorkerSubmission,
                       handle_locals: Set[str],
                       rng_locals: Set[str]) -> Optional[str]:
        if isinstance(leaf, ast.Name):
            if leaf.id in handle_locals:
                return f"open handle {leaf.id!r}"
            if leaf.id in rng_locals:
                return f"live RNG generator {leaf.id!r}"
        cls = self.resolver.infer_type(leaf, sub.env)
        if cls is not None and cls.qualname in self.config.handle_classes:
            return f"a live {cls.name} handle"
        text = attr_text(leaf)
        if text is not None and "." in text:
            tail = text.rsplit(".", 1)[-1].lower()
            if any(tail.endswith(sfx)
                   for sfx in self.config.handle_name_suffixes):
                return f"handle-like attribute {text!r}"
        return None

    # -- FORK002 --------------------------------------------------------

    def check_worker_fn(self, sub: WorkerSubmission) -> None:
        if sub.fn_node is None:
            return
        summary = self.engine.summary_of(sub.fn_node)
        name = sub.fn_qualname or "<worker>"
        if summary.appends_journal:
            self._emit(
                RULE_EFFECTFUL_WORKER_FN, sub, sub.fn_expr or sub.call,
                sink=f"worker {name} appends to the journal",
                message=f"worker function {name} (transitively) appends "
                        f"to the audit journal/WAL: per-process handles "
                        f"interleave appends and corrupt the log — "
                        f"journal in the parent, return results instead")
        if self.escape.draws_unseeded(sub.fn_node):
            self._emit(
                RULE_EFFECTFUL_WORKER_FN, sub, sub.fn_expr or sub.call,
                sink=f"worker {name} draws unseeded randomness",
                message=f"worker function {name} (transitively) draws "
                        f"randomness not derived from an explicit seed: "
                        f"forked children replay identical streams and "
                        f"spawned children diverge from the serial path")

    # -- FORK003 --------------------------------------------------------

    def check_contexts(self, module: str, node, self_class) -> None:
        env = self.resolver.param_env(module, node, self_class=self_class)
        for call in iter_calls(node):
            dotted = dotted_callee(call.func, self.index, module)
            attr = call.func.attr if isinstance(call.func, ast.Attribute) \
                else None
            if dotted in ("multiprocessing.Pool", "multiprocessing.Process"):
                self._emit_at(
                    RULE_NONSPAWN_CONTEXT, module, call,
                    sink=f"{dotted} in {node.name}()",
                    message=f"{dotted} uses the platform default start "
                            f"method (fork on Linux): use "
                            f"multiprocessing.get_context('spawn')",
                    self_class=self_class, method=node.name)
                continue
            if (dotted == "multiprocessing.get_context"
                    or attr == "get_context"):
                method = self._start_method_arg(call)
                if method == "spawn":
                    continue
                shown = "no argument" if method is None else repr(method)
                self._emit_at(
                    RULE_NONSPAWN_CONTEXT, module, call,
                    sink=f"get_context({shown}) in {node.name}()",
                    message=f"get_context({shown}) selects a non-spawn "
                            f"start method: forked children inherit "
                            f"locks, RNG state, and open WAL handles",
                    self_class=self_class, method=node.name)
                continue
            if attr == "set_start_method":
                method = self._start_method_arg(call)
                if method != "spawn":
                    self._emit_at(
                        RULE_NONSPAWN_CONTEXT, module, call,
                        sink=f"set_start_method in {node.name}()",
                        message="set_start_method to a non-spawn method: "
                                "forked children inherit locks, RNG "
                                "state, and open WAL handles",
                        self_class=self_class, method=node.name)

    @staticmethod
    def _start_method_arg(call: ast.Call) -> Optional[str]:
        if call.args and isinstance(call.args[0], ast.Constant):
            value = call.args[0].value
            return value if isinstance(value, str) else None
        for kw in call.keywords:
            if kw.arg == "method" and isinstance(kw.value, ast.Constant):
                value = kw.value.value
                return value if isinstance(value, str) else None
        return None

    # -- emission -------------------------------------------------------

    def _emit(self, rule: str, sub: WorkerSubmission, node: ast.AST,
              sink: str, message: str) -> None:
        method = sub.enclosing.rsplit(".", 1)[-1]
        self._emit_at(rule, sub.module, node, sink, message,
                      self_class=sub.enclosing_class, method=method)

    def _emit_at(self, rule: str, module: str, node: ast.AST, sink: str,
                 message: str, self_class: Optional[ClassInfo],
                 method: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        pragma = self.index.pragma_for(module, rule, line)
        entry_class = self_class.name if self_class is not None else ""
        frame = Frame(
            function=f"{entry_class}.{method}" if entry_class else method,
            module=module,
            file=self.index.relpath(module),
            line=line,
        )
        self.findings.append(Finding(
            rule=rule,
            message=message,
            file=self.index.relpath(module),
            line=line,
            col=col,
            entry_class=entry_class,
            entry_method=method,
            entry_module=module,
            sink=sink,
            chain=(frame,),
            pragma_reason=pragma,
        ))


def check_forksafety(index: PackageIndex, resolver: Resolver,
                     engine: EffectEngine, escape: EscapeEngine,
                     config: Optional[ForkSafetyConfig] = None,
                     rules: Optional[Set[str]] = None,
                     ) -> Tuple[List[Finding], int]:
    """Run the FORK rules: payload/worker checks per submission site,
    context checks per function."""
    config = config or DEFAULT_FORKSAFETY_CONFIG
    checker = _ForkChecker(index, resolver, engine, escape, config)
    for sub in escape.submissions:
        checker.check_payloads(sub)
        checker.check_worker_fn(sub)
    checked = 0
    for mod in sorted(index.modules.values(), key=lambda m: m.name):
        for node in mod.functions.values():
            checker.check_contexts(mod.name, node, None)
            checked += 1
        for cls in mod.classes.values():
            for node in cls.methods.values():
                checker.check_contexts(mod.name, node, cls)
                checked += 1
    findings = checker.findings
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings, checked
