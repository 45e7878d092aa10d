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
from typing import List, Optional, Set, Tuple

from .escape import EscapeEngine, WorkerSubmission
from .facts import FunctionFacts
from .findings import (
    RULE_EFFECTFUL_WORKER_FN,
    RULE_HANDLE_IN_WORKER_PAYLOAD,
    RULE_NONSPAWN_CONTEXT,
    Finding,
    function_finding,
)
from .modindex import ClassInfo
from .purity import SEEDED_FACTORIES, EffectEngine, attr_text, dotted_callee

#: package classes that wrap an OS-level handle (fd, file, socket)
_HANDLE_CLASSES = ("repro.resilience.checkpoint.CheckpointedWal",)
#: factory calls binding a handle to a local
_HANDLE_FACTORIES = frozenset({"open", "io.open"})
#: factory calls binding a live RNG generator to a local (a SeedSequence
#: is a seed, not a generator)
_RNG_FACTORIES = SEEDED_FACTORIES - {"numpy.random.SeedSequence"}
#: payload name/attribute suffixes that denote a handle by convention
_HANDLE_NAME_SUFFIXES = ("wal", "journal", "handle")


class _ForkChecker:
    def __init__(self, facts: FunctionFacts, engine: EffectEngine) -> None:
        self.facts = facts
        self.index = facts.index
        self.resolver = facts.resolver
        self.engine = engine
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
            if dotted in _HANDLE_FACTORIES:
                handles.add(name)
            elif dotted in _RNG_FACTORIES:
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
        if cls is not None and cls.qualname in _HANDLE_CLASSES:
            return f"a live {cls.name} handle"
        text = attr_text(leaf)
        if text is not None and "." in text:
            tail = text.rsplit(".", 1)[-1].lower()
            if tail.endswith(_HANDLE_NAME_SUFFIXES):
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
        if summary.draws_unseeded:
            self._emit(
                RULE_EFFECTFUL_WORKER_FN, sub, sub.fn_expr or sub.call,
                sink=f"worker {name} draws unseeded randomness",
                message=f"worker function {name} (transitively) draws "
                        f"randomness not derived from an explicit seed: "
                        f"forked children replay identical streams and "
                        f"spawned children diverge from the serial path")

    # -- FORK003 --------------------------------------------------------

    def check_contexts(self, module: str, node, self_class) -> None:
        for call in self.facts.calls(node):
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
        self.findings.append(function_finding(
            self.index, rule, module, node, sink, message, self_class,
            method))


def check_forksafety(facts: FunctionFacts, engine: EffectEngine,
                     escape: EscapeEngine) -> List[Finding]:
    """Run the FORK rules: payload/worker checks per submission site,
    context checks per function."""
    checker = _ForkChecker(facts, engine)
    for sub in escape.submissions:
        checker.check_payloads(sub)
        checker.check_worker_fn(sub)
    for module, node, self_class in facts.functions:
        checker.check_contexts(module, node, self_class)
    return checker.findings
