"""WAL and BUD rules: fail-closed ordering and budget checkpoints.

The serving contract (PR 2) is *answer released ⇒ record durable*: every
decision — answers **and** denials — must be appended to the audit journal
before the caller can observe it, including the cache-hit ``query_replay``
path.  These rules prove the ordering statically:

* ``WAL001`` — a release method (``audit`` / ``_audit`` / ``query`` /
  ``record_replay`` / ``apply_update``, or any method of a journal-holding
  class) contains a ``return`` that is **not dominated** by a journal
  append on every path (must-analysis over the per-function CFG; an
  exception edge out of the append itself correctly de-dominates the
  handler paths);
* ``WAL002`` — an exception handler around a journal append that can
  complete without re-raising while the function can still release a value
  (fail-open: the append failure is swallowed);
* ``BUD001`` — a loop in a sampler/chain module that does real work (a
  fault site or a randomness draw, directly or transitively) without a
  ``Budget`` checkpoint in its body, so budget exhaustion could not cancel
  it cooperatively.

Delegation is understood: in a non-journal-holding class, ``return
self.auditor.audit(query)`` passes the whole release+journal obligation
down, so it *satisfies* domination; inside a journal boundary class (one
that assigns ``self.journal`` or ``self.wal``) only real appends
count — reordering ``JournaledAuditor.audit`` is exactly what WAL001 is
for.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import TypeEnv
from .cfg import iter_calls, must_pass_before, stmt_expr_nodes
from .facts import FunctionFacts
from .findings import (
    RULE_RELEASE_BEFORE_APPEND,
    RULE_SWALLOWED_APPEND_FAILURE,
    RULE_UNCHECKPOINTED_LOOP,
    Finding,
    function_finding,
)
from .modindex import ClassInfo, FunctionNode
from .purity import APPEND_FUNCTIONS, EffectEngine

#: method names whose return values are released decisions/answers
_RELEASE_METHOD_NAMES = (
    "audit", "_audit", "query", "query_indices", "record_replay",
    "apply_update",
    # serving-tier release points: the multi-user frontend's entry
    # methods and the shard worker's request handler (the single
    # release point of a shard — every dict it returns is released)
    "ask", "refuse", "handle",
)
#: release methods that never consult an auditor (deny-before-audit
#: refusals): each value they return must be journalled right there
_REFUSAL_METHOD_NAMES = ("refuse",)
#: attributes holding the journal: delegation does not discharge the
#: append obligation inside a class that assigns one
_BOUNDARY_ATTR_NAMES = ("journal", "wal")
#: module-name tokens marking sampler/chain hot-path modules (BUD001)
_SAMPLER_MODULE_TOKENS = ("sampler", "chain", "hit_and_run")


class _OrderingChecker:
    def __init__(self, facts: FunctionFacts, engine: EffectEngine) -> None:
        self.facts = facts
        self.index = facts.index
        self.resolver = facts.resolver
        self.engine = engine
        self.findings: List[Finding] = []
        self._boundary_cache: Dict[str, bool] = {}

    # -- scope ----------------------------------------------------------

    def is_boundary_class(self, cls: Optional[ClassInfo]) -> bool:
        """Does the class (transitively) hold the journal/WAL itself?"""
        if cls is None:
            return False
        cached = self._boundary_cache.get(cls.qualname)
        if cached is not None:
            return cached
        self._boundary_cache[cls.qualname] = False  # cycle guard
        result = False
        for c in self.resolver.mro(cls):
            for method in c.methods.values():
                env = self.facts.param_env(c.module, method, c)
                for stmt in ast.walk(method):
                    if (isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Attribute)
                            and isinstance(stmt.targets[0].value, ast.Name)
                            and stmt.targets[0].value.id == env.self_name
                            and stmt.targets[0].attr
                            in _BOUNDARY_ATTR_NAMES):
                        result = True
            if result:
                break
        self._boundary_cache[cls.qualname] = result
        return result

    # -- the per-function checks ---------------------------------------

    def check_function(self, module: str, node: FunctionNode,
                       self_class: Optional[ClassInfo]) -> None:
        qualname = (f"{self_class.qualname}.{node.name}"
                    if self_class is not None
                    else f"{module}.{node.name}")
        if qualname in APPEND_FUNCTIONS:
            return  # the journal primitives themselves ARE the append
        env = self.facts.typed_env(module, node, self_class)
        boundary = self.is_boundary_class(self_class)
        in_release_scope = node.name in _RELEASE_METHOD_NAMES or boundary
        is_sampler_module = any(token in module.rsplit(".", 1)[-1]
                                for token in _SAMPLER_MODULE_TOKENS)

        if in_release_scope:
            self._check_wal(module, node, self_class, env, boundary)
        if is_sampler_module:
            self._check_bud(module, node, self_class, env)

    # -- WAL001 / WAL002 ------------------------------------------------

    def _check_wal(self, module: str, node: FunctionNode,
                   self_class: Optional[ClassInfo], env: TypeEnv,
                   boundary: bool) -> None:
        graph = self.facts.cfg(node)
        real_append_sids: Set[int] = set()
        delegate_sids: Set[int] = set()
        satisfying_sids: Set[int] = set()
        for stmt in graph.statements():
            appends = False
            delegates = False
            for call in stmt_expr_nodes(stmt, (ast.Call,)):
                facts = self.engine.merged_facts(call, module, env)
                appends |= facts.appends
                delegates |= facts.delegates_audit
            if appends:
                real_append_sids.add(stmt.sid)
                satisfying_sids.add(stmt.sid)
            if delegates and not boundary:
                # delegation hands the release+journal obligation down
                delegate_sids.add(stmt.sid)
                satisfying_sids.add(stmt.sid)
        # A named release method is this rule's business if it journals
        # anywhere OR hands the obligation to a delegate: a cache-hit
        # branch that skips both must still be caught.  A refusal has no
        # delegate to hand it to, so it is always this rule's business.
        named_release = node.name in _RELEASE_METHOD_NAMES
        if (not real_append_sids
                and not (named_release and delegate_sids)
                and node.name not in _REFUSAL_METHOD_NAMES):
            return  # nothing journals here: not this rule's business

        for ret_sid in graph.returns:
            ret = graph.nodes[ret_sid]
            ret_node = ret.node
            if (not isinstance(ret_node, ast.Return)
                    or ret_node.value is None
                    or (isinstance(ret_node.value, ast.Constant)
                        and ret_node.value.value is None)):
                continue  # returning nothing releases nothing
            if ret_sid in satisfying_sids:
                continue  # ``return journal.record_and_give(...)`` style
            if must_pass_before(graph, satisfying_sids, ret_sid):
                continue
            self._emit(
                RULE_RELEASE_BEFORE_APPEND, module, ret_node,
                sink=f"return in {node.name}()",
                message="a code path releases a value with no dominating "
                        "audit-journal append (fail-closed ordering)",
                self_class=self_class, method=node.name)

        self._check_wal002(module, node, self_class, env)

    def _check_wal002(self, module: str, node: FunctionNode,
                      self_class: Optional[ClassInfo],
                      env: TypeEnv) -> None:
        tries: List[ast.Try] = []

        def visit(current: ast.AST) -> None:
            for child in ast.iter_child_nodes(current):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(child, ast.Try):
                    tries.append(child)
                visit(child)

        visit(node)
        for stmt in tries:
            try_appends = any(
                self.engine.merged_facts(call, module, env).appends
                for body_stmt in stmt.body
                for call in iter_calls(body_stmt))
            if not try_appends:
                continue
            for handler in stmt.handlers:
                if self._handler_fails_closed(handler):
                    continue
                self._emit(
                    RULE_SWALLOWED_APPEND_FAILURE, module, handler,
                    sink=f"except handler in {node.name}()",
                    message="exception handler swallows a journal-write "
                            "failure while the function can still release "
                            "a value (re-raise or return a denial "
                            "without answering)",
                    self_class=self_class, method=node.name)

    @staticmethod
    def _handler_fails_closed(handler: ast.ExceptHandler) -> bool:
        """A handler is fine if it re-raises or returns no value."""
        for stmt in handler.body:
            if isinstance(stmt, ast.Raise):
                return True
        last = handler.body[-1] if handler.body else None
        if isinstance(last, ast.Return):
            value = last.value
            return value is None or (isinstance(value, ast.Constant)
                                     and value.value is None)
        return False

    # -- BUD001 ---------------------------------------------------------

    def _check_bud(self, module: str, node: FunctionNode,
                   self_class: Optional[ClassInfo], env: TypeEnv) -> None:
        loops: List[ast.AST] = []
        comps: List[ast.AST] = []

        def visit(current: ast.AST) -> None:
            for child in ast.iter_child_nodes(current):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                    loops.append(child)
                elif isinstance(child, (ast.ListComp, ast.SetComp,
                                        ast.GeneratorExp)):
                    comps.append(child)
                visit(child)

        visit(node)
        for loop in loops:
            does_work, checkpoints = self._body_effects(
                loop.body, module, env)
            if does_work and not checkpoints:
                self._emit(
                    RULE_UNCHECKPOINTED_LOOP, module, loop,
                    sink=f"loop in {node.name}()",
                    message="sampler/chain loop draws randomness or passes "
                            "a fault site with no Budget checkpoint in its "
                            "body (budget exhaustion cannot cancel it)",
                    self_class=self_class, method=node.name)
        for comp in comps:
            does_work, checkpoints = self._body_effects(
                [ast.Expr(value=comp.elt)] if hasattr(comp, "elt")
                else [], module, env)
            if does_work and not checkpoints:
                self._emit(
                    RULE_UNCHECKPOINTED_LOOP, module, comp,
                    sink=f"comprehension in {node.name}()",
                    message="sampler/chain comprehension draws randomness "
                            "with no Budget checkpoint per element",
                    self_class=self_class, method=node.name)

    def _body_effects(self, body: List[ast.stmt], module: str,
                      env: TypeEnv) -> Tuple[bool, bool]:
        """(does randomness/fault-site work, has a checkpoint)."""
        does_work = False
        checkpoints = False
        for stmt in body:
            for call in iter_calls(stmt):
                facts = self.engine.merged_facts(call, module, env)
                does_work |= bool(facts.draws or facts.fault_site)
                checkpoints |= facts.checkpoints
        return does_work, checkpoints

    # -- emission -------------------------------------------------------

    def _emit(self, rule: str, module: str, node: ast.AST, sink: str,
              message: str, self_class: Optional[ClassInfo],
              method: str) -> None:
        self.findings.append(function_finding(
            self.index, rule, module, node, sink, message, self_class,
            method))


def check_ordering(facts: FunctionFacts,
                   engine: EffectEngine) -> List[Finding]:
    """Run the WAL/BUD rules over every function of the package."""
    checker = _OrderingChecker(facts, engine)
    for module, node, self_class in facts.functions:
        checker.check_function(module, node, self_class)
    return checker.findings
