"""CONC rules: lock discipline and shared-state safety.

The serving tier is about to grow threads (asyncio serving, multicore
ensembles, replication — see ROADMAP.md), and the failure mode of a
threaded auditor is silent: a torn LRU update or an unsynchronised counter
doesn't crash, it mis-serves.  These rules make lock discipline a lint-time
contract, driven by the :mod:`repro.analysis.escape` summaries:

* ``CONC001`` — a class that owns a lock (``self._lock =
  threading.Lock()``) mutates instance state outside a ``with self._lock:``
  region.  ``__init__``/``__new__`` are exempt (no concurrent access before
  construction completes), as are ``*_locked`` helpers — the documented
  convention for "caller must hold the lock";
* ``CONC002`` — an explicit ``lock.acquire()`` that is not immediately
  followed by a ``try:``/``finally: lock.release()``: an exception between
  acquire and release deadlocks every later request.  ``with lock:`` is
  the fix and is never flagged;
* ``CONC003`` — a blocking call while a lock is held: ``os.fsync``
  (directly or transitively), pool fan-out / ``join``, ``time.sleep``, or
  randomized sampler work.  Serialising an fsync or a sampler run behind a
  serving lock turns one slow query into a global stall;
* ``CONC004`` — unsynchronised mutation of state the escape analysis marks
  as thread-shared: an attribute of a shared class that owns no lock, or a
  module global mutated from a worker/thread entry function outside a
  module-lock region.

All checks are syntactic-plus-CFG and deliberately conservative in scope:
only classes the escape pass marks (lock owners, declared serving roots,
thread-submission targets) are in play, so the rules stay quiet on plain
single-threaded code.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import TypeEnv
from .cfg import iter_calls
from .escape import EscapeEngine
from .facts import FunctionFacts
from .findings import (
    RULE_ACQUIRE_WITHOUT_RELEASE,
    RULE_BLOCKING_UNDER_LOCK,
    RULE_UNGUARDED_GUARDED_STATE,
    RULE_UNSYNCHRONIZED_SHARED_MUTATION,
    Finding,
    function_finding,
)
from .modindex import ClassInfo, FunctionNode
from .purity import FSYNC_CALLS, EffectEngine, attr_text

#: method calls that mutate their receiver in place
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "popleft", "remove",
    "setdefault", "sort", "update",
})
#: methods exempt from CONC001/CONC004: not reachable concurrently
_CONSTRUCTION_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__set_name__",
})
#: suffix marking "caller already holds the lock" helper methods
_LOCKED_HELPER_SUFFIX = "_locked"
#: dotted calls that block the calling thread
_BLOCKING_CALLS = FSYNC_CALLS | {
    "time.sleep", "subprocess.run", "subprocess.check_call",
    "subprocess.check_output", "socket.create_connection",
}
#: receiver-attribute pairs that block: pool/thread coordination
_BLOCKING_METHODS = frozenset({
    "join", "map", "starmap", "imap", "imap_unordered", "acquire", "wait",
})
#: receiver tokens for which the blocking methods apply
_BLOCKING_RECEIVERS = ("pool", "thread", "proc", "executor", "event")
#: name tokens marking a local/parameter as a lock (CONC002/CONC003)
_LOCKISH_NAME_TOKENS = ("lock", "mutex", "sem")


class _ConcurrencyChecker:
    def __init__(self, facts: FunctionFacts, engine: EffectEngine,
                 escape: EscapeEngine) -> None:
        self.facts = facts
        self.index = facts.index
        self.engine = engine
        self.escape = escape
        self.findings: List[Finding] = []

    # -- helpers --------------------------------------------------------

    def _lock_names_for(self, module: str, self_class: Optional[ClassInfo],
                        env: TypeEnv) -> Set[str]:
        """Textual receivers that denote a lock inside this function."""
        names: Set[str] = set()
        for attr in self.escape.lock_attrs_of(self_class):
            if env.self_name is not None:
                names.add(f"{env.self_name}.{attr}")
        for name in self.escape.module_locks.get(module, ()):
            names.add(name)
        return names

    def _is_lockish(self, text: Optional[str], lock_names: Set[str]) -> bool:
        if text is None:
            return False
        if text in lock_names:
            return True
        tail = text.rsplit(".", 1)[-1].lower()
        return any(token in tail for token in _LOCKISH_NAME_TOKENS)

    def _with_lock_regions(self, node: FunctionNode,
                           lock_names: Set[str]) -> Set[int]:
        """ids of statements lexically inside a ``with <lock>:`` body."""
        guarded: Set[int] = set()
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                continue
            if not any(self._is_lockish(attr_text(item.context_expr),
                                        lock_names)
                       for item in stmt.items):
                continue
            for body_stmt in stmt.body:
                for child in ast.walk(body_stmt):
                    guarded.add(id(child))
        return guarded

    def _self_mutations(self, node: FunctionNode, env: TypeEnv,
                        skip_attrs: Set[str]) -> List[Tuple[ast.AST, str]]:
        """(statement, description) pairs mutating ``self`` state.

        Covers attribute (re)binding, augmented assignment, subscript
        stores, ``del``, in-place mutating method calls on ``self``
        attributes, and the same calls through a trivial local alias
        (``cache = self._cache``).
        """
        if env.self_name is None:
            return []
        self_name = env.self_name
        aliases: Dict[str, str] = {}
        for stmt in ast.walk(node):
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Attribute)
                    and isinstance(stmt.value.value, ast.Name)
                    and stmt.value.value.id == self_name):
                aliases[stmt.targets[0].id] = stmt.value.attr

        def self_attr_of(expr: ast.expr) -> Optional[str]:
            """The self attribute an expression is rooted in, if any."""
            while isinstance(expr, ast.Subscript):
                expr = expr.value
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == self_name):
                return expr.attr
            if isinstance(expr, ast.Name) and expr.id in aliases:
                return aliases[expr.id]
            return None

        out: List[Tuple[ast.AST, str]] = []
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Delete):
                targets = list(stmt.targets)
            for target in targets:
                # plain rebinding of a local alias is not a mutation
                if isinstance(target, ast.Name):
                    continue
                attr = self_attr_of(target)
                if attr is not None and attr not in skip_attrs:
                    out.append((stmt, f"write to self.{attr}"))
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr
                    in _MUTATING_METHODS):
                attr = self_attr_of(stmt.value.func.value)
                if attr is not None and attr not in skip_attrs:
                    out.append((stmt,
                                f"self.{attr}.{stmt.value.func.attr}(...)"))
        return out

    def _is_exempt_method(self, node: FunctionNode) -> bool:
        if node.name in _CONSTRUCTION_METHODS:
            return True
        if node.name.endswith(_LOCKED_HELPER_SUFFIX):
            return True
        for deco in getattr(node, "decorator_list", ()):
            text = deco.id if isinstance(deco, ast.Name) else (
                deco.attr if isinstance(deco, ast.Attribute) else None)
            if text in ("staticmethod", "classmethod"):
                return True
        return False

    # -- CONC001 --------------------------------------------------------

    def check_conc001(self, module: str, node: FunctionNode,
                      self_class: Optional[ClassInfo],
                      env: TypeEnv) -> None:
        if not self.escape.owns_lock(self_class):
            return
        if self._is_exempt_method(node):
            return
        lock_attrs = self.escape.lock_attrs_of(self_class)
        lock_names = self._lock_names_for(module, self_class, env)
        guarded = self._with_lock_regions(node, lock_names)
        for stmt, what in self._self_mutations(node, env, lock_attrs):
            if id(stmt) in guarded:
                continue
            self._emit(
                RULE_UNGUARDED_GUARDED_STATE, module, stmt,
                sink=f"{what} in {node.name}()",
                message=f"{self_class.name} owns a lock but mutates "
                        f"instance state outside 'with self."
                        f"{sorted(lock_attrs)[0]}:' ({what}); either "
                        f"guard the mutation or rename the helper "
                        f"*{_LOCKED_HELPER_SUFFIX} to document "
                        f"the caller-holds-lock contract",
                self_class=self_class, method=node.name)

    # -- CONC002 --------------------------------------------------------

    def check_conc002(self, module: str, node: FunctionNode,
                      self_class: Optional[ClassInfo],
                      env: TypeEnv) -> None:
        lock_names = self._lock_names_for(module, self_class, env)

        def acquire_receiver(stmt: ast.stmt) -> Optional[str]:
            value = None
            if isinstance(stmt, ast.Expr):
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "acquire"):
                receiver = attr_text(value.func.value)
                if self._is_lockish(receiver, lock_names):
                    return receiver
            return None

        def releases(body: List[ast.stmt], receiver: str) -> bool:
            for stmt in body:
                for call in iter_calls(stmt):
                    if (isinstance(call.func, ast.Attribute)
                            and call.func.attr == "release"
                            and attr_text(call.func.value) == receiver):
                        return True
            return False

        def scan(body: List[ast.stmt]) -> None:
            for i, stmt in enumerate(body):
                receiver = acquire_receiver(stmt)
                if receiver is not None:
                    follower = body[i + 1] if i + 1 < len(body) else None
                    ok = (isinstance(follower, ast.Try)
                          and bool(follower.finalbody)
                          and releases(follower.finalbody, receiver))
                    if not ok:
                        self._emit(
                            RULE_ACQUIRE_WITHOUT_RELEASE, module, stmt,
                            sink=f"{receiver}.acquire() in {node.name}()",
                            message=f"{receiver}.acquire() is not followed "
                                    f"by try/finally releasing it: an "
                                    f"exception here holds the lock "
                                    f"forever (prefer 'with {receiver}:')",
                            self_class=self_class, method=node.name)
                for child_body in self._child_bodies(stmt):
                    scan(child_body)

        scan(list(node.body))

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        out: List[List[ast.stmt]] = []
        for fld in ("body", "orelse", "finalbody"):
            value = getattr(stmt, fld, None)
            if isinstance(value, list) and value \
                    and isinstance(value[0], ast.stmt):
                out.append(value)
        for handler in getattr(stmt, "handlers", ()):
            out.append(handler.body)
        return out

    # -- CONC003 --------------------------------------------------------

    def check_conc003(self, module: str, node: FunctionNode,
                      self_class: Optional[ClassInfo],
                      env: TypeEnv) -> None:
        lock_names = self._lock_names_for(module, self_class, env)
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                continue
            if not any(self._is_lockish(attr_text(item.context_expr),
                                        lock_names)
                       for item in stmt.items):
                continue
            for body_stmt in stmt.body:
                for call in iter_calls(body_stmt):
                    why = self._blocking_reason(call, module, env)
                    if why is None:
                        continue
                    self._emit(
                        RULE_BLOCKING_UNDER_LOCK, module, call,
                        sink=f"{why} under lock in {node.name}()",
                        message=f"blocking call while holding a lock "
                                f"({why}): one slow caller stalls every "
                                f"thread contending for this lock",
                        self_class=self_class, method=node.name)

    def _blocking_reason(self, call: ast.Call, module: str,
                         env: TypeEnv) -> Optional[str]:
        facts = self.engine.call_facts(call, module, env)
        if facts.dotted in _BLOCKING_CALLS:
            return facts.dotted
        if isinstance(call.func, ast.Attribute):
            receiver = (attr_text(call.func.value) or "").lower()
            root = receiver.rsplit(".", 1)[-1]
            if (call.func.attr in _BLOCKING_METHODS
                    and any(token in root for token in _BLOCKING_RECEIVERS)):
                return f"{receiver}.{call.func.attr}()"
        resolved = facts.resolved
        if resolved is not None and resolved.node is not None:
            summary = self.engine.summary_of(resolved.node)
            if summary.fsyncs:
                return f"{resolved.qualname} (transitive fsync)"
            if summary.draws_randomness:
                return f"{resolved.qualname} (sampler work)"
        return None

    # -- CONC004 --------------------------------------------------------

    def check_conc004_shared(self, module: str, node: FunctionNode,
                             self_class: Optional[ClassInfo],
                             env: TypeEnv) -> None:
        """Mutation of a shared class that owns no lock at all."""
        if self_class is None or not self.escape.is_shared_class(self_class):
            return
        if self.escape.owns_lock(self_class):
            return  # CONC001's business
        if self._is_exempt_method(node):
            return
        mutations = self._self_mutations(node, env, set())
        if not mutations:
            return
        stmt, what = mutations[0]
        self._emit(
            RULE_UNSYNCHRONIZED_SHARED_MUTATION, module, stmt,
            sink=f"{what} in {node.name}()",
            message=f"{self_class.name} is shared across threads (escape "
                    f"analysis) but owns no lock; {node.name}() mutates "
                    f"instance state ({what}) — add an internal "
                    f"threading.Lock and guard every read-modify-write",
            self_class=self_class, method=node.name)

    def check_conc004_worker_globals(self, module: str, node: FunctionNode,
                                     self_class: Optional[ClassInfo],
                                     env: TypeEnv) -> None:
        """Module-global mutation from a worker/thread entry function."""
        if not self.escape.is_worker_entry(node):
            return
        globs = self.escape.module_globals.get(module, set())
        declared: Set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                declared.update(stmt.names)
        lock_names = set(self.escape.module_locks.get(module, set()))
        guarded = self._with_lock_regions(node, lock_names)

        def global_target(expr: ast.expr) -> Optional[str]:
            while isinstance(expr, ast.Subscript):
                expr = expr.value
            if isinstance(expr, ast.Name) and (expr.id in declared
                                               or expr.id in globs):
                return expr.id
            return None

        for stmt in ast.walk(node):
            if id(stmt) in guarded:
                continue
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Delete):
                targets = list(stmt.targets)
            hits = []
            for target in targets:
                # a bare local rebind is fine; a declared-global rebind
                # or any subscript store into a module global is not
                if isinstance(target, ast.Name) and target.id not in declared:
                    continue
                name = global_target(target)
                if name is not None:
                    hits.append(name)
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr
                    in _MUTATING_METHODS):
                name = global_target(stmt.value.func.value)
                if name is not None:
                    hits.append(name)
            for name in hits:
                self._emit(
                    RULE_UNSYNCHRONIZED_SHARED_MUTATION, module, stmt,
                    sink=f"global {name} mutated in {node.name}()",
                    message=f"worker/thread entry {node.name}() mutates "
                            f"module global {name!r} with no lock held; "
                            f"concurrent workers in the same process "
                            f"race on it",
                    self_class=self_class, method=node.name)

    # -- driver ---------------------------------------------------------

    def check_function(self, module: str, node: FunctionNode,
                       self_class: Optional[ClassInfo]) -> None:
        env = self.facts.param_env(module, node, self_class)
        self.check_conc001(module, node, self_class, env)
        self.check_conc002(module, node, self_class, env)
        self.check_conc003(module, node, self_class, env)
        self.check_conc004_shared(module, node, self_class, env)
        self.check_conc004_worker_globals(module, node, self_class, env)

    def _emit(self, rule: str, module: str, node: ast.AST, sink: str,
              message: str, self_class: Optional[ClassInfo],
              method: str) -> None:
        self.findings.append(function_finding(
            self.index, rule, module, node, sink, message, self_class,
            method))


def check_concurrency(facts: FunctionFacts, engine: EffectEngine,
                      escape: EscapeEngine) -> List[Finding]:
    """Run the CONC rules over every function of the package."""
    checker = _ConcurrencyChecker(facts, engine, escape)
    for module, node, self_class in facts.functions:
        checker.check_function(module, node, self_class)
    return checker.findings
