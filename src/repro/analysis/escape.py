"""Escape/alias summaries for the CONC/FORK/LEAK rule families.

The concurrency, fork-safety and taint rules need whole-package facts the
CFG and effect layers don't carry:

* **lock ownership** — which classes assign a ``threading.Lock`` (or
  RLock/Condition/Semaphore) to an instance attribute, and under which
  attribute names, so CONC001 knows which ``with self._lock:`` regions
  guard which state;
* **thread sharing** — which classes the analysis considers shared across
  threads: the declared serving-tier roots (the multi-user
  frontend, the engine, its LRU caches — mirroring how the DET family
  declares its sampler root modules), every lock-owning class, and any
  class whose instances are inferred to flow into a ``threading.Thread``
  target/args or a pool/executor payload;
* **worker submissions** — every call site that ships a callable plus a
  payload into another thread or process (``pool.map``/``submit``/
  ``apply_async``, ``Pool(initializer=…, initargs=…)``,
  ``threading.Thread(target=…, args=…)``, and the package's own
  ``run_trials``/``run_sweep`` dispatchers), with the worker function
  resolved through the call graph when possible.

The transitive fsync and unseeded-draw bits CONC003, FORK002 and ATOM001
read live in :class:`~repro.analysis.purity.EffectSummary`: one fixpoint
computes them with the other effect bits.

Like everything else in this package the pass is best-effort and
sound-by-silence: what cannot be resolved is simply not marked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .callgraph import TypeEnv
from .facts import FunctionFacts
from .modindex import ClassInfo, FunctionNode
from .purity import attr_text, dotted_callee

#: constructors whose result is a lock-ish synchronisation primitive
_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})
#: serving-tier classes shared across request threads by design.
#: Declared, like the DET family's root modules: the analysis then adds
#: every lock-owning class and every class inferred to flow into a
#: thread/worker submission.
_SHARED_ROOT_CLASSES = (
    "repro.sdb.multiuser.MultiUserFrontend",
    "repro.sdb.engine.StatisticalDatabase",
    "repro.sdb.cache.LruCache",
)
#: pool/executor fan-out methods shipping (fn, payload) to workers
_DISPATCH_METHODS = frozenset({
    "map", "imap", "imap_unordered", "starmap", "apply", "apply_async",
    "map_async", "starmap_async",
})
#: receiver-name tokens that mark a dispatch receiver as a pool
_POOLISH_RECEIVERS = ("pool", "executor")
#: package-level dispatch helpers: first arg is the worker callable
_DISPATCH_FUNCTIONS = frozenset({
    "repro.utility.parallel.run_trials",
    "repro.utility.parallel.run_sweep",
    "repro.utility.parallel.estimate_denial_curve_parallel",
})


@dataclass
class WorkerSubmission:
    """One call site shipping work to another thread or process."""

    module: str
    call: ast.Call
    kind: str                       #: pool-method | submit | thread |
    #: pool-init | dispatch-fn
    fn_expr: Optional[ast.expr]     #: the worker callable expression
    payload: List[ast.expr] = field(default_factory=list)
    fn_node: Optional[FunctionNode] = None   #: resolved worker, if any
    fn_qualname: Optional[str] = None
    enclosing: str = ""             #: qualname of the containing function
    enclosing_class: Optional[ClassInfo] = None
    enclosing_fn: Optional[FunctionNode] = None
    env: Optional[TypeEnv] = None


class EscapeEngine:
    """Computes the shared-state/worker-flow summaries for one index."""

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self.index = facts.index
        self.resolver = facts.resolver
        #: class qualname -> instance attribute names holding locks
        self.lock_attrs: Dict[str, Set[str]] = {}
        #: module name -> module-level names assigned a lock
        self.module_locks: Dict[str, Set[str]] = {}
        #: module name -> names assigned at module top level
        self.module_globals: Dict[str, Set[str]] = {}
        #: class qualnames the analysis marks as shared across threads
        self.shared_classes: Set[str] = set()
        self.submissions: List[WorkerSubmission] = []
        #: functions that run in a worker/thread
        self.worker_entries: Set[FunctionNode] = set()
        self._compute()

    # -- public queries -------------------------------------------------

    def owns_lock(self, cls: Optional[ClassInfo]) -> bool:
        return cls is not None and bool(self.lock_attrs.get(cls.qualname))

    def lock_attrs_of(self, cls: Optional[ClassInfo]) -> Set[str]:
        if cls is None:
            return set()
        return self.lock_attrs.get(cls.qualname, set())

    def is_shared_class(self, cls: Optional[ClassInfo]) -> bool:
        return cls is not None and cls.qualname in self.shared_classes

    def is_worker_entry(self, node: FunctionNode) -> bool:
        return node in self.worker_entries

    # -- construction ---------------------------------------------------

    def _compute(self) -> None:
        self._scan_module_level()
        for module, node, self_class in self.facts.functions:
            env = self.facts.param_env(module, node, self_class)
            self._scan_lock_attrs(module, node, self_class, env)
            self._scan_submissions(module, node, self_class, env)
        self._resolve_workers()
        self._mark_shared_classes()

    def _scan_module_level(self) -> None:
        for mod in self.index.modules.values():
            globs: Set[str] = set()
            locks: Set[str] = set()
            for stmt in mod.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = list(stmt.targets), stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    globs.add(target.id)
                    if (isinstance(value, ast.Call)
                            and dotted_callee(value.func, self.index,
                                              mod.name)
                            in _LOCK_FACTORIES):
                        locks.add(target.id)
            self.module_globals[mod.name] = globs
            self.module_locks[mod.name] = locks

    def _scan_lock_attrs(self, module: str, node: FunctionNode,
                         self_class: Optional[ClassInfo],
                         env: TypeEnv) -> None:
        if self_class is None or env.self_name is None:
            return
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == env.self_name):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            dotted = dotted_callee(stmt.value.func, self.index, module)
            if dotted in _LOCK_FACTORIES:
                self.lock_attrs.setdefault(self_class.qualname,
                                           set()).add(target.attr)

    # -- worker submissions --------------------------------------------

    def _scan_submissions(self, module: str, node: FunctionNode,
                          self_class: Optional[ClassInfo],
                          env: TypeEnv) -> None:
        qual = (f"{self_class.qualname}.{node.name}" if self_class
                else f"{module}.{node.name}")

        def record(call: ast.Call, kind: str, fn_expr: Optional[ast.expr],
                   payload: List[ast.expr]) -> None:
            self.submissions.append(WorkerSubmission(
                module=module, call=call, kind=kind, fn_expr=fn_expr,
                payload=payload, enclosing=qual,
                enclosing_class=self_class, enclosing_fn=node, env=env))

        for call in self.facts.calls(node):
            dotted = dotted_callee(call.func, self.index, module)
            # threading.Thread(target=fn, args=(...))
            if dotted == "threading.Thread":
                fn_expr = None
                payload: List[ast.expr] = []
                for kw in call.keywords:
                    if kw.arg == "target":
                        fn_expr = kw.value
                    elif kw.arg in ("args", "kwargs"):
                        payload.extend(self._tuple_items(kw.value))
                record(call, "thread", fn_expr, payload)
                continue
            # Pool(..., initializer=fn, initargs=(...)) — any Pool-ish ctor
            if self._is_pool_ctor(call, dotted):
                fn_expr = None
                payload = []
                for kw in call.keywords:
                    if kw.arg == "initializer":
                        fn_expr = kw.value
                    elif kw.arg == "initargs":
                        payload.extend(self._tuple_items(kw.value))
                if fn_expr is not None or payload:
                    record(call, "pool-init", fn_expr, payload)
                continue
            if isinstance(call.func, ast.Attribute):
                attr = call.func.attr
                receiver = (attr_text(call.func.value) or "").lower()
                root = receiver.rsplit(".", 1)[-1]
                poolish = any(token in root
                              for token in _POOLISH_RECEIVERS)
                if attr == "submit" and call.args:
                    record(call, "submit", call.args[0], list(call.args[1:]))
                    continue
                if attr in _DISPATCH_METHODS and poolish and call.args:
                    record(call, "pool-method", call.args[0],
                           list(call.args[1:]))
                    continue
            # run_trials(fn, ...) style package dispatchers
            resolved = None
            try:
                resolved = self.resolver.resolve_call(call.func, env)
            except RecursionError:  # pragma: no cover - pathological
                resolved = None
            qualname = resolved.qualname if resolved is not None else dotted
            if qualname in _DISPATCH_FUNCTIONS and call.args:
                record(call, "dispatch-fn", call.args[0], [])

    @staticmethod
    def _tuple_items(expr: Optional[ast.expr]) -> List[ast.expr]:
        if isinstance(expr, (ast.Tuple, ast.List)):
            return list(expr.elts)
        return [expr] if expr is not None else []

    @staticmethod
    def _is_pool_ctor(call: ast.Call, dotted: Optional[str]) -> bool:
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "Pool":
            return True
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "Pool":
            return True
        return isinstance(func, ast.Name) and func.id == "Pool"

    def _resolve_workers(self) -> None:
        for sub in self.submissions:
            fn_expr = sub.fn_expr
            if fn_expr is None or sub.env is None:
                continue
            resolved = None
            try:
                resolved = self.resolver.resolve_call(fn_expr, sub.env)
            except RecursionError:  # pragma: no cover - pathological
                resolved = None
            if resolved is not None and resolved.node is not None:
                sub.fn_node = resolved.node
                sub.fn_qualname = resolved.qualname
                self.worker_entries.add(resolved.node)

    # -- shared classes -------------------------------------------------

    def _mark_shared_classes(self) -> None:
        for qualname in _SHARED_ROOT_CLASSES:
            if qualname in self.index.classes:
                self.shared_classes.add(qualname)
        self.shared_classes.update(self.lock_attrs)
        # anything inferred to flow into a thread/worker payload is shared
        for sub in self.submissions:
            if sub.env is None:
                continue
            env = self._env_with_locals(sub.enclosing_fn, sub.env)
            for expr in sub.payload:
                for leaf in self._leaf_exprs(expr):
                    cls = self.resolver.infer_type(leaf, env)
                    if cls is not None and cls.qualname in self.index.classes:
                        self.shared_classes.add(cls.qualname)
            # a bound-method worker shares its receiver object
            if (sub.kind == "thread" and isinstance(sub.fn_expr,
                                                    ast.Attribute)):
                cls = self.resolver.infer_type(sub.fn_expr.value, env)
                if cls is not None:
                    self.shared_classes.add(cls.qualname)

    def _env_with_locals(self, node: Optional[FunctionNode],
                         env: TypeEnv) -> TypeEnv:
        """``env`` extended with ``name = Ctor()`` local bindings."""
        if node is None:
            return env
        enriched = TypeEnv(module=env.module, self_class=env.self_class)
        enriched.self_name = env.self_name
        enriched.locals.update(env.locals)
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)):
                continue
            cls = self.resolver.infer_type(stmt.value, env)
            if cls is not None:
                enriched.locals[stmt.targets[0].id] = cls
        return enriched

    @staticmethod
    def _leaf_exprs(expr: ast.expr) -> List[ast.expr]:
        """Names/attributes inside a payload expression (lists unpacked)."""
        out: List[ast.expr] = []
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute)):
                out.append(node)
        return out
