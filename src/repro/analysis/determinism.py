"""DET rules: bitwise determinism of decision and sampler paths.

The serving layer's replay story (golden decision suites, WAL replay,
vectorized-vs-reference differential tests) only holds if every value that
can reach a released answer is a pure function of the seed and the query
history.  These rules statically flag the classic ways that breaks, for
all code reachable from the auditor decision entry points, the sampler hot
paths (``*Sampler`` / ``*Chain`` classes), and the CLI/parallel seeding
helpers:

* ``DET001`` — unseeded or global-state RNG: ``random.*`` /
  ``numpy.random.<fn>`` module-level calls, ``default_rng()`` /
  ``as_generator()`` with no seed argument;
* ``DET002`` — wall-clock or entropy reads (``time.time``, ``os.urandom``,
  ``uuid4``, ``datetime.now``); ``time.monotonic`` is allowed — it is the
  budget deadline clock and never feeds a released value;
* ``DET003`` — iteration over a ``set``/``dict`` whose order can reach
  released answers or RNG consumption order (loop bodies that draw, return,
  or accumulate; order-sensitive builtins like ``list()`` over a set);
  iterating into an order-insensitive consumer (``sorted``, ``set``,
  ``min``/``max``, ``any``/``all``) is fine;
* ``DET004`` — non-canonical float accumulation: ``sum()`` over an
  unordered collection (``math.fsum`` or ``sum(sorted(...))`` are the
  canonical spellings).

Container kinds are tracked flow-sensitively over the per-function CFG, so
``xs = sorted(s)`` launders a set into an ordered list while a rebind back
to a set re-arms the rule on that path only.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import TypeEnv
from .cfg import CFG, StmtNode, flow_locals, stmt_expr_nodes
from .facts import FunctionFacts
from .findings import (
    RULE_UNORDERED_ACCUMULATION,
    RULE_UNORDERED_ITERATION,
    RULE_UNSEEDED_RNG,
    RULE_WALLCLOCK_READ,
    Finding,
    Frame,
)
from .modindex import ClassInfo, FunctionNode
from .purity import EffectEngine
from .simulatability import (
    ENTRY_METHODS,
    MAX_DEPTH,
    _is_abstract_stub,
    find_auditor_classes,
)

#: builtins that consume an iterable without exposing its order
_ORDER_INSENSITIVE = frozenset({
    "sorted", "set", "frozenset", "min", "max", "any", "all", "len",
})

#: builtins that materialise/expose iteration order
_ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate", "iter",
                              "reversed"})

_SET_ANNOTATIONS = ("FrozenSet", "Set", "AbstractSet", "MutableSet",
                    "frozenset", "set", "typing.FrozenSet", "typing.Set")
_DICT_ANNOTATIONS = ("Dict", "dict", "Mapping", "MutableMapping",
                     "DefaultDict", "defaultdict", "Counter",
                     "typing.Dict", "typing.Mapping")


#: class names whose methods are sampler hot paths
_SAMPLER_CLASS = re.compile(r".*(Sampler|Chain)$")
#: modules whose top-level functions are walked as roots
_ROOT_MODULES = (
    "repro.cli",
    "repro.utility.parallel",
    "repro.audit_empirical.cli",
    "repro.audit_empirical.estimator",
    "repro.audit_empirical.harness",
)


def annotation_kind(text: Optional[str]) -> Optional[str]:
    """``"set"``/``"dict"`` when an annotation names an unordered type."""
    if not text:
        return None
    text = text.strip().strip("\"'")
    if text.startswith("Optional[") and text.endswith("]"):
        text = text[len("Optional["):-1].strip()
    head = text.split("[", 1)[0].strip()
    if head in _SET_ANNOTATIONS:
        return "set"
    if head in _DICT_ANNOTATIONS:
        return "dict"
    return None


@dataclass
class _Root:
    module: str
    node: FunctionNode
    self_class: Optional[ClassInfo]
    entry_class: str
    entry_method: str


def _collect_roots(facts: FunctionFacts) -> List[_Root]:
    index, resolver = facts.index, facts.resolver
    roots: List[_Root] = []
    seen: Set[Tuple[int, str]] = set()

    def add(module: str, node: FunctionNode,
            self_class: Optional[ClassInfo], entry_class: str,
            entry_method: str) -> None:
        key = (id(node), entry_class)
        if key in seen or _is_abstract_stub(node):
            return
        seen.add(key)
        roots.append(_Root(module, node, self_class, entry_class,
                           entry_method))

    for cls in find_auditor_classes(index, resolver):
        for entry_name in ENTRY_METHODS:
            hit = resolver.find_method(cls, entry_name)
            if hit is not None:
                defining, node = hit
                add(defining.module, node, cls, cls.name, entry_name)

    for cls in sorted(index.classes.values(), key=lambda c: c.qualname):
        if not _SAMPLER_CLASS.match(cls.name):
            continue
        for name, node in sorted(cls.methods.items()):
            if name.startswith("__") and name != "__init__":
                continue
            add(cls.module, node, cls, cls.name, name)

    for mod_name in _ROOT_MODULES:
        mod = index.modules.get(mod_name)
        if mod is None:
            continue
        for name, node in sorted(mod.functions.items()):
            add(mod_name, node, None, "", name)
    return roots


class _DetWalker:
    """Reachability walk + per-function DET scans."""

    def __init__(self, facts: FunctionFacts, engine: EffectEngine) -> None:
        self.facts = facts
        self.index = facts.index
        self.resolver = facts.resolver
        self.engine = engine
        self.findings: List[Finding] = []
        self._visited: Set[Tuple[int, Optional[str]]] = set()
        self._emitted: Set[Tuple] = set()

    # -- walking --------------------------------------------------------

    def walk_root(self, root: _Root) -> None:
        key = (id(root.node),
               root.self_class.qualname if root.self_class else None)
        if key in self._visited:
            return
        entry_frame = Frame(
            function=(f"{root.entry_class}.{root.entry_method}"
                      if root.entry_class else root.entry_method),
            module=root.module,
            file=self.index.relpath(root.module),
            line=root.node.lineno,
        )
        self._visited.add(key)
        self._walk(root.module, root.node, root.self_class, root,
                   chain=(entry_frame,), depth=0)

    def _walk(self, module: str, node: FunctionNode,
              self_class: Optional[ClassInfo], root: _Root,
              chain: Tuple[Frame, ...], depth: int) -> None:
        env = self.facts.typed_env(module, node, self_class)
        graph = self.facts.cfg(node)
        states = self._flow_kinds(graph, module, node, env)
        for stmt in graph.statements():
            state = states.get(stmt.sid, {})
            self._scan_stmt(stmt, state, module, env, root, chain)
            for call in stmt_expr_nodes(stmt, (ast.Call,)):
                self._recurse(call, module, env, root, chain, depth)

    def _recurse(self, call: ast.Call, module: str, env: TypeEnv,
                 root: _Root, chain: Tuple[Frame, ...], depth: int) -> None:
        if depth >= MAX_DEPTH:
            return
        resolved = self.resolver.resolve_call(call.func, env)
        if resolved is None or resolved.node is None \
                or resolved.module is None:
            return
        dispatch = resolved.self_class
        key = (id(resolved.node),
               dispatch.qualname if dispatch is not None else None)
        if key in self._visited:
            return
        self._visited.add(key)
        frame = Frame(function=resolved.qualname, module=module,
                      file=self.index.relpath(module), line=call.lineno)
        self._walk(resolved.module, resolved.node, dispatch, root,
                   chain + (frame,), depth + 1)

    # -- container-kind flow -------------------------------------------

    def _param_kinds(self, module: str, node: FunctionNode) -> Dict[str, str]:
        kinds: Dict[str, str] = {}
        args = node.args
        for param in (list(args.posonlyargs) + list(args.args)
                      + list(args.kwonlyargs)):
            if param.annotation is None:
                continue
            try:
                text = ast.unparse(param.annotation)
            except Exception:  # pragma: no cover
                continue
            kind = annotation_kind(text)
            if kind is not None:
                kinds[param.arg] = kind
        return kinds

    def classify(self, expr: Optional[ast.expr], state: Dict[str, object],
                 env: TypeEnv) -> Optional[str]:
        """``"set"``/``"dict"`` when ``expr`` is statically unordered."""
        if expr is None:
            return None
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(expr, ast.Name):
            kind = state.get(expr.id)
            return kind if isinstance(kind, str) else None
        if isinstance(expr, ast.IfExp):
            body = self.classify(expr.body, state, env)
            orelse = self.classify(expr.orelse, state, env)
            return body if body == orelse else None
        if isinstance(expr, ast.Attribute):
            receiver = self.resolver.infer_type(expr.value, env)
            if receiver is not None:
                for cls in self.resolver.mro(receiver):
                    text = cls.attr_types.get(expr.attr)
                    if text is not None:
                        return annotation_kind(text)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return "set"
                if func.id == "dict":
                    return "dict"
                if func.id in ("sorted", "list", "tuple"):
                    return None
            if isinstance(func, ast.Attribute):
                if func.attr in ("keys", "values", "items"):
                    base = self.classify(func.value, state, env)
                    return "dict" if base == "dict" else None
                if func.attr in ("union", "intersection", "difference",
                                 "symmetric_difference", "copy"):
                    base = self.classify(func.value, state, env)
                    if base is not None:
                        return base
            resolved = self.resolver.resolve_call(func, env)
            if resolved is not None and resolved.node is not None:
                returns = resolved.node.returns
                if returns is not None:
                    try:
                        return annotation_kind(ast.unparse(returns))
                    except Exception:  # pragma: no cover
                        return None
            return None
        return None

    def _flow_kinds(self, graph: CFG, module: str, node: FunctionNode,
                    env: TypeEnv) -> Dict[int, Dict[str, object]]:
        init: Dict[str, object] = dict(self._param_kinds(module, node))

        def transfer(stmt: StmtNode,
                     state: Dict[str, object]) -> Dict[str, object]:
            inner = stmt.node
            if (isinstance(inner, ast.Assign) and len(inner.targets) == 1
                    and isinstance(inner.targets[0], ast.Name)):
                kind = self.classify(inner.value, state, env)
                if kind is not None:
                    state[inner.targets[0].id] = kind
                else:
                    state.pop(inner.targets[0].id, None)
            elif (isinstance(inner, ast.AnnAssign)
                    and isinstance(inner.target, ast.Name)):
                try:
                    text = ast.unparse(inner.annotation)
                except Exception:  # pragma: no cover
                    text = None
                kind = annotation_kind(text) or self.classify(
                    inner.value, state, env)
                if kind is not None:
                    state[inner.target.id] = kind
                else:
                    state.pop(inner.target.id, None)
            elif isinstance(inner, (ast.For, ast.AsyncFor)) and stmt.is_header:
                for name_node in ast.walk(inner.target):
                    if isinstance(name_node, ast.Name):
                        state.pop(name_node.id, None)
            return state

        return flow_locals(graph, init, transfer)

    # -- per-statement rule scans --------------------------------------

    def _scan_stmt(self, stmt: StmtNode, state: Dict[str, object],
                   module: str, env: TypeEnv, root: _Root,
                   chain: Tuple[Frame, ...]) -> None:
        calls = stmt_expr_nodes(stmt, (ast.Call,))
        exempt_comps: Set[int] = set()

        for call in calls:
            facts = self.engine.call_facts(call, module, env)
            if facts.unseeded_rng is not None:
                self._emit(RULE_UNSEEDED_RNG, module, call,
                           sink=f"call to {facts.unseeded_rng}",
                           message="unseeded/global RNG breaks bitwise "
                                   f"replay: {facts.unseeded_rng}()",
                           root=root, chain=chain)
            if facts.clock is not None:
                self._emit(RULE_WALLCLOCK_READ, module, call,
                           sink=f"call to {facts.clock}",
                           message="wall-clock/entropy read on a "
                                   f"deterministic path: {facts.clock}()",
                           root=root, chain=chain)

            func = call.func
            if isinstance(func, ast.Name):
                comp_args = [a for a in call.args
                             if isinstance(a, (ast.ListComp,
                                               ast.GeneratorExp))]
                if func.id in _ORDER_INSENSITIVE or func.id == "sum":
                    for comp in comp_args:
                        exempt_comps.add(id(comp))
                if func.id == "sum" and call.args:
                    if self._sum_is_unordered(call.args[0], state, env):
                        self._emit(
                            RULE_UNORDERED_ACCUMULATION, module, call,
                            sink="sum() over unordered collection",
                            message="float accumulation order is not "
                                    "canonical: sum() over a set/dict "
                                    "(use sum(sorted(...)) or math.fsum)",
                            root=root, chain=chain)
                elif (func.id in _ORDER_SENSITIVE and len(call.args) == 1
                        and self.classify(call.args[0], state, env)
                        is not None):
                    self._emit(
                        RULE_UNORDERED_ITERATION, module, call,
                        sink=f"{func.id}(<set/dict>)",
                        message=f"{func.id}() materialises set/dict "
                                "iteration order on a deterministic path",
                        root=root, chain=chain)

        # for-loops over unordered iterables with order-relevant bodies
        inner = stmt.node
        if (isinstance(inner, (ast.For, ast.AsyncFor)) and stmt.is_header
                and self.classify(inner.iter, state, env) is not None
                and self._loop_body_is_order_relevant(inner, module, env)):
            self._emit(
                RULE_UNORDERED_ITERATION, module, inner,
                sink="for-loop over set/dict",
                message="loop over a set/dict feeds released answers or "
                        "RNG consumption order (iterate sorted(...) "
                        "instead)",
                root=root, chain=chain)

        # bare comprehensions over unordered iterables
        for comp in stmt_expr_nodes(stmt, (ast.ListComp, ast.GeneratorExp)):
            if id(comp) in exempt_comps:
                continue
            if any(self.classify(gen.iter, state, env) is not None
                   for gen in comp.generators):
                self._emit(
                    RULE_UNORDERED_ITERATION, module, comp,
                    sink="comprehension over set/dict",
                    message="comprehension materialises set/dict iteration "
                            "order on a deterministic path",
                    root=root, chain=chain)

    def _sum_is_unordered(self, arg: ast.expr, state: Dict[str, object],
                          env: TypeEnv) -> bool:
        if self.classify(arg, state, env) is not None:
            return True
        if isinstance(arg, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            # Counting idioms (`sum(1 for ... if ...)`) are exact integer
            # arithmetic: commutative, so iteration order cannot matter.
            if (isinstance(arg.elt, ast.Constant)
                    and isinstance(arg.elt.value, int)):
                return False
            return any(self.classify(gen.iter, state, env) is not None
                       for gen in arg.generators)
        return False

    def _loop_body_is_order_relevant(self, loop: ast.stmt, module: str,
                                     env: TypeEnv) -> bool:
        """Draws randomness, releases, or accumulates into a mutable."""
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(node, ast.Return):
                    # `return <constant>` is the any()/all() short-circuit
                    # idiom: the result is existence, not order.
                    if (node.value is not None
                            and not isinstance(node.value, ast.Constant)):
                        return True
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.AugAssign):
                    return True
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Subscript) for t in node.targets):
                    return True
                if isinstance(node, ast.Call):
                    facts = self.engine.merged_facts(node, module, env)
                    if facts.draws:
                        return True
        return False

    # -- emission -------------------------------------------------------

    def _emit(self, rule: str, module: str, node: ast.AST, sink: str,
              message: str, root: _Root, chain: Tuple[Frame, ...]) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        key = (rule, module, line, col)
        if key in self._emitted:
            return
        self._emitted.add(key)
        pragma = self.index.pragma_for(module, rule, line)
        if pragma is None:
            for frame in chain:
                pragma = self.index.pragma_for(frame.module, rule,
                                               frame.line)
                if pragma is not None:
                    break
        self.findings.append(Finding(
            rule=rule,
            message=message,
            file=self.index.relpath(module),
            line=line,
            col=col,
            entry_class=root.entry_class,
            entry_method=root.entry_method,
            entry_module=root.module,
            sink=sink,
            chain=chain,
            pragma_reason=pragma,
        ))


def check_determinism(facts: FunctionFacts, engine: EffectEngine
                      ) -> Tuple[List[Finding], int]:
    """Run the DET rules; returns (findings, roots walked)."""
    walker = _DetWalker(facts, engine)
    roots = _collect_roots(facts)
    for root in roots:
        walker.walk_root(root)
    return walker.findings, len(roots)
