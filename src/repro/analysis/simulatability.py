"""The simulatability taint analyzer.

The paper's core safety property (§2.2, §4): an auditor's deny/answer
decision must be computable *without the true answer to the current query*,
otherwise the denials themselves leak (the ``NaiveMaxAuditor`` attack).
This module proves the property statically: for every :class:`Auditor`
subclass it walks the decision entry points (``_deny_reason``,
``would_answer``, ``_record_answer``) and their transitive intra-package
callees, and reports every reachable read of a **sensitive source**:

* ``SIM001`` — evaluating the true answer (``true_answer`` /
  ``evaluate_aggregate``);
* ``SIM002`` — reading sensitive dataset values (``Dataset.values``,
  element access, ``subset`` / ``as_array`` / sorted-value style
  accessors, iteration, value-enumerating builtins);
* ``SIM003`` — passing the sensitive dataset object into a call the
  analyzer cannot follow.

Decision paths *may* use the query structure, past answered values, and the
dataset's public envelope (``n`` / ``low`` / ``high`` / ``len``) — exactly
the allowlist encoded in :data:`SENSITIVE_CLASSES`.

Intentional violations (the §2.2 straw men, documented chain-seeding
shortcuts) carry a ``# simulatability: violation -- <reason>`` pragma on or
directly above the offending line; they are reported as ``documented`` and
do not fail the gate.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import ResolvedCall, Resolver, TypeEnv
from .cfg import CFG, StmtNode, flow_locals, stmt_expr_nodes
from .facts import FunctionFacts
from .findings import (
    RULE_SENSITIVE_ESCAPE,
    RULE_SENSITIVE_READ,
    RULE_TRUE_ANSWER,
    Finding,
    Frame,
)
from .modindex import ClassInfo, FunctionNode, PackageIndex

#: Builtins whose application to a dataset enumerates its values.
_ENUMERATING_BUILTINS = frozenset({
    "list", "tuple", "set", "sorted", "iter", "max", "min", "sum",
    "enumerate", "reversed", "frozenset", "any", "all",
})

#: Builtins that only touch the public envelope.
_PUBLIC_BUILTINS = frozenset({"len", "isinstance", "type", "repr", "id"})


#: the analysed package
PACKAGE = "repro"
#: qualified name of the auditor base class
BASE_CLASS = "repro.auditors.base.Auditor"
#: methods whose bodies (and transitive callees) form the decision path
#: (``_deny_reason_sampled`` is the budgeted inner body the resilience
#: guard dispatches to — registered explicitly so the deadline fallback's
#: decision path stays covered even if the indirect call through
#: ``run_fail_closed`` ever stops resolving)
ENTRY_METHODS = ("_deny_reason", "would_answer", "_record_answer",
                 "_deny_reason_sampled")
#: functions that evaluate the true answer of the current query
TRUE_ANSWER_FUNCTIONS = frozenset({
    "repro.sdb.aggregates.true_answer",
    "repro.sdb.aggregates.evaluate_aggregate",
})
#: classes whose instances hold sensitive values -> their public members
SENSITIVE_CLASSES: Dict[str, FrozenSet[str]] = {
    "repro.sdb.dataset.Dataset": frozenset({"n", "low", "high"}),
}
#: attribute names treated as sensitive even on untyped receivers named
#: like a dataset (defence in depth for un-annotated helpers)
SENSITIVE_ATTR_NAMES = frozenset({"values", "sorted_values"})
DATASET_LIKE_NAMES = frozenset({"dataset", "data", "ds", "db"})
#: call-chain depth at which the SIM and DET walks stop following callees
MAX_DEPTH = 25


def default_package_dir() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# The walker
# ----------------------------------------------------------------------

class _Walker:
    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self.index = facts.index
        self.resolver = facts.resolver
        self.findings: List[Finding] = []
        self._seen_findings: Set[Tuple] = set()

    # -- sensitivity helpers -------------------------------------------

    def _sensitive_class(self, cls: Optional[ClassInfo]
                         ) -> Optional[Tuple[str, FrozenSet[str]]]:
        """``(qualname, public members)`` when ``cls`` is sensitive."""
        if cls is None:
            return None
        for candidate in self.resolver.mro(cls):
            public = SENSITIVE_CLASSES.get(candidate.qualname)
            if public is not None:
                return candidate.qualname, public
        return None

    def _root_name(self, expr: ast.expr) -> Optional[str]:
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    # -- entry ----------------------------------------------------------

    def check_class(self, cls: ClassInfo) -> int:
        """Walk every entry point of one auditor class; returns how many."""
        entries = 0
        for entry_name in ENTRY_METHODS:
            hit = self.resolver.find_method(cls, entry_name)
            if hit is None:
                continue
            defining, node = hit
            if _is_abstract_stub(node):
                continue
            entries += 1
            entry_frame = Frame(
                function=f"{cls.name}.{entry_name}",
                module=defining.module,
                file=self.index.relpath(defining.module),
                line=node.lineno,
            )
            self._walk(defining.module, node, cls, entry=(cls, entry_name),
                       chain=(entry_frame,), depth=0,
                       visited={(id(node), cls.qualname)},
                       extra_param_types={})
        return entries

    # -- function body scan --------------------------------------------

    def _walk(self, module: str, node: FunctionNode,
              self_class: Optional[ClassInfo],
              entry: Tuple[ClassInfo, str], chain: Tuple[Frame, ...],
              depth: int, visited: Set[Tuple],
              extra_param_types: Dict[str, ClassInfo]) -> None:
        """Flow-sensitive scan of one function body.

        The body is lowered to a statement-level CFG; local types are
        propagated forward with branch joins (a binding survives a join
        only when both arms agree), and each statement's expressions are
        scanned against the type state that actually reaches it.
        """
        params = self.facts.param_env(module, node, self_class)
        env = TypeEnv(module=params.module, self_class=params.self_class,
                      self_name=params.self_name,
                      locals={**params.locals, **extra_param_types})
        graph = self.facts.cfg(node)
        states = self._flow_types(graph, env)
        for stmt in graph.statements():
            local_env = TypeEnv(
                module=env.module, self_class=env.self_class,
                self_name=env.self_name,
                locals=dict(states.get(stmt.sid, env.locals)))
            call_funcs = set()
            for call in stmt_expr_nodes(stmt, (ast.Call,)):
                call_funcs.add(id(call.func))
                self._scan_call(call, module, node, local_env, entry, chain,
                                depth, visited)
            for attr in stmt_expr_nodes(stmt, (ast.Attribute,)):
                if id(attr) in call_funcs:
                    continue  # method calls are handled by _scan_call
                self._scan_attribute(attr, module, local_env, entry, chain)
            for sub in stmt_expr_nodes(stmt, (ast.Subscript,)):
                self._scan_subscript(sub, module, local_env, entry, chain)
            for loop_iter in _stmt_iteration_exprs(stmt):
                self._scan_iteration(loop_iter, module, local_env, entry,
                                     chain)

    def _flow_types(self, graph: CFG,
                    env: TypeEnv) -> Dict[int, Dict[str, ClassInfo]]:
        """Per-statement local-type states (forward flow, branch joins)."""
        resolver = self.resolver

        def transfer(stmt: StmtNode,
                     state: Dict[str, ClassInfo]) -> Dict[str, ClassInfo]:
            node = stmt.node
            at = TypeEnv(module=env.module, self_class=env.self_class,
                         self_name=env.self_name, locals=state)
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                inferred = resolver.infer_type(node.value, at)
                if inferred is not None:
                    state[node.targets[0].id] = inferred
                else:
                    state.pop(node.targets[0].id, None)
            elif (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                chosen = resolver._annotation_class(env.module,
                                                    node.annotation)
                if chosen is None and node.value is not None:
                    chosen = resolver.infer_type(node.value, at)
                if chosen is not None:
                    state[node.target.id] = chosen
                else:
                    state.pop(node.target.id, None)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and stmt.is_header:
                for name_node in ast.walk(node.target):
                    if isinstance(name_node, ast.Name):
                        state.pop(name_node.id, None)
            return state

        return flow_locals(graph, dict(env.locals), transfer)

    # -- sinks ----------------------------------------------------------

    def _scan_call(self, call: ast.Call, module: str, node: FunctionNode,
                   env: TypeEnv, entry: Tuple[ClassInfo, str],
                   chain: Tuple[Frame, ...], depth: int,
                   visited: Set[Tuple]) -> None:
        resolved = self.resolver.resolve_call(call.func, env)
        func_name = call.func.id if isinstance(call.func, ast.Name) else None

        # SIM001: the call evaluates a true answer.
        if (resolved is not None
                and resolved.qualname in TRUE_ANSWER_FUNCTIONS):
            self._emit(RULE_TRUE_ANSWER, module, call,
                       sink=f"call to {resolved.qualname}",
                       message="decision path evaluates the true answer "
                               f"via {resolved.qualname.rsplit('.', 1)[-1]}()",
                       entry=entry, chain=chain)
            return

        # SIM002: method call on a sensitive object.
        receiver = self._sensitive_class(resolved.self_class) \
            if resolved is not None else None
        if receiver is not None and resolved is not None \
                and resolved.constructed is None:
            method = resolved.qualname.rsplit(".", 1)[-1]
            qualname, public = receiver
            if method not in public:
                self._emit(RULE_SENSITIVE_READ, module, call,
                           sink=f"call to {resolved.qualname}",
                           message="decision path reads sensitive values "
                                   f"via {qualname.rsplit('.', 1)[-1]}"
                                   f".{method}()",
                           entry=entry, chain=chain)
            return

        # Dataset-typed arguments.
        sensitive_args = [
            arg for arg in _call_argument_exprs(call)
            if self._sensitive_class(self.resolver.infer_type(arg, env))
            is not None
        ]
        if func_name in _PUBLIC_BUILTINS:
            pass  # len(dataset) etc: public envelope
        elif func_name in _ENUMERATING_BUILTINS and sensitive_args:
            self._emit(RULE_SENSITIVE_READ, module, call,
                       sink=f"{func_name}(<sensitive dataset>)",
                       message="decision path enumerates sensitive values "
                               f"via {func_name}()",
                       entry=entry, chain=chain)
            return
        elif sensitive_args and (resolved is None or resolved.node is None) \
                and not (resolved is not None
                         and resolved.constructed is not None):
            target = resolved.qualname if resolved is not None else (
                func_name or "<dynamic callee>")
            self._emit(RULE_SENSITIVE_ESCAPE, module, call,
                       sink=f"sensitive dataset passed to {target}",
                       message="decision path passes the sensitive dataset "
                               f"into unanalyzable call {target}",
                       entry=entry, chain=chain)
            return

        # Recurse into resolvable package-internal callees.
        if (resolved is None or resolved.node is None
                or resolved.module is None or depth >= MAX_DEPTH):
            return
        if self._sensitive_class(resolved.constructed) is not None:
            return  # constructing a dataset is not a read of this one
        dispatch = resolved.self_class
        key = (id(resolved.node),
               dispatch.qualname if dispatch is not None else None)
        if key in visited:
            return
        visited.add(key)
        frame = Frame(function=resolved.qualname, module=module,
                      file=self.index.relpath(module),
                      line=call.lineno)
        # Propagate sensitive argument types into un-annotated parameters.
        extra = self._propagate_args(call, resolved, env)
        self._walk(resolved.module, resolved.node, dispatch,
                   entry=entry, chain=chain + (frame,), depth=depth + 1,
                   visited=visited, extra_param_types=extra)

    def _propagate_args(self, call: ast.Call, resolved: ResolvedCall,
                        env: TypeEnv) -> Dict[str, ClassInfo]:
        node = resolved.node
        if node is None:
            return {}
        params = [a.arg for a in (list(node.args.posonlyargs)
                                  + list(node.args.args))]
        if resolved.self_class is not None and params:
            params = params[1:]
        out: Dict[str, ClassInfo] = {}
        for param, arg in zip(params, call.args):
            if isinstance(arg, ast.Starred):
                break
            inferred = self.resolver.infer_type(arg, env)
            if inferred is not None:
                out[param] = inferred
        for kw in call.keywords:
            if kw.arg is None:
                continue
            inferred = self.resolver.infer_type(kw.value, env)
            if inferred is not None:
                out[kw.arg] = inferred
        return out

    def _scan_attribute(self, attr: ast.Attribute, module: str, env: TypeEnv,
                        entry: Tuple[ClassInfo, str],
                        chain: Tuple[Frame, ...]) -> None:
        base_cls = self.resolver.infer_type(attr.value, env)
        sensitive = self._sensitive_class(base_cls)
        if sensitive is not None:
            if env.self_class is not None and self._sensitive_class(
                    env.self_class) is not None:
                return  # the sensitive class's own methods may touch itself
            qualname, public = sensitive
            if attr.attr in public:
                return
            self._emit(RULE_SENSITIVE_READ, module, attr,
                       sink=f"attribute {qualname.rsplit('.', 1)[-1]}"
                            f".{attr.attr}",
                       message="decision path reads sensitive attribute "
                               f".{attr.attr}",
                       entry=entry, chain=chain)
            return
        # Name-based fallback: ``ds.values`` on an untyped dataset-like name.
        if base_cls is None and attr.attr in SENSITIVE_ATTR_NAMES:
            root = self._root_name(attr.value)
            if root is not None and root.lower() in DATASET_LIKE_NAMES:
                self._emit(RULE_SENSITIVE_READ, module, attr,
                           sink=f"attribute {root}.{attr.attr}",
                           message="decision path reads dataset-like "
                                   f"attribute {root}.{attr.attr}",
                           entry=entry, chain=chain)

    def _scan_subscript(self, sub: ast.Subscript, module: str, env: TypeEnv,
                        entry: Tuple[ClassInfo, str],
                        chain: Tuple[Frame, ...]) -> None:
        sensitive = self._sensitive_class(
            self.resolver.infer_type(sub.value, env))
        if sensitive is None:
            return
        if env.self_class is not None and self._sensitive_class(
                env.self_class) is not None:
            return
        self._emit(RULE_SENSITIVE_READ, module, sub,
                   sink="dataset element access (subscript)",
                   message="decision path reads a sensitive value by index",
                   entry=entry, chain=chain)

    def _scan_iteration(self, iter_expr: ast.expr, module: str, env: TypeEnv,
                        entry: Tuple[ClassInfo, str],
                        chain: Tuple[Frame, ...]) -> None:
        sensitive = self._sensitive_class(
            self.resolver.infer_type(iter_expr, env))
        if sensitive is None:
            return
        if env.self_class is not None and self._sensitive_class(
                env.self_class) is not None:
            return
        self._emit(RULE_SENSITIVE_READ, module, iter_expr,
                   sink="iteration over sensitive dataset",
                   message="decision path iterates over sensitive values",
                   entry=entry, chain=chain)

    # -- emission -------------------------------------------------------

    def _emit(self, rule: str, module: str, node: ast.AST, sink: str,
              message: str, entry: Tuple[ClassInfo, str],
              chain: Tuple[Frame, ...]) -> None:
        entry_cls, entry_method = entry
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        key = (rule, module, line, col, entry_cls.qualname)
        if key in self._seen_findings:
            return
        self._seen_findings.add(key)
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
            entry_class=entry_cls.name,
            entry_method=entry_method,
            entry_module=entry_cls.module,
            sink=sink,
            chain=chain,
            pragma_reason=pragma,
        ))


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

def _stmt_iteration_exprs(stmt: StmtNode) -> List[ast.expr]:
    """Iterable expressions evaluated at one CFG node.

    A ``for`` header contributes its iterable; comprehensions anywhere in
    the node's expressions contribute each generator's iterable.
    """
    out: List[ast.expr] = []
    if isinstance(stmt.node, (ast.For, ast.AsyncFor)) and stmt.is_header:
        out.append(stmt.node.iter)
    for comp_node in stmt_expr_nodes(stmt, (ast.ListComp, ast.SetComp,
                                            ast.DictComp, ast.GeneratorExp)):
        for generator in comp_node.generators:
            out.append(generator.iter)
    return out


def _call_argument_exprs(call: ast.Call) -> List[ast.expr]:
    out: List[ast.expr] = []
    for arg in call.args:
        out.append(arg.value if isinstance(arg, ast.Starred) else arg)
    for kw in call.keywords:
        out.append(kw.value)
    return out


def _is_abstract_stub(node: FunctionNode) -> bool:
    """A body that is only a docstring / pass / ellipsis / raise."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant)
                   and stmt.value.value is Ellipsis)
               or isinstance(stmt, ast.Raise)
               for stmt in body)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def find_auditor_classes(index: PackageIndex,
                         resolver: Resolver) -> List[ClassInfo]:
    """Concrete auditor classes: Auditor subclasses (or anything defining
    ``_deny_reason``) other than the abstract base itself."""
    out: List[ClassInfo] = []
    for cls in index.classes.values():
        if cls.qualname == BASE_CLASS:
            continue
        if resolver.is_subclass_of(cls, BASE_CLASS) \
                or "_deny_reason" in cls.methods:
            out.append(cls)
    out.sort(key=lambda c: c.qualname)
    return out


def check_simulatability(facts: FunctionFacts
                         ) -> Tuple[List[Finding], int, int]:
    """Run the SIM rules; returns (findings, entry points, classes)."""
    walker = _Walker(facts)
    classes = find_auditor_classes(facts.index, facts.resolver)
    entry_points = 0
    for cls in classes:
        entry_points += walker.check_class(cls)
    return walker.findings, entry_points, len(classes)
