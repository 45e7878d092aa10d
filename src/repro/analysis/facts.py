"""Per-run function facts shared by every rule family.

:func:`~repro.analysis.analyze_package` builds one :class:`FunctionFacts`
per run, and every engine and checker reads a function's facts from it.
Each fact is computed at most once, on first use:

* the control-flow graph (:func:`~repro.analysis.cfg.build_cfg`); its
  statement nodes cache their own expression lists
  (:func:`~repro.analysis.cfg.stmt_expr_nodes`);
* the call sites of the body (:func:`~repro.analysis.cfg.iter_calls`);
* two type scopes.  The *parameter scope* types ``self`` and annotated
  parameters only; the effect, escape, CONC, FORK and ATOM passes resolve
  calls with it.  The *typed scope* also types every ``name = expr``
  local the resolver can infer, in line order; the DET, WAL/BUD and taint
  passes resolve calls with it.  The two stay apart on purpose: a typed
  receiver can resolve a call the parameter scope leaves open, and so
  change which callees the effect fixpoint sees.

A scope is keyed by function *and* the class bound to ``self``: the SIM
and DET walks analyse an inherited method under each concrete auditor.
Cached scopes are shared, so callers must not mutate them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .callgraph import Resolver, TypeEnv
from .cfg import CFG, build_cfg, iter_calls
from .modindex import ClassInfo, FunctionNode, PackageIndex

_ScopeKey = Tuple[FunctionNode, Optional[str]]


class FunctionFacts:
    """Every function of one package index, and its facts on demand."""

    def __init__(self, index: PackageIndex, resolver: Resolver) -> None:
        self.index = index
        self.resolver = resolver
        #: ``(module, node, defining class)`` for every function and
        #: method, modules in name order
        self.functions: List[Tuple[str, FunctionNode,
                                   Optional[ClassInfo]]] = []
        for mod in sorted(index.modules.values(), key=lambda m: m.name):
            for fn in mod.functions.values():
                self.functions.append((mod.name, fn, None))
            for cls in mod.classes.values():
                for method in cls.methods.values():
                    self.functions.append((mod.name, method, cls))
        self._cfgs: Dict[FunctionNode, CFG] = {}
        self._calls: Dict[FunctionNode, List[ast.Call]] = {}
        self._param_envs: Dict[_ScopeKey, TypeEnv] = {}
        self._typed_envs: Dict[_ScopeKey, TypeEnv] = {}

    def cfg(self, node: FunctionNode) -> CFG:
        graph = self._cfgs.get(node)
        if graph is None:
            graph = self._cfgs[node] = build_cfg(node)
        return graph

    def calls(self, node: FunctionNode) -> List[ast.Call]:
        calls = self._calls.get(node)
        if calls is None:
            calls = self._calls[node] = iter_calls(node)
        return calls

    def param_env(self, module: str, node: FunctionNode,
                  self_class: Optional[ClassInfo] = None) -> TypeEnv:
        """The parameter scope (see module docstring)."""
        key = (node, self_class.qualname if self_class else None)
        env = self._param_envs.get(key)
        if env is None:
            env = self._param_envs[key] = self.resolver.param_env(
                module, node, self_class=self_class)
        return env

    def typed_env(self, module: str, node: FunctionNode,
                  self_class: Optional[ClassInfo] = None) -> TypeEnv:
        """The typed scope: the parameter scope plus inferred locals.

        Flow-insensitive: assignments are typed in line order, each
        against the locals typed before it, and a later binding of a
        name overrides an earlier one.
        """
        key = (node, self_class.qualname if self_class else None)
        env = self._typed_envs.get(key)
        if env is not None:
            return env
        base = self.param_env(module, node, self_class)
        env = TypeEnv(module=base.module, self_class=base.self_class,
                      self_name=base.self_name, locals=dict(base.locals))
        assigns = sorted((stmt for stmt in ast.walk(node)
                          if isinstance(stmt, ast.Assign)
                          and len(stmt.targets) == 1
                          and isinstance(stmt.targets[0], ast.Name)),
                         key=lambda stmt: stmt.lineno)
        for stmt in assigns:
            inferred = self.resolver.infer_type(stmt.value, env)
            if inferred is not None:
                env.locals[stmt.targets[0].id] = inferred
        self._typed_envs[key] = env
        return env
