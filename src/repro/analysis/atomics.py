"""ATOM rules: the atomic-durability protocol around rename.

WAL001 proves *ordering* (append before release); these rules prove the
append itself is durable.  The POSIX recipe the checkpoint/WAL layer uses
(``_write_file_atomic``/``_commit_manifest`` in
:mod:`repro.resilience.checkpoint`) is: write a temp file → ``flush()`` →
``fsync(fd)`` → ``os.replace(tmp, final)`` → fsync the parent directory.
Skipping any step leaves a crash window — a rename made durable before its
contents (data loss), or a rename the directory never learned about
(the manifest points at nothing after power loss).

* ``ATOM001`` — an ``os.rename``/``os.replace`` whose arguments look like
  durability artifacts (tmp/manifest/snapshot/segment/WAL paths) that is
  not **dominated** by a file fsync (:func:`must_pass_before`) or not
  **post-dominated** by a parent-directory fsync
  (:func:`must_pass_after`).  An fsync behind an explicit policy gate
  (``if self._fsync: …``) counts: the gate is the operator's documented
  opt-out, so the *header* satisfies the protocol on both arms;
* ``ATOM002`` — ``os.fsync(handle.fileno())`` not dominated by a
  ``flush()`` on the same handle: Python's buffered writer may still hold
  the tail of the record, so the kernel durably persists a torn write.

Both rules are flow-sensitive over the per-function CFG, with fsync
effects resolved transitively through the escape pass (a helper like
``fsync_directory`` counts wherever it is reached from).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from .callgraph import Resolver, TypeEnv
from .cfg import CFG, build_cfg, must_pass_after, must_pass_before, \
    stmt_expr_nodes
from .escape import EscapeEngine
from .findings import (
    RULE_FSYNC_WITHOUT_FLUSH,
    RULE_RENAME_WITHOUT_FSYNC,
    Finding,
    Frame,
)
from .modindex import ClassInfo, FunctionNode, PackageIndex
from .purity import EffectEngine, attr_text, dotted_callee


@dataclass
class AtomicityConfig:
    """Scope of the ATOM rules."""

    rename_calls: FrozenSet[str] = frozenset({"os.rename", "os.replace"})
    #: path-text tokens marking a rename as a durability artifact
    artifact_tokens: Tuple[str, ...] = (
        "tmp", "manifest", "snapshot", "segment", "wal", "journal",
        "ckpt", "checkpoint",
    )
    #: ``if <test mentioning one of these>:`` gates an fsync by policy
    fsync_gate_tokens: Tuple[str, ...] = ("fsync", "sync", "durable")
    fsync_calls: FrozenSet[str] = frozenset({"os.fsync", "os.fdatasync"})
    dir_fsync_names: FrozenSet[str] = frozenset({"fsync_directory"})


DEFAULT_ATOMICITY_CONFIG = AtomicityConfig()


class _AtomicsChecker:
    def __init__(self, index: PackageIndex, resolver: Resolver,
                 engine: EffectEngine, escape: EscapeEngine,
                 config: AtomicityConfig) -> None:
        self.index = index
        self.resolver = resolver
        self.engine = engine
        self.escape = escape
        self.config = config
        self.findings: List[Finding] = []

    # -- classification -------------------------------------------------

    def _call_dotted(self, call: ast.Call, module: str) -> Optional[str]:
        return dotted_callee(call.func, self.index, module)

    def _is_artifact_rename(self, call: ast.Call, module: str) -> bool:
        if self._call_dotted(call, module) not in self.config.rename_calls:
            return False
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            try:
                text = ast.unparse(arg).lower()
            except Exception:  # pragma: no cover - exotic expressions
                continue
            if any(token in text for token in self.config.artifact_tokens):
                return True
        return False

    def _is_file_fsync(self, call: ast.Call, module: str,
                       env: TypeEnv) -> bool:
        if self._call_dotted(call, module) in self.config.fsync_calls:
            return True
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
        if name in self.config.dir_fsync_names:
            return True
        try:
            resolved = self.resolver.resolve_call(call.func, env)
        except RecursionError:  # pragma: no cover - pathological
            resolved = None
        return (resolved is not None
                and self.escape.does_fsync(resolved.node))

    def _is_dir_fsync(self, call: ast.Call, module: str,
                      env: TypeEnv) -> bool:
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
        if name in self.config.dir_fsync_names:
            return True
        try:
            resolved = self.resolver.resolve_call(call.func, env)
        except RecursionError:  # pragma: no cover - pathological
            resolved = None
        return (resolved is not None
                and self.escape.does_dir_fsync(resolved.node))

    def _gated_headers(self, graph: CFG, satisfied: Set[int]) -> Set[int]:
        """``if self._fsync:`` headers whose body fsyncs.

        The policy gate is an explicit opt-out, so the header itself
        (present on every path) satisfies the protocol for both arms.
        """
        out: Set[int] = set()
        for stmt in graph.statements():
            node = stmt.node
            if not (stmt.is_header and isinstance(node, ast.If)):
                continue
            try:
                test_text = ast.unparse(node.test).lower()
            except Exception:  # pragma: no cover
                continue
            if not any(token in test_text
                       for token in self.config.fsync_gate_tokens):
                continue
            body_ids = {id(child) for s in node.body
                        for child in ast.walk(s)}
            for other in graph.statements():
                if other.sid in satisfied and id(other.node) in body_ids:
                    out.add(stmt.sid)
                    break
        return out

    # -- per-function checks --------------------------------------------

    def check_function(self, module: str, node: FunctionNode,
                       self_class: Optional[ClassInfo]) -> None:
        env = self.resolver.param_env(module, node, self_class=self_class)
        renames: List[Tuple[int, ast.Call]] = []
        graph: Optional[CFG] = None
        has_rename = any(
            self._call_dotted(call, module) in self.config.rename_calls
            for call in self._all_calls(node))
        has_fsync = any(
            self._call_dotted(call, module) in self.config.fsync_calls
            for call in self._all_calls(node))
        if not has_rename and not has_fsync:
            return
        graph = build_cfg(node)
        file_fsync_sids: Set[int] = set()
        dir_fsync_sids: Set[int] = set()
        flush_receivers: List[Tuple[int, Optional[str]]] = []
        fsync_fileno: List[Tuple[int, ast.Call, Optional[str]]] = []
        for stmt in graph.statements():
            for call in stmt_expr_nodes(stmt, (ast.Call,)):
                if self._is_file_fsync(call, module, env):
                    file_fsync_sids.add(stmt.sid)
                if self._is_dir_fsync(call, module, env):
                    dir_fsync_sids.add(stmt.sid)
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "flush"):
                    flush_receivers.append(
                        (stmt.sid, attr_text(call.func.value)))
                if self._is_artifact_rename(call, module):
                    renames.append((stmt.sid, call))
                receiver = self._fsync_fileno_receiver(call, module)
                if receiver is not None:
                    fsync_fileno.append((stmt.sid, call, receiver))

        file_effects = file_fsync_sids | self._gated_headers(
            graph, file_fsync_sids)
        dir_effects = dir_fsync_sids | self._gated_headers(
            graph, dir_fsync_sids)

        for sid, call in renames:
            if not must_pass_before(graph, file_effects, sid):
                self._emit(
                    RULE_RENAME_WITHOUT_FSYNC, module, call,
                    sink=f"rename in {node.name}() without file fsync",
                    message="os.replace/os.rename of a durability artifact "
                            "is not dominated by an fsync of the written "
                            "file: a crash can publish a name whose "
                            "contents never reached disk",
                    self_class=self_class, method=node.name)
            elif not must_pass_after(graph, dir_effects, sid):
                self._emit(
                    RULE_RENAME_WITHOUT_FSYNC, module, call,
                    sink=f"rename in {node.name}() without directory fsync",
                    message="os.replace/os.rename of a durability artifact "
                            "is not followed by fsync of the parent "
                            "directory on every path: the rename itself "
                            "can be lost on power failure",
                    self_class=self_class, method=node.name)

        for sid, call, receiver in fsync_fileno:
            flush_sids = {fsid for fsid, frecv in flush_receivers
                          if frecv is None or receiver is None
                          or frecv == receiver}
            if not must_pass_before(graph, flush_sids, sid):
                self._emit(
                    RULE_FSYNC_WITHOUT_FLUSH, module, call,
                    sink=f"fsync({receiver}) in {node.name}() "
                         f"without flush",
                    message="os.fsync of a buffered handle is not "
                            "dominated by flush(): the kernel can "
                            "durably persist a torn record while the "
                            "tail sits in the userspace buffer",
                    self_class=self_class, method=node.name)

    @staticmethod
    def _all_calls(node: FunctionNode) -> List[ast.Call]:
        out: List[ast.Call] = []

        def visit(current: ast.AST) -> None:
            for child in ast.iter_child_nodes(current):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(child, ast.Call):
                    out.append(child)
                visit(child)

        visit(node)
        return out

    def _fsync_fileno_receiver(self, call: ast.Call,
                               module: str) -> Optional[str]:
        """The handle text of an ``os.fsync(x.fileno())`` call, if any."""
        if self._call_dotted(call, module) not in self.config.fsync_calls:
            return None
        if not call.args:
            return None
        arg = call.args[0]
        if (isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "fileno"):
            return attr_text(arg.func.value)
        return None

    # -- emission -------------------------------------------------------

    def _emit(self, rule: str, module: str, node: ast.AST, sink: str,
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


def check_atomics(index: PackageIndex, resolver: Resolver,
                  engine: EffectEngine, escape: EscapeEngine,
                  config: Optional[AtomicityConfig] = None,
                  rules: Optional[Set[str]] = None,
                  ) -> Tuple[List[Finding], int]:
    """Run the ATOM rules over every function of the package."""
    config = config or DEFAULT_ATOMICITY_CONFIG
    checker = _AtomicsChecker(index, resolver, engine, escape, config)
    checked = 0
    for mod in sorted(index.modules.values(), key=lambda m: m.name):
        for node in mod.functions.values():
            checker.check_function(mod.name, node, None)
            checked += 1
        for cls in mod.classes.values():
            for node in cls.methods.values():
                checker.check_function(mod.name, node, cls)
                checked += 1
    findings = checker.findings
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings, checked
