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
effects resolved transitively through the effect summaries (a helper like
``fsync_directory`` counts wherever it is reached from).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from .cfg import CFG, must_pass_after, must_pass_before, stmt_expr_nodes
from .facts import FunctionFacts
from .findings import (
    RULE_FSYNC_WITHOUT_FLUSH,
    RULE_RENAME_WITHOUT_FSYNC,
    Finding,
    function_finding,
)
from .modindex import ClassInfo, FunctionNode
from .purity import FSYNC_CALLS, EffectEngine, attr_text, dotted_callee

_RENAME_CALLS = frozenset({"os.rename", "os.replace"})
#: a function calling none of these has nothing to check
_PROTOCOL_CALLS = _RENAME_CALLS | FSYNC_CALLS
#: path-text tokens marking a rename as a durability artifact
_ARTIFACT_TOKENS = (
    "tmp", "manifest", "snapshot", "segment", "wal", "journal", "ckpt",
    "checkpoint",
)
#: ``if <test mentioning one of these>:`` gates an fsync by policy
_FSYNC_GATE_TOKENS = ("fsync", "sync", "durable")


class _AtomicsChecker:
    def __init__(self, facts: FunctionFacts, engine: EffectEngine) -> None:
        self.facts = facts
        self.index = facts.index
        self.engine = engine
        self.findings: List[Finding] = []

    # -- classification -------------------------------------------------

    @staticmethod
    def _is_artifact_rename(call: ast.Call, dotted: Optional[str]) -> bool:
        if dotted not in _RENAME_CALLS:
            return False
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            try:
                text = ast.unparse(arg).lower()
            except Exception:  # pragma: no cover - exotic expressions
                continue
            if any(token in text for token in _ARTIFACT_TOKENS):
                return True
        return False

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
            if not any(token in test_text for token in _FSYNC_GATE_TOKENS):
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
        if not any(dotted_callee(call.func, self.index, module)
                   in _PROTOCOL_CALLS for call in self.facts.calls(node)):
            return
        env = self.facts.param_env(module, node, self_class)
        graph = self.facts.cfg(node)
        renames: List[Tuple[int, ast.Call]] = []
        file_fsync_sids: Set[int] = set()
        dir_fsync_sids: Set[int] = set()
        flush_receivers: List[Tuple[int, Optional[str]]] = []
        fsync_fileno: List[Tuple[int, ast.Call, Optional[str]]] = []
        for stmt in graph.statements():
            for call in stmt_expr_nodes(stmt, (ast.Call,)):
                facts = self.engine.merged_facts(call, module, env)
                if facts.fsync:
                    file_fsync_sids.add(stmt.sid)
                if facts.dir_fsync:
                    dir_fsync_sids.add(stmt.sid)
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "flush"):
                    flush_receivers.append(
                        (stmt.sid, attr_text(call.func.value)))
                if self._is_artifact_rename(call, facts.dotted):
                    renames.append((stmt.sid, call))
                receiver = self._fsync_fileno_receiver(call, facts.dotted)
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
    def _fsync_fileno_receiver(call: ast.Call,
                               dotted: Optional[str]) -> Optional[str]:
        """The handle text of an ``os.fsync(x.fileno())`` call, if any."""
        if dotted not in FSYNC_CALLS:
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
        self.findings.append(function_finding(
            self.index, rule, module, node, sink, message, self_class,
            method))


def check_atomics(facts: FunctionFacts,
                  engine: EffectEngine) -> List[Finding]:
    """Run the ATOM rules over every function of the package."""
    checker = _AtomicsChecker(facts, engine)
    for module, node, self_class in facts.functions:
        checker.check_function(module, node, self_class)
    return checker.findings
