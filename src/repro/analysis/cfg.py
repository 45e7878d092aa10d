"""Per-function control-flow graphs for the flow-sensitive analyzers.

The SIM taint walker started out purely syntactic: it scanned every
expression of a function body in AST order.  The DET/WAL/BUD rule families
need more — *ordered statement effects* ("is every release dominated by a
journal append?"), *branch joins* ("is this local still a ``set`` on both
arms?"), and *loop bodies* ("does this chain loop checkpoint its budget?").
This module provides the shared machinery:

* :func:`build_cfg` — a statement-level CFG for one function: every simple
  statement is a node; compound statements contribute a *header* node (the
  ``if``/``while`` test, the ``for`` iterable, the ``with`` items) and their
  bodies are wired through it.  ``break``/``continue``/``return``/``raise``
  edges are modelled, and every statement inside a ``try`` body gets an edge
  to each handler *from its predecessors* — an exception may fire before the
  statement's own effect happened, and the must-analysis below relies on
  that pessimism.
* :func:`must_pass_before` — classic forward *must* dataflow: did some
  effect statement execute on **every** path from the entry to a target?
  This is how WAL001 proves (or refutes) that a journal append dominates a
  release.
* :func:`flow_locals` — a small forward abstract-interpretation driver with
  pluggable transfer/join, used for flow-sensitive local typing (branch
  joins keep a binding only when both arms agree) by the SIM and DET
  walkers.

Everything is best-effort and deliberately simple: the graphs are
intraprocedural, ``finally`` interception of ``return`` is approximated
(returns jump straight to the exit), and unreachable statements simply keep
the entry state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .modindex import FunctionNode

#: ``ast.Match`` only exists on py3.10+; the analyzer still runs on 3.9.
_MATCH = getattr(ast, "Match", None)


@dataclass
class StmtNode:
    """One CFG node: a simple statement, a compound header, or a handler."""

    sid: int
    node: Optional[ast.AST]            #: underlying statement (None: entry/exit)
    exprs: Tuple[ast.expr, ...] = ()   #: expressions evaluated *at* this node
    is_header: bool = False            #: compound-statement header
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: :func:`stmt_expr_nodes` results by ``kinds``, filled on first use
    expr_cache: Dict[Optional[Tuple[type, ...]], List[ast.AST]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


class CFG:
    """Statement-level control-flow graph of one function body."""

    def __init__(self, fn: FunctionNode) -> None:
        self.fn = fn
        self.nodes: Dict[int, StmtNode] = {}
        self.entry = self._new(None).sid
        self.exit = self._new(None).sid
        self.returns: List[int] = []     #: sids of Return statements
        self.loops: List[int] = []       #: sids of For/While headers

    def _new(self, node: Optional[ast.AST], exprs: Tuple[ast.expr, ...] = (),
             is_header: bool = False) -> StmtNode:
        sid = len(self.nodes)
        item = StmtNode(sid=sid, node=node, exprs=exprs, is_header=is_header)
        self.nodes[sid] = item
        return item

    def link(self, preds: Sequence[int], to: int) -> None:
        for sid in preds:
            if to not in self.nodes[sid].succs:
                self.nodes[sid].succs.append(to)
            if sid not in self.nodes[to].preds:
                self.nodes[to].preds.append(sid)

    def statements(self) -> List[StmtNode]:
        """All real statement nodes, in creation (≈ source) order."""
        return [n for n in self.nodes.values()
                if n.node is not None]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _simple_exprs(stmt: ast.stmt) -> Tuple[ast.expr, ...]:
    """The top-level expressions a simple statement evaluates."""
    out: List[ast.expr] = []
    for fld, value in ast.iter_fields(stmt):
        if fld in ("annotation",):      # annotations are not decision effects
            continue
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.expr))
    return tuple(out)


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: stack of (loop_header_sid, break_collector)
        self.loop_stack: List[Tuple[int, List[int]]] = []
        #: stack of handler-entry sid lists for enclosing ``try`` bodies
        self.handler_stack: List[List[int]] = []

    # -- helpers --------------------------------------------------------

    def _raise_targets(self) -> List[int]:
        """Where an in-flight exception can land (innermost handlers)."""
        return self.handler_stack[-1] if self.handler_stack else []

    # -- statement sequences -------------------------------------------

    def seq(self, stmts: Sequence[ast.stmt], preds: List[int]) -> List[int]:
        """Wire ``stmts`` after ``preds``; returns the fall-through exits."""
        current = list(preds)
        for stmt in stmts:
            if not current:
                # Unreachable code still gets nodes (the walkers scan it
                # with the entry state) but contributes no flow edges.
                current = []
            current = self.one(stmt, current)
        return current

    def one(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            header = cfg._new(stmt, (stmt.test,), is_header=True)
            cfg.link(preds, header.sid)
            then_exits = self.seq(stmt.body, [header.sid])
            if stmt.orelse:
                else_exits = self.seq(stmt.orelse, [header.sid])
            else:
                else_exits = [header.sid]
            return then_exits + else_exits
        if isinstance(stmt, ast.While):
            header = cfg._new(stmt, (stmt.test,), is_header=True)
            cfg.loops.append(header.sid)
            cfg.link(preds, header.sid)
            breaks: List[int] = []
            self.loop_stack.append((header.sid, breaks))
            body_exits = self.seq(stmt.body, [header.sid])
            self.loop_stack.pop()
            cfg.link(body_exits, header.sid)
            exits = breaks
            is_forever = (isinstance(stmt.test, ast.Constant)
                          and bool(stmt.test.value))
            if not is_forever:
                exits = exits + [header.sid]
            if stmt.orelse:
                exits = self.seq(stmt.orelse, exits) if exits else []
            return exits
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            header = cfg._new(stmt, (stmt.iter,), is_header=True)
            cfg.loops.append(header.sid)
            cfg.link(preds, header.sid)
            breaks = []
            self.loop_stack.append((header.sid, breaks))
            body_exits = self.seq(stmt.body, [header.sid])
            self.loop_stack.pop()
            cfg.link(body_exits, header.sid)
            exits = breaks + [header.sid]
            if stmt.orelse:
                exits = self.seq(stmt.orelse, exits)
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = cfg._new(
                stmt, tuple(item.context_expr for item in stmt.items),
                is_header=True)
            cfg.link(preds, header.sid)
            return self.seq(stmt.body, [header.sid])
        if isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
            return self._try(stmt, preds)
        if _MATCH is not None and isinstance(stmt, _MATCH):
            header = cfg._new(stmt, (stmt.subject,), is_header=True)
            cfg.link(preds, header.sid)
            exits: List[int] = [header.sid]  # no case may match
            for case in stmt.cases:
                exits += self.seq(case.body, [header.sid])
            return exits
        if isinstance(stmt, ast.Return):
            node = cfg._new(stmt, (stmt.value,) if stmt.value else ())
            cfg.link(preds, node.sid)
            cfg.link([node.sid], cfg.exit)
            cfg.returns.append(node.sid)
            return []
        if isinstance(stmt, ast.Raise):
            node = cfg._new(stmt, _simple_exprs(stmt))
            cfg.link(preds, node.sid)
            targets = self._raise_targets()
            if targets:
                cfg.link([node.sid], targets[0])
                for extra in targets[1:]:
                    cfg.link([node.sid], extra)
            else:
                cfg.link([node.sid], cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = cfg._new(stmt)
            cfg.link(preds, node.sid)
            if self.loop_stack:
                self.loop_stack[-1][1].append(node.sid)
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg._new(stmt)
            cfg.link(preds, node.sid)
            if self.loop_stack:
                cfg.link([node.sid], self.loop_stack[-1][0])
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested definitions are separate scopes: a node with no
            # evaluated expressions (decorators excepted — rare enough).
            node = cfg._new(stmt)
            cfg.link(preds, node.sid)
            return [node.sid]
        node = cfg._new(stmt, _simple_exprs(stmt))
        cfg.link(preds, node.sid)
        return [node.sid]

    def _try(self, stmt: ast.Try, preds: List[int]) -> List[int]:
        cfg = self.cfg
        handler_entries: List[int] = []
        handler_nodes = []
        for handler in stmt.handlers:
            exprs = (handler.type,) if handler.type is not None else ()
            node = cfg._new(handler, exprs, is_header=True)
            handler_entries.append(node.sid)
            handler_nodes.append((handler, node))
        # An exception can fire before any body statement's own effect:
        # the handlers' predecessors include the try's own predecessors.
        for sid in handler_entries:
            cfg.link(preds, sid)
        self.handler_stack.append(handler_entries)
        body_exits = self.seq(stmt.body, list(preds))
        self.handler_stack.pop()
        # ... and at any point inside the body.
        body_sids = [n.sid for n in cfg.nodes.values()
                     if n.node is not None and self._inside(stmt.body, n.node)]
        for sid in handler_entries:
            cfg.link(body_sids, sid)
        if stmt.orelse:
            body_exits = self.seq(stmt.orelse, body_exits)
        handler_exits: List[int] = []
        for handler, node in handler_nodes:
            handler_exits += self.seq(handler.body, [node.sid])
        exits = body_exits + handler_exits
        if stmt.finalbody:
            exits = self.seq(stmt.finalbody, exits)
        return exits

    @staticmethod
    def _inside(body: Sequence[ast.stmt], node: ast.AST) -> bool:
        for stmt in body:
            if node is stmt:
                return True
            for child in ast.walk(stmt):
                if child is node:
                    return True
        return False


def build_cfg(fn: FunctionNode) -> CFG:
    """The statement-level CFG of ``fn``'s body."""
    cfg = CFG(fn)
    builder = _Builder(cfg)
    exits = builder.seq(fn.body, [cfg.entry])
    cfg.link(exits, cfg.exit)
    return cfg


# ----------------------------------------------------------------------
# Dataflow
# ----------------------------------------------------------------------

def must_pass_before(cfg: CFG, effects: Set[int], target: int) -> bool:
    """True when every entry→``target`` path runs an ``effects`` statement
    strictly before reaching ``target``.

    Classic forward must-analysis: ``IN[n] = AND over preds of OUT[p]``,
    ``OUT[n] = IN[n] or (n in effects)``; unreachable nodes keep ⊤ and are
    reported as dominated (nothing can release along them).
    """
    IN: Dict[int, bool] = {sid: True for sid in cfg.nodes}
    IN[cfg.entry] = False
    changed = True
    while changed:
        changed = False
        for sid, node in cfg.nodes.items():
            if sid == cfg.entry:
                continue
            if node.preds:
                new = all(IN[p] or p in effects for p in node.preds)
            else:
                new = True  # unreachable
            if new != IN[sid]:
                IN[sid] = new
                changed = True
    return IN[target]


def must_pass_after(cfg: CFG, effects: Set[int], target: int) -> bool:
    """True when every ``target``→exit path runs an ``effects`` statement
    strictly after leaving ``target``.

    The reverse of :func:`must_pass_before`: a backward must-analysis over
    the same graph.  ``B[n]`` means "every path from *n* to the exit hits
    an effect at *n* or later"; the answer is the conjunction over the
    target's successors.  ATOM001 uses this to prove a directory fsync
    post-dominates an ``os.replace``.  A target with no successors (a
    dead-end node) has no path to the exit, so nothing can escape along
    it and it is reported as covered.
    """
    B: Dict[int, bool] = {sid: True for sid in cfg.nodes}
    B[cfg.exit] = cfg.exit in effects
    changed = True
    while changed:
        changed = False
        for sid, node in cfg.nodes.items():
            if sid == cfg.exit:
                continue
            if sid in effects:
                new = True
            elif node.succs:
                new = all(B[s] for s in node.succs)
            else:
                new = True  # dead end: no path reaches the exit
            if new != B[sid]:
                B[sid] = new
                changed = True
    succs = cfg.nodes[target].succs
    if not succs:
        return True
    return all(B[s] for s in succs)


State = Dict[str, object]
Transfer = Callable[[StmtNode, State], State]


def _join(a: State, b: State) -> State:
    """Keep a binding only when both branches agree on it."""
    if not a or not b:
        return {}
    return {k: v for k, v in a.items() if k in b and b[k] == v}


def flow_locals(cfg: CFG, initial: State, transfer: Transfer,
                max_rounds: int = 16) -> Dict[int, State]:
    """Forward abstract interpretation; returns the state *before* each sid.

    ``transfer(stmt, state)`` returns the state after one statement (it may
    mutate and return its argument).  Joins intersect agreeing bindings, so
    a local keeps its type/kind across a branch only when both arms concur —
    the flow-sensitive behaviour the DET rules need.  Unreachable statements
    see the initial (parameter-only) state.
    """
    before: Dict[int, State] = {cfg.entry: dict(initial)}
    after: Dict[int, State] = {}
    order = sorted(cfg.nodes)
    for _ in range(max_rounds):
        changed = False
        for sid in order:
            node = cfg.nodes[sid]
            if sid == cfg.entry:
                state = dict(initial)
            else:
                pred_states = [after[p] for p in node.preds if p in after]
                if pred_states:
                    state = dict(pred_states[0])
                    for other in pred_states[1:]:
                        state = _join(state, other)
                else:
                    state = dict(initial)
            if before.get(sid) != state:
                before[sid] = dict(state)
                changed = True
            out = transfer(node, dict(state)) if node.node is not None \
                else dict(state)
            if after.get(sid) != out:
                after[sid] = out
                changed = True
        if not changed:
            break
    return before


def _walk_excluding_defs(roots: Sequence[ast.AST], include_roots: bool,
                         kinds: Optional[Tuple[type, ...]]) -> List[ast.AST]:
    """Pre-order walk below ``roots`` that skips nested function/class
    definitions (separate scopes)."""
    out: List[ast.AST] = []

    def visit(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            if kinds is None or isinstance(child, kinds):
                out.append(child)
            visit(child)

    for root in roots:
        if include_roots and (kinds is None or isinstance(root, kinds)):
            out.append(root)
        visit(root)
    return out


def iter_calls(node: ast.AST) -> List[ast.Call]:
    """Call nodes below ``node``, excluding nested defs."""
    return _walk_excluding_defs((node,), False, (ast.Call,))  # type: ignore


def stmt_expr_nodes(stmt: StmtNode,
                    kinds: Optional[Tuple[type, ...]] = None) -> List[ast.AST]:
    """All expression-level AST nodes evaluated at one CFG node.

    Walks each of the node's header/top-level expressions, *excluding*
    nested function/class definitions (separate scopes).  The walk runs
    once per node; each ``kinds`` filter of it is cached on the node, so
    callers must not mutate the returned list.
    """
    cached = stmt.expr_cache.get(kinds)
    if cached is None:
        every = stmt.expr_cache.get(None)
        if every is None:
            every = _walk_excluding_defs(
                [e for e in stmt.exprs if e is not None], True, None)
            stmt.expr_cache[None] = every
        cached = every if kinds is None else [
            node for node in every if isinstance(node, kinds)]
        stmt.expr_cache[kinds] = cached
    return cached
