"""Value-level interprocedural taint propagation for the LEAK rules.

The SIM family (PR 1) proves decision paths do not *read* sensitive
state; the LEAK family proves sensitive *values* do not *flow out*
through side channels — exception messages, denial details, logs,
journal payloads, replication frames, or thread-shared stores.  This
module is the flow engine; :mod:`repro.analysis.leaks` turns its sink
events into findings.

The abstraction is an *origin set* per local name: ``{"source"}`` marks
data derived from a declared sensitive source (a dataset cell, a true
aggregate answer, synopsis internals), ``{"param:i"}`` marks data derived
from the function's *i*-th parameter.  Origins propagate through
assignments (including tuple unpacking and container-mutating method
calls), f-strings/format/concat, comprehensions, and attribute/subscript
flows.  Parameter origins exist so taint is *interprocedural*: each
function gets a :class:`TaintSummary` — "returns source data", "returns
its parameter *i*", "passes parameter *i* into a raise/log/journal sink"
— computed to fixpoint over the call graph exactly like
:class:`~repro.analysis.purity.EffectEngine`, so a helper that formats a
dataset value into an exception message indicts its callers.

Three kinds of names stop propagation:

* **sanitizers** — ``len``/``hash``/``isinstance``-style builtins,
  declared hash functions (``canonical_key``), and public scalar
  attributes (``.n``, ``.size``, ``.version``): attacker-computable
  projections of sensitive objects;
* **the release boundary** — ``AuditDecision.answer(...)`` /
  ``AuditDecision.deny(...)``: the *sanctioned* output channel.  Their
  results are public by definition (that is the paper's release event),
  which keeps journal records, replication frames, and the serve CLI's
  decision printing naturally clean.  The ``detail`` argument of
  ``deny`` is itself a sink (LEAK001) — checked before the boundary
  launders it;
* **past released answers** — taint is not persisted on the heap across
  methods, so ``self.history`` reads in a later call start untainted.
  Released answers are public in the paper's model; only intra-call
  flows from fresh sensitive reads are leaks.

Unlike SIM there is **no self-class exemption**: a synopsis method that
embeds its own cell values in an exception message is exactly the bug
LEAK001 exists to catch.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import ClassInfo, ResolvedCall, TypeEnv
from .cfg import CFG, StmtNode, stmt_expr_nodes
from .escape import EscapeEngine
from .facts import FunctionFacts
from .modindex import FunctionNode
from .purity import EffectEngine, attr_text, dotted_callee
from .simulatability import (
    DATASET_LIKE_NAMES,
    SENSITIVE_ATTR_NAMES,
    TRUE_ANSWER_FUNCTIONS,
)

#: The distinguished origin: data derived from a declared source.
SOURCE = "source"

_EMPTY: FrozenSet[str] = frozenset()
_SOURCE_ONLY: FrozenSet[str] = frozenset({SOURCE})

#: container-mutating method names: ``recv.append(tainted)`` taints recv
_MUTATOR_METHODS = frozenset({
    "append", "add", "insert", "extend", "update", "setdefault",
    "appendleft", "push",
})


def _param(i: int) -> str:
    return f"param:{i}"


def param_index(origin: str) -> Optional[int]:
    """The parameter index an origin token denotes, or None for source."""
    if origin.startswith("param:"):
        return int(origin.split(":", 1)[1])
    return None


# Sources, sanitizers, release boundary and sinks, all keyed off the real
# tree: the sdb aggregate evaluators (SIM's true-answer functions) and
# dataset/table cell accessors are sources, synopsis classes are source
# *classes* (any non-public member read yields sensitive data), the
# audit-decision constructors are the release boundary, and the
# journal/WAL/export surfaces are sinks.

#: methods (qualified) whose return value is a cell-level read
_SOURCE_METHODS = frozenset({
    "repro.sdb.table.Table.row",
    "repro.sdb.columns.TableView.column",
})
_SYNOPSIS_PUBLIC = frozenset({
    "n", "size", "copy", "insert", "add_element", "is_consistent",
    "would_be_consistent", "propagate",
})
#: classes whose non-public member reads yield sensitive data;
#: value = the attacker-computable (public) member allowlist
_SOURCE_CLASSES: Dict[str, FrozenSet[str]] = {
    "repro.sdb.dataset.Dataset": frozenset({"n", "low", "high", "subset"}),
    "repro.synopsis.combined.CombinedSynopsis": _SYNOPSIS_PUBLIC,
    "repro.synopsis.extreme_synopsis.ExtremeSynopsis": _SYNOPSIS_PUBLIC,
    # the audit worker's rebuild recipe carries the sensitive column in
    # ``values``; every other field is public serving configuration
    "repro.serving.shards.ShardSpec": frozenset({
        "index", "low", "high", "auditor", "seed", "wal_dir",
        "checkpoint_every", "checkpoint_bytes", "replicate_to",
        "user_rate", "user_burst",
    }),
}
#: ``rec[sensitive_column]``-style subscripts are cell reads
_SOURCE_INDEX_NAMES = frozenset({"sensitive_column", "sensitive"})

_SANITIZER_BUILTINS = frozenset({
    "len", "hash", "id", "bool", "isinstance", "issubclass", "type",
    "range", "enumerate",
})
_SANITIZER_FUNCTIONS = frozenset({"repro.sdb.predicates.canonical_key"})
#: public scalar projections, safe on any receiver
_SANITIZER_ATTR_NAMES = frozenset({
    "n", "size", "shape", "ndim", "dtype", "version",
})

_RELEASE_FUNCTIONS = frozenset({
    "repro.types.AuditDecision",
    "repro.types.AuditDecision.__init__",
    "repro.types.AuditDecision.answer",
    "repro.types.AuditDecision.deny",
})
_RELEASE_RECEIVER_NAMES = frozenset({"AuditDecision"})
_DENY_FUNCTIONS = frozenset({"repro.types.AuditDecision.deny"})

_LOG_CALLABLES = frozenset({
    "warnings.warn", "sys.stdout.write", "sys.stderr.write",
})
_LOG_PREFIXES = ("logging.",)
#: package-internal output writers (CSV exports reach the operator)
_LOG_FUNCTIONS = frozenset({
    "repro.reporting.export.write_series_csv",
    "repro.reporting.export.write_table_csv",
    # serving tier: HTTP response bodies and SSE frames reach remote
    # clients — tainted values must never flow into them except through
    # the AuditDecision release boundary
    "repro.serving.protocol.json_body",
    "repro.serving.protocol.json_response",
    "repro.serving.sse.format_event",
})
_LOG_METHOD_NAMES = frozenset({
    "debug", "info", "warning", "error", "exception", "critical", "log",
    "write",
})
_LOG_RECEIVER_NAMES = frozenset({
    "logger", "log", "logging", "warnings", "stdout", "stderr",
})
#: wire-frame builders, matched by name: payloads cross the wire
_FRAME_METHOD_NAMES = frozenset({"encode_frame"})

#: fixpoint safety valve (reprocessings per function)
_MAX_PASSES_PER_FUNCTION = 40


@dataclass(frozen=True)
class TaintSummary:
    """Interprocedural taint behaviour of one function/method."""

    #: the return value carries source taint
    returns_source: bool = False
    #: parameter indices whose taint flows into the return value
    param_returns: FrozenSet[int] = _EMPTY  # type: ignore[assignment]
    #: sink kind -> parameter indices that reach such a sink inside
    param_sinks: Tuple[Tuple[str, FrozenSet[int]], ...] = ()

    def sink_params(self, kind: str) -> FrozenSet[int]:
        for k, idxs in self.param_sinks:
            if k == kind:
                return idxs
        return frozenset()


_EMPTY_SUMMARY = TaintSummary()


@dataclass
class SinkEvent:
    """One value reaching an output channel inside one function.

    ``kind`` is one of ``raise`` / ``deny`` / ``log`` / ``journal`` /
    ``shared``; :mod:`repro.analysis.leaks` maps kinds to LEAK rules.
    ``origins`` may contain :data:`SOURCE` (a finding at this site) and/or
    parameter indices (a summary bit consumed at call sites).
    """

    kind: str
    node: ast.AST
    sink: str
    origins: FrozenSet[str]
    #: for ``deny``: the detail expression is built from constants only
    constantish: bool = True
    #: qualname of the callee when the sink is inside a summarised callee
    via: Optional[str] = None


def snippet(node: ast.AST, limit: int = 88) -> str:
    """Whitespace-normalised source rendering for sink descriptions.

    Built from the AST (``ast.unparse``), so a sink that spans reformatted
    source lines renders identically — baseline fingerprints survive
    reflowing a multi-line f-string.
    """
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - exotic nodes
        text = type(node).__name__
    text = " ".join(text.split())
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


def constantish(expr: Optional[ast.expr],
                named_constant: Callable[[str], bool]) -> bool:
    """Is a denial-detail expression built from constants only?

    Constants, f-strings over constants, concatenation of constants,
    names for which ``named_constant`` holds (module-level string
    constants), and ``DenialReason.*``/``*.value`` enum renderings
    qualify; anything else (a local name, a computed size, an
    interpolated threshold) does not.
    """
    if expr is None:
        return True
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.Name):
        return named_constant(expr.id)
    if isinstance(expr, ast.JoinedStr):
        return all(constantish(v, named_constant) for v in expr.values)
    if isinstance(expr, ast.FormattedValue):
        return constantish(expr.value, named_constant)
    if isinstance(expr, ast.BinOp):
        return (constantish(expr.left, named_constant)
                and constantish(expr.right, named_constant))
    if isinstance(expr, ast.Attribute):
        text = attr_text(expr)
        return text is not None and text.startswith("DenialReason.")
    return False


def function_params(node: FunctionNode, skip_self: bool) -> List[str]:
    """Positional-then-keyword-only parameter names, ``self`` stripped."""
    args = node.args
    params = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    if skip_self and params:
        params = params[1:]
    params += [a.arg for a in args.kwonlyargs]
    return params


@dataclass
class _FnContext:
    """Cached per-function scanning state (env, CFG, resolutions)."""

    module: str
    node: FunctionNode
    env: TypeEnv
    cfg: CFG
    param_taints: Dict[str, FrozenSet[str]]
    resolve_cache: Dict[int, Optional[ResolvedCall]] = field(
        default_factory=dict)
    type_cache: Dict[int, Optional[ClassInfo]] = field(default_factory=dict)


class TaintEngine:
    """Computes sink events and taint summaries for one package index."""

    def __init__(self, facts: FunctionFacts, engine: EffectEngine,
                 escape: Optional[EscapeEngine] = None) -> None:
        self.facts = facts
        self.index = facts.index
        self.resolver = facts.resolver
        self.engine = engine
        self.escape = escape
        self._summaries: Dict[int, TaintSummary] = {}
        self._events: Dict[int, List[SinkEvent]] = {}
        self._contexts: Dict[int, _FnContext] = {}
        self._callers: Dict[int, Set[int]] = {}
        self._compute()

    # -- public accessors ----------------------------------------------

    def summary_of(self, node: FunctionNode) -> TaintSummary:
        return self._summaries.get(id(node), _EMPTY_SUMMARY)

    def events_for(self, node: FunctionNode) -> List[SinkEvent]:
        """Sink events of one function, consistent with the fixpoint."""
        return self._events.get(id(node), [])

    # -- context and resolution caches ---------------------------------

    def _context(self, module: str, node: FunctionNode,
                 self_class: Optional[ClassInfo]) -> _FnContext:
        ctx = self._contexts.get(id(node))
        if ctx is not None:
            return ctx
        params = function_params(node, skip_self=self_class is not None)
        param_taints = {name: frozenset({_param(i)})
                        for i, name in enumerate(params)}
        ctx = _FnContext(module=module, node=node,
                         env=self.facts.typed_env(module, node, self_class),
                         cfg=self.facts.cfg(node),
                         param_taints=param_taints)
        self._contexts[id(node)] = ctx
        return ctx

    def _resolve(self, func: ast.expr, ctx: _FnContext
                 ) -> Optional[ResolvedCall]:
        cached = ctx.resolve_cache.get(id(func))
        if id(func) in ctx.resolve_cache:
            return cached
        try:
            resolved = self.resolver.resolve_call(func, ctx.env)
        except RecursionError:  # pragma: no cover - pathological MROs
            resolved = None
        ctx.resolve_cache[id(func)] = resolved
        return resolved

    def _infer(self, expr: ast.expr, ctx: _FnContext) -> Optional[ClassInfo]:
        cached = ctx.type_cache.get(id(expr))
        if id(expr) in ctx.type_cache:
            return cached
        try:
            inferred = self.resolver.infer_type(expr, ctx.env)
        except RecursionError:  # pragma: no cover
            inferred = None
        ctx.type_cache[id(expr)] = inferred
        return inferred

    def _source_public(self, cls: Optional[ClassInfo]
                       ) -> Optional[FrozenSet[str]]:
        """The public-member allowlist when ``cls`` is a source class."""
        if cls is None:
            return None
        for c in self.resolver.mro(cls):
            public = _SOURCE_CLASSES.get(c.qualname)
            if public is not None:
                return public
        return None

    # -- expression evaluation -----------------------------------------

    def expr_taint(self, expr: Optional[ast.expr],
                   state: Dict[str, FrozenSet[str]],
                   ctx: _FnContext) -> FrozenSet[str]:
        """The origin set of one expression under ``state``."""
        if expr is None or isinstance(expr, (ast.Constant, ast.Lambda)):
            return _EMPTY
        if isinstance(expr, ast.Name):
            return state.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Call):
            return self.call_taint(expr, state, ctx)
        if isinstance(expr, ast.Attribute):
            return self._attribute_taint(expr, state, ctx)
        if isinstance(expr, ast.Subscript):
            return self._subscript_taint(expr, state, ctx)
        if isinstance(expr, ast.Compare):
            # one-bit predicates: explicit value flows only (paper model —
            # decision bits are the sanctioned channel, audited separately)
            return _EMPTY
        if isinstance(expr, (ast.JoinedStr, ast.Tuple, ast.List, ast.Set)):
            values = (expr.values if isinstance(expr, ast.JoinedStr)
                      else expr.elts)
            out: FrozenSet[str] = _EMPTY
            for item in values:
                out |= self.expr_taint(item, state, ctx)
            return out
        if isinstance(expr, ast.FormattedValue):
            out = self.expr_taint(expr.value, state, ctx)
            if expr.format_spec is not None:
                out |= self.expr_taint(expr.format_spec, state, ctx)
            return out
        if isinstance(expr, ast.Dict):
            out = _EMPTY
            for key in expr.keys:
                out |= self.expr_taint(key, state, ctx)
            for value in expr.values:
                out |= self.expr_taint(value, state, ctx)
            return out
        if isinstance(expr, ast.BinOp):
            return (self.expr_taint(expr.left, state, ctx)
                    | self.expr_taint(expr.right, state, ctx))
        if isinstance(expr, ast.BoolOp):
            out = _EMPTY
            for value in expr.values:
                out |= self.expr_taint(value, state, ctx)
            return out
        if isinstance(expr, (ast.UnaryOp, ast.Starred, ast.Await)):
            inner = (expr.operand if isinstance(expr, ast.UnaryOp)
                     else expr.value)
            return self.expr_taint(inner, state, ctx)
        if isinstance(expr, ast.IfExp):
            return (self.expr_taint(expr.body, state, ctx)
                    | self.expr_taint(expr.orelse, state, ctx))
        if isinstance(expr, ast.NamedExpr):
            return self.expr_taint(expr.value, state, ctx)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension_taint(expr, state, ctx)
        if isinstance(expr, ast.Slice):
            out = _EMPTY
            for part in (expr.lower, expr.upper, expr.step):
                out |= self.expr_taint(part, state, ctx)
            return out
        # conservative default: union over child expressions
        out = _EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.expr_taint(child, state, ctx)
        return out

    def _attribute_taint(self, expr: ast.Attribute,
                         state: Dict[str, FrozenSet[str]],
                         ctx: _FnContext) -> FrozenSet[str]:
        public = self._source_public(self._infer(expr.value, ctx))
        if public is not None and expr.attr not in public:
            return _SOURCE_ONLY
        if expr.attr in _SANITIZER_ATTR_NAMES:
            return _EMPTY
        if public is None and expr.attr in SENSITIVE_ATTR_NAMES:
            root = _root_name(expr.value)
            if root is not None and root.lower() in DATASET_LIKE_NAMES:
                return _SOURCE_ONLY
        return self.expr_taint(expr.value, state, ctx)

    def _subscript_taint(self, expr: ast.Subscript,
                         state: Dict[str, FrozenSet[str]],
                         ctx: _FnContext) -> FrozenSet[str]:
        public = self._source_public(self._infer(expr.value, ctx))
        if public is not None:
            return _SOURCE_ONLY
        base = self.expr_taint(expr.value, state, ctx)
        index = expr.slice
        if (isinstance(index, ast.Name)
                and index.id in _SOURCE_INDEX_NAMES):
            # ``rec[sensitive_column]``: a cell read out of a raw record
            return base | _SOURCE_ONLY
        return base | self.expr_taint(index, state, ctx)

    def _comprehension_taint(self, expr: ast.expr,
                             state: Dict[str, FrozenSet[str]],
                             ctx: _FnContext) -> FrozenSet[str]:
        inner = dict(state)
        for gen in expr.generators:  # type: ignore[attr-defined]
            iter_taint = self._iteration_taint(gen.iter, inner, ctx)
            for name_node in ast.walk(gen.target):
                if isinstance(name_node, ast.Name):
                    if iter_taint:
                        inner[name_node.id] = iter_taint
                    else:
                        inner.pop(name_node.id, None)
        if isinstance(expr, ast.DictComp):
            return (self.expr_taint(expr.key, inner, ctx)
                    | self.expr_taint(expr.value, inner, ctx))
        return self.expr_taint(expr.elt, inner, ctx)  # type: ignore

    def _iteration_taint(self, iterable: ast.expr,
                         state: Dict[str, FrozenSet[str]],
                         ctx: _FnContext) -> FrozenSet[str]:
        """Taint of the *elements* yielded by iterating ``iterable``."""
        taint = self.expr_taint(iterable, state, ctx)
        if self._source_public(self._infer(iterable, ctx)) is not None:
            # iterating a source object enumerates its cells
            taint |= _SOURCE_ONLY
        return taint

    # -- call evaluation -----------------------------------------------

    def call_taint(self, call: ast.Call, state: Dict[str, FrozenSet[str]],
                   ctx: _FnContext) -> FrozenSet[str]:
        """The origin set of a call's return value."""
        func = call.func
        name = func.id if isinstance(func, ast.Name) else None
        dotted = dotted_callee(func, self.index, ctx.module)
        resolved = self._resolve(func, ctx)
        qual = resolved.qualname if resolved is not None else None

        if name in _SANITIZER_BUILTINS:
            return _EMPTY
        for candidate in (qual, dotted):
            if candidate in _SANITIZER_FUNCTIONS:
                return _EMPTY
            if candidate in _RELEASE_FUNCTIONS:
                return _EMPTY
        if (isinstance(func, ast.Attribute)
                and func.attr in ("answer", "deny")
                and attr_text(func.value) in _RELEASE_RECEIVER_NAMES):
            return _EMPTY
        if qual in TRUE_ANSWER_FUNCTIONS or dotted in TRUE_ANSWER_FUNCTIONS:
            return _SOURCE_ONLY
        if qual in _SOURCE_METHODS:
            return _SOURCE_ONLY
        if resolved is not None and resolved.constructed is not None:
            constructed = resolved.constructed
            if self._source_public(constructed) is not None:
                # constructing a synopsis/dataset yields the *handle*, not
                # cell data — reads off it are the sources
                return _EMPTY
            if (self.escape is not None
                    and self.escape.is_shared_class(constructed)):
                # same for the serving objects that *own* the data
                # (engine, frontend, cache): the handle is public, reads
                # off it are governed by the source/attribute rules
                return _EMPTY
            # other constructors: a record wrapping a tainted value stays
            # tainted (fall through to the argument union)
        elif resolved is not None and resolved.self_class is not None:
            public = self._source_public(resolved.self_class)
            if public is not None:
                method = (qual or "").rsplit(".", 1)[-1]
                return _EMPTY if method in public else _SOURCE_ONLY

        receiver = (self.expr_taint(func.value, state, ctx)
                    if isinstance(func, ast.Attribute) else _EMPTY)
        arg_taints: List[FrozenSet[str]] = []
        starred = False
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                starred = True
                arg_taints.append(self.expr_taint(arg.value, state, ctx))
            else:
                arg_taints.append(self.expr_taint(arg, state, ctx))
        kw_taints: Dict[Optional[str], FrozenSet[str]] = {}
        for kw in call.keywords:
            kw_taints[kw.arg] = (kw_taints.get(kw.arg, _EMPTY)
                                 | self.expr_taint(kw.value, state, ctx))

        if (resolved is not None and resolved.node is not None
                and resolved.constructed is None and not starred
                and None not in kw_taints):
            summary = self._summaries.get(id(resolved.node))
            if summary is not None:
                out: Set[str] = set()
                if summary.returns_source:
                    out.add(SOURCE)
                mapping = self._arg_origins(call, resolved, arg_taints,
                                            kw_taints)
                for i in summary.param_returns:
                    out |= mapping.get(i, _EMPTY)
                return frozenset(out) | receiver
        # unknown callee (str(), .join(), .format(), numpy, ...): the
        # result derives from whatever went in
        out = set(receiver)
        for taint in arg_taints:
            out |= taint
        for taint in kw_taints.values():
            out |= taint
        return frozenset(out)

    def _arg_origins(self, call: ast.Call, resolved: ResolvedCall,
                     arg_taints: List[FrozenSet[str]],
                     kw_taints: Dict[Optional[str], FrozenSet[str]],
                     ) -> Dict[int, FrozenSet[str]]:
        """Map callee parameter index -> caller-side origin set."""
        assert resolved.node is not None
        skip_self = (resolved.self_class is not None
                     or resolved.constructed is not None)
        params = function_params(resolved.node, skip_self=skip_self)
        mapping: Dict[int, FrozenSet[str]] = {}
        for pos, taint in enumerate(arg_taints):
            if pos < len(params) and taint:
                mapping[pos] = mapping.get(pos, _EMPTY) | taint
        index_of = {p: i for i, p in enumerate(params)}
        for kw_name, taint in kw_taints.items():
            if kw_name is None or not taint:
                continue
            i = index_of.get(kw_name)
            if i is not None:
                mapping[i] = mapping.get(i, _EMPTY) | taint
        return mapping

    # -- flow analysis --------------------------------------------------

    def _taint_states(self, ctx: _FnContext
                      ) -> Dict[int, Dict[str, FrozenSet[str]]]:
        """Union-join forward flow: state *before* each CFG node.

        :func:`~repro.analysis.cfg.flow_locals` intersects at joins (right
        for *typing*); taint must **union** — a value tainted on one arm is
        tainted after the join.  Origin sets are finite, the transfer is
        monotone under union, so this terminates; ``max_rounds`` is a
        safety valve.
        """
        cfg = ctx.cfg
        initial = dict(ctx.param_taints)
        before: Dict[int, Dict[str, FrozenSet[str]]] = {}
        after: Dict[int, Dict[str, FrozenSet[str]]] = {}
        order = sorted(cfg.nodes)
        for _ in range(16):
            changed = False
            for sid in order:
                node = cfg.nodes[sid]
                if sid == cfg.entry:
                    state = dict(initial)
                else:
                    pred_states = [after[p] for p in node.preds if p in after]
                    if pred_states:
                        state = {}
                        for pred_state in pred_states:
                            for key, value in pred_state.items():
                                state[key] = state.get(key, _EMPTY) | value
                    else:
                        state = dict(initial)
                if before.get(sid) != state:
                    before[sid] = dict(state)
                    changed = True
                out = (self._transfer(node, dict(state), ctx)
                       if node.node is not None else dict(state))
                if after.get(sid) != out:
                    after[sid] = out
                    changed = True
            if not changed:
                break
        return before

    def _transfer(self, stmt: StmtNode, state: Dict[str, FrozenSet[str]],
                  ctx: _FnContext) -> Dict[str, FrozenSet[str]]:
        node = stmt.node
        if isinstance(node, ast.Assign):
            taint = self.expr_taint(node.value, state, ctx)
            for target in node.targets:
                self._bind(target, taint, state, ctx)
        elif isinstance(node, ast.AugAssign):
            taint = self.expr_taint(node.value, state, ctx)
            if isinstance(node.target, ast.Name):
                taint |= state.get(node.target.id, _EMPTY)
            self._bind(node.target, taint, state, ctx)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind(node.target,
                       self.expr_taint(node.value, state, ctx), state, ctx)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and stmt.is_header:
            taint = self._iteration_taint(node.iter, state, ctx)
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    if taint:
                        state[name_node.id] = taint
                    else:
                        state.pop(name_node.id, None)
        elif isinstance(node, (ast.With, ast.AsyncWith)) and stmt.is_header:
            for item in node.items:
                if item.optional_vars is not None:
                    taint = self.expr_taint(item.context_expr, state, ctx)
                    self._bind(item.optional_vars, taint, state, ctx)
        # ``msgs.append(tainted)`` taints msgs — value flows into the
        # container the statement mutates
        for call in stmt_expr_nodes(stmt, (ast.Call,)):
            func = call.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS):
                root = _root_name(func.value)
                if root is None:
                    continue
                taint: FrozenSet[str] = _EMPTY
                for arg in call.args:
                    inner = arg.value if isinstance(arg, ast.Starred) else arg
                    taint |= self.expr_taint(inner, state, ctx)
                for kw in call.keywords:
                    taint |= self.expr_taint(kw.value, state, ctx)
                if taint:
                    state[root] = state.get(root, _EMPTY) | taint
        return state

    def _bind(self, target: ast.expr, taint: FrozenSet[str],
              state: Dict[str, FrozenSet[str]], ctx: _FnContext) -> None:
        if isinstance(target, ast.Name):
            if taint:
                state[target.id] = taint
            else:
                state.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, state, ctx)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, state, ctx)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # storing into obj.x / obj[k] taints the local holding obj
            root = _root_name(target.value)
            if root is not None and taint:
                state[root] = state.get(root, _EMPTY) | taint

    # -- sink detection -------------------------------------------------

    def _scan_statement(self, stmt: StmtNode,
                        state: Dict[str, FrozenSet[str]],
                        ctx: _FnContext, events: List[SinkEvent]) -> None:
        node = stmt.node
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                origins: FrozenSet[str] = _EMPTY
                for arg in exc.args:
                    inner = (arg.value if isinstance(arg, ast.Starred)
                             else arg)
                    origins |= self.expr_taint(inner, state, ctx)
                for kw in exc.keywords:
                    origins |= self.expr_taint(kw.value, state, ctx)
            else:
                origins = self.expr_taint(exc, state, ctx)
            if origins:
                events.append(SinkEvent(
                    kind="raise", node=node,
                    sink=f"raise {snippet(exc)}", origins=origins))
        for call in stmt_expr_nodes(stmt, (ast.Call,)):
            self._scan_call(call, state, ctx, events)
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or self.escape is None:
            return
        flat: List[ast.expr] = []
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                flat.extend(target.elts)
            else:
                flat.append(target)
        value_taint: Optional[FrozenSet[str]] = None
        for target in flat:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            if not self.escape.is_shared_class(
                    self._infer(target.value, ctx)):
                continue
            root = _root_name(target.value)
            if (root is not None and root == ctx.env.self_name
                    and ctx.node.name == "__init__"):
                # a shared class populating itself during its own
                # construction is ownership, not a leak into live state
                continue
            if value_taint is None:
                value_taint = self.expr_taint(value, state, ctx)
            if value_taint:
                events.append(SinkEvent(
                    kind="shared", node=target,
                    sink=f"store to {snippet(target)}",
                    origins=value_taint))

    def _scan_call(self, call: ast.Call, state: Dict[str, FrozenSet[str]],
                   ctx: _FnContext, events: List[SinkEvent]) -> None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else None
        dotted = dotted_callee(func, self.index, ctx.module)
        resolved = self._resolve(func, ctx)
        qual = resolved.qualname if resolved is not None else None

        def args_taint() -> FrozenSet[str]:
            out: FrozenSet[str] = _EMPTY
            for arg in call.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                out |= self.expr_taint(inner, state, ctx)
            for kw in call.keywords:
                out |= self.expr_taint(kw.value, state, ctx)
            return out

        is_deny = qual in _DENY_FUNCTIONS or (
            isinstance(func, ast.Attribute) and func.attr == "deny"
            and attr_text(func.value) in _RELEASE_RECEIVER_NAMES)
        if is_deny:
            detail: Optional[ast.expr] = None
            if len(call.args) > 1:
                detail = call.args[1]
            else:
                for kw in call.keywords:
                    if kw.arg == "detail":
                        detail = kw.value
            if detail is not None:
                origins = self.expr_taint(detail, state, ctx)
                is_const = constantish(
                    detail, lambda name: self.index.is_string_constant(
                        ctx.module, name))
                if origins or not is_const:
                    events.append(SinkEvent(
                        kind="deny", node=call,
                        sink=f"deny(detail={snippet(detail)})",
                        origins=origins, constantish=is_const))
            return
        if qual in _RELEASE_FUNCTIONS:
            return

        is_log = (name == "print"
                  or dotted in _LOG_CALLABLES
                  or qual in _LOG_FUNCTIONS
                  or dotted in _LOG_FUNCTIONS
                  or (dotted is not None
                      and dotted.startswith(_LOG_PREFIXES)))
        if not is_log and isinstance(func, ast.Attribute):
            root = (_root_name(func.value) or "").lower()
            if (func.attr in _LOG_METHOD_NAMES
                    and root in _LOG_RECEIVER_NAMES):
                is_log = True
        if is_log:
            origins = args_taint()
            if origins:
                events.append(SinkEvent(
                    kind="log", node=call,
                    sink=f"{snippet(func)}(...)", origins=origins))
            return

        facts = self.engine.call_facts(call, ctx.module, ctx.env)
        is_frame = (name in _FRAME_METHOD_NAMES
                    or (isinstance(func, ast.Attribute)
                        and func.attr in _FRAME_METHOD_NAMES))
        if facts.appends or is_frame:
            origins = args_taint()
            if origins:
                kind_text = "frame" if is_frame else "append"
                events.append(SinkEvent(
                    kind="journal", node=call,
                    sink=f"{snippet(func)}(...) {kind_text} payload",
                    origins=origins))
            return

        if resolved is not None and resolved.node is not None:
            summary = self._summaries.get(id(resolved.node))
            if summary is None or not summary.param_sinks:
                return
            arg_taints = [
                self.expr_taint(
                    a.value if isinstance(a, ast.Starred) else a, state, ctx)
                for a in call.args]
            if any(isinstance(a, ast.Starred) for a in call.args):
                return
            kw_taints: Dict[Optional[str], FrozenSet[str]] = {}
            for kw in call.keywords:
                kw_taints[kw.arg] = (kw_taints.get(kw.arg, _EMPTY)
                                     | self.expr_taint(kw.value, state, ctx))
            if None in kw_taints:
                return
            mapping = self._arg_origins(call, resolved, arg_taints,
                                        kw_taints)
            for kind, idxs in summary.param_sinks:
                if kind == "shared" and resolved.constructed is not None:
                    # constructing a shared object is ownership transfer,
                    # not a store into already-live shared state
                    continue
                origins = _EMPTY
                for i in idxs:
                    origins |= mapping.get(i, _EMPTY)
                if origins:
                    events.append(SinkEvent(
                        kind=kind, node=call,
                        sink=f"{snippet(func)}(...)",
                        origins=origins, via=qual))

    # -- per-function analysis and the fixpoint -------------------------

    def _analyze(self, ctx: _FnContext
                 ) -> Tuple[TaintSummary, List[SinkEvent]]:
        states = self._taint_states(ctx)
        events: List[SinkEvent] = []
        for stmt in ctx.cfg.statements():
            state = states.get(stmt.sid, ctx.param_taints)
            self._scan_statement(stmt, state, ctx, events)
        returns_source = False
        param_returns: Set[int] = set()
        for sid in ctx.cfg.returns:
            ret = ctx.cfg.nodes[sid].node
            if not isinstance(ret, ast.Return) or ret.value is None:
                continue
            taint = self.expr_taint(
                ret.value, states.get(sid, ctx.param_taints), ctx)
            for origin in taint:
                if origin == SOURCE:
                    returns_source = True
                else:
                    index = param_index(origin)
                    if index is not None:
                        param_returns.add(index)
        param_sinks: Dict[str, Set[int]] = {}
        for event in events:
            for origin in event.origins:
                index = param_index(origin)
                if index is not None:
                    param_sinks.setdefault(event.kind, set()).add(index)
        summary = TaintSummary(
            returns_source=returns_source,
            param_returns=frozenset(param_returns),
            param_sinks=tuple(sorted(
                (kind, frozenset(idxs))
                for kind, idxs in param_sinks.items())),
        )
        return summary, events

    def _compute(self) -> None:
        functions = self.facts.functions
        by_id = {id(node): (module, node, self_class)
                 for module, node, self_class in functions}
        for fid in by_id:
            self._summaries[fid] = _EMPTY_SUMMARY
        # reverse call edges drive the worklist
        for module, node, self_class in functions:
            ctx = self._context(module, node, self_class)
            for call in self.facts.calls(node):
                resolved = self._resolve(call.func, ctx)
                if resolved is not None and resolved.node is not None:
                    self._callers.setdefault(
                        id(resolved.node), set()).add(id(node))
        pending = deque(by_id)
        queued = set(by_id)
        passes: Dict[int, int] = {}
        while pending:
            fid = pending.popleft()
            queued.discard(fid)
            passes[fid] = passes.get(fid, 0) + 1
            if passes[fid] > _MAX_PASSES_PER_FUNCTION:
                continue  # pragma: no cover - safety valve
            module, node, self_class = by_id[fid]
            ctx = self._context(module, node, self_class)
            summary, events = self._analyze(ctx)
            self._events[fid] = events
            if summary != self._summaries[fid]:
                self._summaries[fid] = summary
                for caller in self._callers.get(fid, ()):
                    if caller not in queued and caller in by_id:
                        pending.append(caller)
                        queued.add(caller)


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base Name an attribute/subscript chain hangs off, if any."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None
