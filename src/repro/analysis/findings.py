"""Finding and report types for the static analyzers.

A *finding* is one rule hit (a sensitive read on a decision path, an
unseeded RNG call in a sampler, a release not dominated by a journal
append, …) together with the call chain that reaches it.  Findings are
plain data so they serialise to a stable JSON schema (``SCHEMA_VERSION``)
that the CLI, the pytest gates, the SARIF emitter, and CI all consume.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .modindex import ClassInfo, PackageIndex

#: Bumped only when the JSON layout changes incompatibly.
#: v2: per-finding ``fingerprint`` (baseline key), report-level ``rules``,
#: ``baselined`` severity/count, ``functions_scanned`` count.
SCHEMA_VERSION = 2

#: Rule identifiers, stable across releases.
RULE_TRUE_ANSWER = "SIM001"
RULE_SENSITIVE_READ = "SIM002"
RULE_SENSITIVE_ESCAPE = "SIM003"
RULE_UNSEEDED_RNG = "DET001"
RULE_WALLCLOCK_READ = "DET002"
RULE_UNORDERED_ITERATION = "DET003"
RULE_UNORDERED_ACCUMULATION = "DET004"
RULE_RELEASE_BEFORE_APPEND = "WAL001"
RULE_SWALLOWED_APPEND_FAILURE = "WAL002"
RULE_UNCHECKPOINTED_LOOP = "BUD001"
RULE_UNGUARDED_GUARDED_STATE = "CONC001"
RULE_ACQUIRE_WITHOUT_RELEASE = "CONC002"
RULE_BLOCKING_UNDER_LOCK = "CONC003"
RULE_UNSYNCHRONIZED_SHARED_MUTATION = "CONC004"
RULE_HANDLE_IN_WORKER_PAYLOAD = "FORK001"
RULE_EFFECTFUL_WORKER_FN = "FORK002"
RULE_NONSPAWN_CONTEXT = "FORK003"
RULE_RENAME_WITHOUT_FSYNC = "ATOM001"
RULE_FSYNC_WITHOUT_FLUSH = "ATOM002"
RULE_TAINTED_EXCEPTION = "LEAK001"
RULE_TAINTED_LOG = "LEAK002"
RULE_TAINTED_JOURNAL = "LEAK003"
RULE_TAINTED_SHARED_STATE = "LEAK004"

#: Every rule the full analyzer can run, grouped by family.
RULE_FAMILIES: Dict[str, tuple] = {
    "SIM": (RULE_TRUE_ANSWER, RULE_SENSITIVE_READ, RULE_SENSITIVE_ESCAPE),
    "DET": (RULE_UNSEEDED_RNG, RULE_WALLCLOCK_READ,
            RULE_UNORDERED_ITERATION, RULE_UNORDERED_ACCUMULATION),
    "WAL": (RULE_RELEASE_BEFORE_APPEND, RULE_SWALLOWED_APPEND_FAILURE),
    "BUD": (RULE_UNCHECKPOINTED_LOOP,),
    "CONC": (RULE_UNGUARDED_GUARDED_STATE, RULE_ACQUIRE_WITHOUT_RELEASE,
             RULE_BLOCKING_UNDER_LOCK,
             RULE_UNSYNCHRONIZED_SHARED_MUTATION),
    "FORK": (RULE_HANDLE_IN_WORKER_PAYLOAD, RULE_EFFECTFUL_WORKER_FN,
             RULE_NONSPAWN_CONTEXT),
    "ATOM": (RULE_RENAME_WITHOUT_FSYNC, RULE_FSYNC_WITHOUT_FLUSH),
    "LEAK": (RULE_TAINTED_EXCEPTION, RULE_TAINTED_LOG,
             RULE_TAINTED_JOURNAL, RULE_TAINTED_SHARED_STATE),
}

ALL_RULES: tuple = tuple(rule for rules in RULE_FAMILIES.values()
                         for rule in rules)

RULE_SUMMARIES = {
    RULE_TRUE_ANSWER:
        "decision path evaluates the true answer of a query "
        "(true_answer / evaluate_aggregate)",
    RULE_SENSITIVE_READ:
        "decision path reads sensitive dataset values "
        "(values / element access / value-enumerating accessor)",
    RULE_SENSITIVE_ESCAPE:
        "decision path passes the sensitive dataset into a call the "
        "analyzer cannot follow",
    RULE_UNSEEDED_RNG:
        "decision/sampler path calls unseeded or global-state RNG "
        "(random.*, np.random.<fn>, default_rng() with no seed)",
    RULE_WALLCLOCK_READ:
        "decision/sampler path reads wall-clock time or OS entropy "
        "(time.time, os.urandom, uuid4, datetime.now)",
    RULE_UNORDERED_ITERATION:
        "decision/sampler path iterates a set/dict where order can reach "
        "released answers or RNG consumption order",
    RULE_UNORDERED_ACCUMULATION:
        "non-canonical float accumulation: sum() over an unordered "
        "collection on a replay-sensitive path",
    RULE_RELEASE_BEFORE_APPEND:
        "a code path releases an answer without a dominating audit-journal "
        "append (fail-closed ordering)",
    RULE_SWALLOWED_APPEND_FAILURE:
        "an exception handler swallows a journal-write failure and the "
        "function can still release an answer",
    RULE_UNCHECKPOINTED_LOOP:
        "a sampler/chain loop does work with no Budget checkpoint call "
        "in its body",
    RULE_UNGUARDED_GUARDED_STATE:
        "a lock-owning class mutates instance state outside a "
        "'with self._lock' region",
    RULE_ACQUIRE_WITHOUT_RELEASE:
        "an explicit lock.acquire() has no release() guaranteed on "
        "exception paths (use 'with lock:' or try/finally)",
    RULE_BLOCKING_UNDER_LOCK:
        "a blocking call (fsync, pool fan-out, sampler draw, sleep) runs "
        "while a lock is held",
    RULE_UNSYNCHRONIZED_SHARED_MUTATION:
        "thread-shared state (escape analysis) is mutated with no lock "
        "held: a shared-class attribute or a worker-context module global",
    RULE_HANDLE_IN_WORKER_PAYLOAD:
        "a live WAL/journal/file handle or np.random.Generator flows into "
        "a worker payload (Pool.map/submit/initargs/Thread args)",
    RULE_EFFECTFUL_WORKER_FN:
        "a worker function's effect summary appends to the journal or "
        "draws unseeded randomness (duplicated state across processes)",
    RULE_NONSPAWN_CONTEXT:
        "multiprocessing used without an explicit spawn context (fork "
        "duplicates locks, RNG state, and open handles)",
    RULE_RENAME_WITHOUT_FSYNC:
        "os.rename/os.replace of a durability artifact without a "
        "dominating file fsync and a post-dominating parent-dir fsync",
    RULE_FSYNC_WITHOUT_FLUSH:
        "os.fsync of a buffered handle not dominated by flush(): the "
        "kernel syncs a partial write",
    RULE_TAINTED_EXCEPTION:
        "a sensitive-tainted value (dataset cell, true answer, synopsis "
        "internals) reaches an exception message or denial-detail string",
    RULE_TAINTED_LOG:
        "a sensitive-tainted value reaches logging/print/CSV-export "
        "output outside the released-answer path",
    RULE_TAINTED_JOURNAL:
        "a sensitive-tainted value is serialized into a journal/WAL "
        "payload or replication frame beyond the released decision record",
    RULE_TAINTED_SHARED_STATE:
        "a sensitive-tainted value is stored on escape-marked "
        "thread-shared state",
}


def expand_rule_selection(tokens: Optional[List[str]]) -> Optional[set]:
    """Expand ``--select``/``--ignore`` tokens (families or rule IDs).

    ``None`` stays None (= everything); unknown tokens raise ValueError so
    typos fail loudly in CI.
    """
    if tokens is None:
        return None
    out: set = set()
    for token in tokens:
        token = token.strip().upper()
        if not token:
            continue
        if token in RULE_FAMILIES:
            out.update(RULE_FAMILIES[token])
        elif token in ALL_RULES:
            out.add(token)
        else:
            raise ValueError(f"unknown rule or family: {token!r} "
                             f"(families: {', '.join(RULE_FAMILIES)})")
    return out


@dataclass(frozen=True)
class Frame:
    """One hop of the call chain from entry point to sink."""

    function: str           #: qualified name, e.g. ``NaiveMaxAuditor._deny_reason``
    module: str             #: dotted module, e.g. ``repro.auditors.naive``
    file: str               #: path relative to the analysis root
    line: int               #: line of the call site (or def line for the entry)

    def to_dict(self) -> Dict[str, Any]:
        return {"function": self.function, "module": self.module,
                "file": self.file, "line": self.line}

    def __str__(self) -> str:
        return f"{self.function} ({self.file}:{self.line})"


@dataclass(frozen=True)
class Finding:
    """One rule hit reachable from an analysis entry point."""

    rule: str
    message: str
    file: str
    line: int
    col: int
    entry_class: str
    entry_method: str
    entry_module: str
    sink: str
    chain: tuple = ()                       # tuple[Frame, ...]
    pragma_reason: Optional[str] = None     # set => documented violation
    baselined: bool = False                 # set => suppressed by baseline

    @property
    def documented(self) -> bool:
        """Whether a violation pragma covers the path."""
        return self.pragma_reason is not None

    @property
    def severity(self) -> str:
        if self.documented:
            return "documented"
        if self.baselined:
            return "baselined"
        return "violation"

    @property
    def fingerprint(self) -> str:
        """Line-insensitive identity used by baselines and SARIF.

        Deliberately excludes the line/column so a baseline survives
        unrelated edits above the finding.  The sink text is
        whitespace-normalised so a sink expression that gets reflowed
        across source lines (a multi-line f-string, a wrapped call)
        keeps the same fingerprint.
        """
        key = "|".join((self.rule, self.file, self.entry_class,
                        self.entry_method, " ".join(self.sink.split())))
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    @property
    def suppress_hint(self) -> str:
        """The pragma that would document this finding."""
        return f"# audit: {self.rule} -- <why this is intentional>"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "entry": {"class": self.entry_class,
                      "method": self.entry_method,
                      "module": self.entry_module},
            "sink": self.sink,
            "chain": [frame.to_dict() for frame in self.chain],
            "pragma": self.pragma_reason,
            "fingerprint": self.fingerprint,
        }

    def format_text(self) -> str:
        """Multi-line human-readable rendering (file:line first)."""
        head = (f"{self.file}:{self.line}:{self.col}: {self.rule} "
                f"[{self.severity}] {self.message}")
        lines = [head,
                 f"    entry: {self.entry_module}."
                 f"{self.entry_class}.{self.entry_method}"
                 if self.entry_class else
                 f"    entry: {self.entry_module}.{self.entry_method}"]
        for depth, frame in enumerate(self.chain):
            lines.append(f"    {'  ' * depth}-> {frame}")
        lines.append(f"    sink: {self.sink}")
        if self.pragma_reason is not None:
            lines.append(f"    pragma: {self.pragma_reason}")
        elif not self.baselined:
            lines.append(f"    suppress: {self.suppress_hint}")
        return "\n".join(lines)


def function_finding(index: "PackageIndex", rule: str, module: str,
                     node: ast.AST, sink: str, message: str,
                     self_class: Optional["ClassInfo"],
                     method: str) -> Finding:
    """A finding whose call chain is the one function it sits in."""
    line = getattr(node, "lineno", 0)
    entry_class = self_class.name if self_class is not None else ""
    file = index.relpath(module)
    frame = Frame(function=f"{entry_class}.{method}" if entry_class
                  else method, module=module, file=file, line=line)
    return Finding(rule=rule, message=message, file=file, line=line,
                   col=getattr(node, "col_offset", 0),
                   entry_class=entry_class, entry_method=method,
                   entry_module=module, sink=sink, chain=(frame,),
                   pragma_reason=index.pragma_for(module, rule, line))


@dataclass
class Report:
    """Everything one analysis run produced."""

    package: str
    root: str
    findings: List[Finding] = field(default_factory=list)
    entry_points: int = 0
    classes_checked: int = 0
    modules_scanned: int = 0
    functions_scanned: int = 0
    #: rule IDs this run actually evaluated (empty = legacy SIM-only run)
    rules: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[Finding]:
        """Undocumented, un-baselined findings — these fail the gate."""
        return [f for f in self.findings
                if not f.documented and not f.baselined]

    @property
    def documented(self) -> List[Finding]:
        """Findings covered by a violation pragma."""
        return [f for f in self.findings if f.documented]

    @property
    def baselined(self) -> List[Finding]:
        """Findings suppressed by the ``--baseline`` file."""
        return [f for f in self.findings
                if f.baselined and not f.documented]

    @property
    def ok(self) -> bool:
        """True when no undocumented violation remains."""
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        ordered = sorted(self.findings,
                         key=lambda f: (f.file, f.line, f.col, f.rule))
        return {
            "schema_version": SCHEMA_VERSION,
            "package": self.package,
            "root": self.root,
            "rules": sorted(self.rules),
            "counts": {
                "findings": len(self.findings),
                "violations": len(self.violations),
                "documented": len(self.documented),
                "baselined": len(self.baselined),
                "entry_points": self.entry_points,
                "classes_checked": self.classes_checked,
                "modules_scanned": self.modules_scanned,
                "functions_scanned": self.functions_scanned,
            },
            "findings": [f.to_dict() for f in ordered],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def format_text(self) -> str:
        """The ``repro-audit lint --format text`` rendering."""
        lines: List[str] = []
        ordered = sorted(self.findings,
                         key=lambda f: (f.file, f.line, f.col, f.rule))
        for finding in ordered:
            lines.append(finding.format_text())
            lines.append("")
        lines.append(
            f"simulatability: {self.classes_checked} auditor class(es), "
            f"{self.entry_points} decision entry point(s), "
            f"{self.modules_scanned} module(s) scanned"
        )
        if self.rules:
            families = sorted({rule.rstrip("0123456789")
                               for rule in self.rules})
            lines.append(
                f"analysis: {len(self.rules)} rule(s) active "
                f"({'/'.join(families)}), "
                f"{self.functions_scanned} function(s) scanned"
            )
        if not self.findings:
            lines.append("no sensitive reads reachable from decision paths")
        else:
            summary = (f"{len(self.violations)} violation(s), "
                       f"{len(self.documented)} documented violation(s)")
            if self.baselined:
                summary += f", {len(self.baselined)} baselined"
            lines.append(summary)
        return "\n".join(lines)
