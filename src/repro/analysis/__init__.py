"""Static analysis tooling enforcing the paper's safety contracts.

Eight rule families prove the serving invariants at lint time:

* **SIM** (:mod:`~repro.analysis.simulatability`) — auditor decision paths
  never touch the sensitive data (paper §2.2);
* **DET** (:mod:`~repro.analysis.determinism`) — decision/sampler paths
  are bitwise deterministic: no unseeded RNG, wall-clock reads, or
  set/dict-iteration-order dependence;
* **WAL** (:mod:`~repro.analysis.ordering`) — every released answer is
  dominated by an audit-journal append (fail-closed ordering);
* **BUD** (:mod:`~repro.analysis.ordering`) — sampler/chain loops
  checkpoint their budget so exhaustion can cancel them cooperatively;
* **CONC** (:mod:`~repro.analysis.concurrency`) — shared serving state is
  mutated only under its lock, locks are released on every exception
  path, and nothing blocks while holding one;
* **FORK** (:mod:`~repro.analysis.forksafety`) — worker payloads carry
  seeds/paths (never live handles or generators), worker functions are
  effect-free, and multiprocessing always uses the ``spawn`` context;
* **ATOM** (:mod:`~repro.analysis.atomics`) — every durability-artifact
  rename follows the fsync → replace → dir-fsync protocol;
* **LEAK** (:mod:`~repro.analysis.taintflow` + :mod:`~repro.analysis.leaks`)
  — value-level taint flow: sensitive values (dataset cells, true
  answers, synopsis internals) never escape through exception messages,
  denial details, logs, journal/replication payloads, or thread-shared
  state.

Run the analysis as a library through its one entry point::

    from repro.analysis import analyze_package
    assert analyze_package().ok                    # all eight families
    assert analyze_package(select=["SIM"]).ok      # one family

or from the shell (non-zero exit on undocumented violations)::

    repro-audit lint --select CONC,FORK,ATOM --format sarif

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and pragma syntax.
"""

from .baseline import apply_baseline, load_baseline, write_baseline
from .driver import active_rules, analyze_package
from .findings import (
    ALL_RULES,
    RULE_ACQUIRE_WITHOUT_RELEASE,
    RULE_BLOCKING_UNDER_LOCK,
    RULE_EFFECTFUL_WORKER_FN,
    RULE_FAMILIES,
    RULE_FSYNC_WITHOUT_FLUSH,
    RULE_HANDLE_IN_WORKER_PAYLOAD,
    RULE_NONSPAWN_CONTEXT,
    RULE_RELEASE_BEFORE_APPEND,
    RULE_RENAME_WITHOUT_FSYNC,
    RULE_SENSITIVE_ESCAPE,
    RULE_SENSITIVE_READ,
    RULE_SUMMARIES,
    RULE_SWALLOWED_APPEND_FAILURE,
    RULE_TAINTED_EXCEPTION,
    RULE_TAINTED_JOURNAL,
    RULE_TAINTED_LOG,
    RULE_TAINTED_SHARED_STATE,
    RULE_TRUE_ANSWER,
    RULE_UNCHECKPOINTED_LOOP,
    RULE_UNGUARDED_GUARDED_STATE,
    RULE_UNORDERED_ACCUMULATION,
    RULE_UNORDERED_ITERATION,
    RULE_UNSEEDED_RNG,
    RULE_UNSYNCHRONIZED_SHARED_MUTATION,
    RULE_WALLCLOCK_READ,
    SCHEMA_VERSION,
    Finding,
    Frame,
    Report,
    expand_rule_selection,
)
from .sarif import report_to_sarif, report_to_sarif_json
from .simulatability import default_package_dir

__all__ = [
    "ALL_RULES",
    "Finding",
    "Frame",
    "Report",
    "RULE_ACQUIRE_WITHOUT_RELEASE",
    "RULE_BLOCKING_UNDER_LOCK",
    "RULE_EFFECTFUL_WORKER_FN",
    "RULE_FAMILIES",
    "RULE_FSYNC_WITHOUT_FLUSH",
    "RULE_HANDLE_IN_WORKER_PAYLOAD",
    "RULE_NONSPAWN_CONTEXT",
    "RULE_RELEASE_BEFORE_APPEND",
    "RULE_RENAME_WITHOUT_FSYNC",
    "RULE_SENSITIVE_ESCAPE",
    "RULE_SENSITIVE_READ",
    "RULE_SUMMARIES",
    "RULE_SWALLOWED_APPEND_FAILURE",
    "RULE_TAINTED_EXCEPTION",
    "RULE_TAINTED_JOURNAL",
    "RULE_TAINTED_LOG",
    "RULE_TAINTED_SHARED_STATE",
    "RULE_TRUE_ANSWER",
    "RULE_UNCHECKPOINTED_LOOP",
    "RULE_UNGUARDED_GUARDED_STATE",
    "RULE_UNORDERED_ACCUMULATION",
    "RULE_UNORDERED_ITERATION",
    "RULE_UNSEEDED_RNG",
    "RULE_UNSYNCHRONIZED_SHARED_MUTATION",
    "RULE_WALLCLOCK_READ",
    "SCHEMA_VERSION",
    "active_rules",
    "analyze_package",
    "apply_baseline",
    "default_package_dir",
    "expand_rule_selection",
    "load_baseline",
    "report_to_sarif",
    "report_to_sarif_json",
    "write_baseline",
]
