"""The audit worker, its spawn-safe transport, and the restart supervisor.

The serving tier runs **one** audit worker: a pooled
:class:`~repro.sdb.multiuser.MultiUserFrontend` over the dataset behind
one :class:`~repro.resilience.checkpoint.CheckpointedWal` directory
(optionally replicated to follower directories).  The paper's collusion
defence (§7) holds only if "the queries of all the users would have to
be pooled together": two identities asking sum(x0..x5) and sum(x1..x5)
of *different* auditors would difference out x0.  So every user's
queries reach the same auditor, decisions form one total order in one
WAL, and parallelism belongs inside a decision, never across users.

The worker runs in two isolation modes behind one protocol of picklable
dicts:

* ``"spawn"`` — a real child process (:class:`ProcessShardHandle`,
  spawn context only: fork would duplicate live WAL handles), connected
  over a pipe; a dead pipe *is* the crash signal;
* ``"inline"`` — the worker object runs in the server process
  (:class:`InlineShardHandle`), which puts the whole worker inside the
  deterministic fault harness: an :class:`~repro.resilience.faults.
  InjectedCrash` escaping the worker models the child process dying.

The :class:`ShardSupervisor` owns the handle.  When the worker dies it
is marked down, restarted with **exponential backoff**, and its WAL is
replayed (that is just checkpointed recovery) *before* traffic is
re-admitted; while it is down every request raises
:class:`ShardUnavailable` — surfaced by the edge as 503 with
``Retry-After`` — never a silent drop, and never an answer that skipped
the journal.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple

from ..auditors import SERVED_AUDITORS, served_auditor_factory
from ..exceptions import (
    InvalidQueryError,
    ReproError,
    UnsupportedQueryError,
)
from ..persistence import JournalError
from ..resilience.budget import Budget
from ..resilience.checkpoint import CheckpointPolicy
from ..resilience.faults import InjectedCrash, fault_site
from ..resilience.overload import AdmissionController, AdmissionPolicy
from ..sdb.dataset import Dataset
from ..sdb.multiuser import MultiUserFrontend
from ..types import AggregateKind, AuditDecision, DenialReason, Query

Clock = Callable[[], float]


class ShardCrashed(ReproError):
    """The worker process died mid-request (dead pipe)."""


class ShardUnavailable(ReproError):
    """The worker is down or mid-recovery; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)build the audit worker — picklable, so
    a spawn-context child can reconstruct the worker from scratch.

    ``wal_dir`` is the worker's WAL directory, which a restarted worker
    recovers (a worker without one would forget every answer it released
    before the restart); ``replicate_to`` adds replica directories, each
    an in-process follower of the worker.  ``checkpoint_every`` and
    ``checkpoint_bytes`` are the ``serve`` flags of
    :meth:`~repro.resilience.checkpoint.CheckpointPolicy.from_flags`.
    """

    #: There is one worker, so its index is always 0.  The traced
    #: benchmark joins edge and worker spans on it.
    index: ClassVar[int] = 0
    values: Tuple[float, ...]
    low: float
    high: float
    wal_dir: str
    auditor: str = "sum"
    seed: int = 0
    checkpoint_every: Optional[int] = None
    checkpoint_bytes: Optional[int] = None
    replicate_to: Tuple[str, ...] = ()
    user_rate: Optional[float] = None
    user_burst: int = 10


def decision_to_dict(decision: AuditDecision) -> Dict[str, Any]:
    """The wire form of a released decision (pipe and HTTP body)."""
    out: Dict[str, Any] = {"denied": decision.denied}
    if decision.answered:
        out["value"] = decision.value
    if decision.denied and decision.reason is not None:
        out["reason"] = decision.reason.value
        out["detail"] = decision.detail
    return out


class ShardWorker:
    """The audit worker: an admission gate in front of a WAL-backed
    pooled frontend.

    ``handle`` speaks the picklable request/response dict protocol the
    transports ship; it is the single release point of the serving tier,
    and every outcome it returns is already durable in the WAL before
    the dict leaves this method.  Callers send one request at a time
    (see :class:`ShardSupervisor`).
    """

    def __init__(self, spec: ShardSpec,
                 budget_clock: Optional[Clock] = None) -> None:
        from ..resilience.wal import open_wal_auditor

        self.spec = spec
        self._budget_clock = budget_clock
        #: The journalled pooled auditor: the WAL's record count, the
        #: close, and each request's budget all go through it.
        self.auditor, dataset = open_wal_auditor(
            spec.wal_dir, served_auditor_factory(spec.auditor, spec.seed),
            Dataset(list(spec.values), low=spec.low, high=spec.high),
            policy=CheckpointPolicy.from_flags(spec.checkpoint_every,
                                               spec.checkpoint_bytes),
            replicate_to=spec.replicate_to,
        )
        # Only the probabilistic auditors decide under a budget.
        self._budgeted = SERVED_AUDITORS[spec.auditor][1]
        auditor = self.auditor
        self.frontend = MultiUserFrontend(dataset, lambda _ds: auditor,
                                          mode="pooled")
        #: The one admission gate of the serving tier: per-user token
        #: buckets (a no-op without ``spec.user_rate``).
        self.admission = AdmissionController(AdmissionPolicy(
            user_rate=spec.user_rate, user_burst=spec.user_burst,
        ))

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one protocol dict; never raises for a bad request."""
        op = request.get("op")
        if op == "query":
            return self._handle_query(request)
        if op == "refuse":
            return self._handle_refuse(request)
        if op == "stats":
            # audit: WAL001 -- stats release aggregate bookkeeping, not a
            # query decision; nothing here needs a journal append
            return self._handle_stats()
        if op == "ping":
            # audit: WAL001 -- a liveness ack carries no decision
            return {"ok": True}
        # audit: WAL001 -- a constant protocol error for an unknown op;
        # no query was posed, so there is nothing to journal
        return {"ok": False, "error": "unknown shard op"}

    def _parse_query(self, request: Dict[str, Any]
                     ) -> Tuple[str, Query]:
        user = request.get("user")
        if not isinstance(user, str) or not user:
            raise InvalidQueryError("user must be a non-empty string")
        kind = AggregateKind(request.get("kind"))
        members = request.get("members")
        if not isinstance(members, (list, tuple)):
            raise InvalidQueryError("members must be a list of indices")
        return user, Query(kind, frozenset(int(i) for i in members))

    def _handle_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            user, query = self._parse_query(request)
        except (InvalidQueryError, ValueError, TypeError):
            return {"ok": False, "error": "invalid query"}
        refusal = self.admission.try_admit(user)
        if refusal is not None:
            decision = self.frontend.refuse(user, query, refusal)
            fault_site("shard.post-journal")
            return self._respond(user, query, decision, shed=True)
        try:
            decision = self._audit(user, query, request)
        except (InvalidQueryError, UnsupportedQueryError):
            # Parseable but unanswerable — a kind this worker's auditor
            # does not serve, or an index outside the dataset.  Nothing
            # was journalled and nothing is released, so this is a
            # constant protocol error, not a worker crash.
            return {"ok": False, "error": "unsupported query"}
        # The journal append is durable; the response dict is not yet on
        # the pipe.  A crash here is the "answered on disk, never on the
        # wire" window the chaos sweep kills in.
        fault_site("shard.post-journal")
        return self._respond(user, query, decision, shed=False)

    def _audit(self, user: str, query: Query,
               request: Dict[str, Any]) -> AuditDecision:
        # Per-request deadline propagation: requests come one at a time,
        # and the journalled auditor lends the budget to the decision
        # alone, never to the checkpoint after it.
        self.auditor.request_budget = self._budget_from(request)
        try:
            return self.frontend.ask(user, query)
        finally:
            self.auditor.request_budget = None

    def _budget_from(self, request: Dict[str, Any]) -> Optional[Budget]:
        wall = request.get("wall_time")
        steps = request.get("max_chain_steps")
        if not self._budgeted or (wall is None and steps is None):
            return None
        return Budget(wall_time=wall, max_chain_steps=steps,
                      clock=self._budget_clock)

    def _handle_refuse(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Journal an edge-initiated fail-closed refusal (expired
        deadline, edge backpressure) without consulting the auditor."""
        try:
            user, query = self._parse_query(request)
        except (InvalidQueryError, ValueError, TypeError):
            return {"ok": False, "error": "invalid query"}
        # audit: LEAK001 -- the detail is an edge-supplied policy constant
        # (server.EXPIRED_DEADLINE_DETAIL), never derived from data values
        refusal = AuditDecision.deny(
            DenialReason.RESOURCE_EXHAUSTED,
            str(request.get("detail") or "refused at the network edge"),
        )
        decision = self.frontend.refuse(user, query, refusal)
        fault_site("shard.post-journal")
        return self._respond(user, query, decision, shed=True)

    def _logged_events(self) -> int:
        """Records in the WAL: after a decision's append, its number.

        The number survives worker restarts, so the event ``seq`` (the
        SSE ``id``) never repeats.
        """
        return self.auditor.wal.total_events

    def _respond(self, user: str, query: Query, decision: AuditDecision,
                 shed: bool) -> Dict[str, Any]:
        event = {
            "seq": self._logged_events(),
            "user": user,
            "kind": query.kind.value,
            "members": sorted(query.query_set),
        }
        event.update(decision_to_dict(decision))
        return {"ok": True, "shed": shed,
                "decision": decision_to_dict(decision), "event": event}

    def _handle_stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "ok": True,
            "users": self.frontend.users(),
            "denials": self.frontend.denial_counts(),
            "events": self._logged_events(),
        }
        if self.spec.user_rate is not None:
            stats["shed"] = self.admission.shed_counts()
        return stats

    def close(self) -> None:
        """Close the worker's WAL and its replication links."""
        self.auditor.close()


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------

def _boot_error(exc: Exception) -> str:
    """What a worker that failed to boot tells the operator.

    Journal and OS errors name paths and constants only; any other
    exception could quote data, so only its class name crosses the pipe.
    """
    if isinstance(exc, (JournalError, OSError)):
        return str(exc)
    return exc.__class__.__name__


def _shard_process_main(conn: Any, spec: ShardSpec) -> None:
    """Entry point of a spawned worker process.

    A worker that cannot boot (say, its WAL was recorded over other
    data) answers the boot ping with the reason and exits.
    """
    try:
        worker = ShardWorker(spec)
    except Exception as exc:
        conn.recv()
        conn.send({"ok": False, "error": _boot_error(exc)})
        conn.close()
        return
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            if request is None:
                break
            conn.send(worker.handle(request))
    finally:
        worker.close()
        conn.close()


class InlineShardHandle:
    """The worker runs in-process: the deterministic-chaos transport.

    An :class:`InjectedCrash` escaping :meth:`request` models the child
    process dying mid-request; the supervisor treats it exactly like a
    dead pipe.
    """

    def __init__(self, spec: ShardSpec,
                 budget_clock: Optional[Clock] = None) -> None:
        self.worker = ShardWorker(spec, budget_clock=budget_clock)

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.worker.handle(payload)

    def close(self) -> None:
        self.worker.close()


class ProcessShardHandle:
    """The worker in a spawned child process behind a pipe.

    Spawn context only — fork would duplicate live WAL file handles into
    the child.  A send/recv failure or an ACK timeout means the worker
    is gone: :class:`ShardCrashed`, for the supervisor to handle.  The
    pipe carries one request at a time, so callers must serialise (see
    :class:`ShardSupervisor`).
    """

    def __init__(self, spec: ShardSpec, timeout: float = 60.0) -> None:
        self._timeout = float(timeout)
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=_shard_process_main,
                                    args=(child, spec), daemon=True)
        self._process.start()
        child.close()
        # Fail fast at boot: a worker that cannot recover its WAL must
        # not be marked serving, and its reason reaches the operator.
        reply = self.request({"op": "ping"})
        if not reply.get("ok"):
            self.close()
            raise ReproError(reply["error"])

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            self._conn.send(payload)
            if not self._conn.poll(self._timeout):
                raise ShardCrashed(
                    f"audit worker did not respond within "
                    f"{self._timeout}s")
            return self._conn.recv()
        except (OSError, EOFError, BrokenPipeError) as exc:
            raise ShardCrashed(
                f"audit worker process is gone "
                f"({exc.__class__.__name__})") from exc

    def kill(self) -> None:
        """Hard-kill the child (crash drills for the spawn transport)."""
        self._process.terminate()
        self._process.join(timeout=5.0)

    def close(self) -> None:
        try:
            self._conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

@dataclass
class _WorkerState:
    status: str = "serving"          # serving | down
    attempts: int = 0                # consecutive failures
    retry_at: float = 0.0            # earliest next restart instant
    last_error: str = ""             # constant-ish classname diagnostics


class ShardSupervisor:
    """Owns the worker handle; restarts a crashed worker with backoff.

    A dead worker is restarted no earlier than ``backoff_base * 2**k``
    seconds after its ``k``-th consecutive failure (capped at
    ``backoff_max``); the restart *is* WAL recovery — the new worker
    replays its checkpointed log before the supervisor re-admits
    traffic.  In the window between death and successful restart every
    :meth:`request` raises :class:`ShardUnavailable` with the remaining
    backoff, which the edge surfaces as 503 + ``Retry-After``.

    Concurrency contract: callers send one request at a time.  The edge
    holds one asyncio lock around every worker request — queries,
    refusals and stats alike — so the worker never holds two requests at
    once and a restart never races another request.  The internal lock
    only guards the supervisor's own state transitions, so
    :meth:`status` never waits behind a decision.
    """

    def __init__(self, spec: ShardSpec, mode: str = "spawn",
                 backoff_base: float = 0.05, backoff_max: float = 5.0,
                 clock: Optional[Clock] = None,
                 budget_clock: Optional[Clock] = None) -> None:
        if mode not in ("spawn", "inline"):
            raise InvalidQueryError("mode must be 'spawn' or 'inline'")
        self.spec = spec
        self.mode = mode
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self._clock: Clock = clock or time.monotonic
        self._budget_clock = budget_clock
        self._lock = threading.Lock()
        self._state = _WorkerState()
        self._handle: Optional[Any] = self._build_handle()
        self.restarts = 0

    def _build_handle(self) -> Any:
        if self.mode == "inline":
            return InlineShardHandle(self.spec,
                                     budget_clock=self._budget_clock)
        return ProcessShardHandle(self.spec)

    # ------------------------------------------------------------------

    def request(self, index: int, payload: Dict[str, Any]
                ) -> Dict[str, Any]:
        """Send one protocol dict to the worker (``index`` is always
        0), restarting it first if it is down and its backoff has
        elapsed."""
        if index != ShardSpec.index:
            raise InvalidQueryError(f"unknown worker index {index}")
        handle = self._ensure_serving()
        try:
            return handle.request(payload)
        except (ShardCrashed, InjectedCrash) as exc:
            # InjectedCrash is the inline transport's "child process
            # died" signal — the supervisor here *is* the parent, so
            # observing a child's death is not swallowing a crash: the
            # worker object is discarded wholesale, exactly like a dead
            # pipe, and recovery goes through WAL replay on restart.
            self._mark_down(exc.__class__.__name__)
            raise ShardUnavailable(
                "audit worker crashed; recovering",
                retry_after=self._retry_after(),
            ) from None

    def _ensure_serving(self) -> Any:
        with self._lock:
            state = self._state
            if state.status == "serving":
                return self._handle
            now = self._clock()
            if now < state.retry_at:
                raise ShardUnavailable(
                    "audit worker is recovering; retry later",
                    retry_after=state.retry_at - now,
                )
        return self._restart()

    def _mark_down(self, label: str) -> None:
        with self._lock:
            state = self._state
            state.status = "down"
            state.attempts += 1
            state.last_error = label
            state.retry_at = self._clock() + self._backoff(state.attempts)
            handle, self._handle = self._handle, None
        if handle is not None and self.mode == "spawn":
            try:
                handle.kill()
            except Exception:  # pragma: no cover - defensive reaping
                pass

    def _backoff(self, attempts: int) -> float:
        return min(self.backoff_max,
                   self.backoff_base * (2.0 ** max(0, attempts - 1)))

    def _restart(self) -> Any:
        """Rebuild the worker; WAL replay happens inside."""
        try:
            handle = self._build_handle()
        except (InjectedCrash, ReproError) as exc:
            # The restart itself died (a chaos plan is still active) or
            # recovery failed: the supervisor survives its child and
            # backs off again.
            self._mark_down(exc.__class__.__name__)
            raise ShardUnavailable(
                "audit worker recovery failed; backing off",
                retry_after=self._retry_after(),
            ) from None
        with self._lock:
            self._handle = handle
            self._state = _WorkerState()
            self.restarts += 1
        return handle

    def _retry_after(self) -> float:
        with self._lock:
            return max(0.0, self._state.retry_at - self._clock())

    # ------------------------------------------------------------------

    def crash_worker(self) -> None:
        """Kill the worker on purpose (drills and the demo)."""
        self._mark_down("ShardCrashed")

    def status(self) -> Dict[str, Any]:
        """The worker's serving state for ``/healthz``."""
        with self._lock:
            return {
                "status": self._state.status,
                "restart_attempts": self._state.attempts,
                "last_error": self._state.last_error,
            }

    def stats(self) -> Dict[str, Any]:
        """The worker's stats, or a constant error while it is down."""
        try:
            return self.request(ShardSpec.index, {"op": "stats"})
        except ShardUnavailable:
            return {"ok": False, "error": "unavailable"}

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
            self._state.status = "down"
        if handle is not None:
            handle.close()
