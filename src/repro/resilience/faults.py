"""Deterministic fault injection at named sites in the serving stack.

The serving code is instrumented with :func:`fault_site` calls at the
moments where a production process can die or misbehave: between computing
a decision and persisting it, mid-way through a WAL record write, between
fsync and answer release, at the start of every sampling attempt, and on
every MCMC step.  When no plan is active a site check is a single global
load — effectively free.  Under :func:`inject` a :class:`FaultPlan` fires
scripted actions (crash, exception, clock stall) at chosen occurrences of
chosen sites, which is what makes the crash/recover/replay suite in
``tests/resilience/test_faults.py`` deterministic and exhaustive over the
registry below.

Crashes are simulated by raising :class:`InjectedCrash`, which derives from
``BaseException`` on purpose: ordinary ``except ReproError`` / ``except
Exception`` recovery code cannot accidentally swallow a "process kill".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..exceptions import ReproError

#: Every instrumented fault site, by name.  ``FaultPlan`` validates against
#: this registry so a typo in a test cannot silently inject nothing.
KNOWN_SITES = frozenset({
    # JournaledAuditor._journal, for every decision, replay, refusal and
    # update: computed, nothing persisted yet (a crash here loses the
    # in-flight decision — safe, because the answer was never released).
    "journal.pre-record",
    # After the WAL append + fsync, before the answer is returned (a crash
    # here persists a decision whose answer may never have been seen —
    # recovery conservatively treats it as disclosed).
    "journal.post-record",
    # Inside CheckpointedWal.append, after the first half of the record
    # bytes (a crash here leaves a torn tail for recovery to truncate).
    "wal.mid-append",
    # After the record is durable (between fsync and append returning).
    "wal.post-fsync",
    # Start of each bounded sampling attempt in a budgeted probabilistic
    # decision (raising SamplingError here exercises retry-and-reseed).
    "auditor.attempt",
    # Inside CheckpointedWal.checkpoint, after half the snapshot tmp-file
    # bytes (a crash here leaves a torn *.tmp orphan; the manifest never
    # saw the snapshot, so recovery ignores and removes it).
    "checkpoint.mid-snapshot",
    # Snapshot file renamed and durable, manifest not yet committed (the
    # snapshot is an orphan until the manifest references it).
    "checkpoint.pre-commit",
    # Fresh active segment created during the checkpoint's rotation,
    # manifest not yet committed (the segment is an unreferenced orphan).
    "segment.post-roll",
    # Half-way through writing the manifest *tmp* file (the manifest
    # proper is only ever replaced by atomic rename, so a crash here can
    # never tear it).
    "manifest.mid-write",
    # Manifest committed: the checkpoint is now the recovery root, but
    # compaction has not yet removed the superseded files.
    "checkpoint.post-commit",
    # Between file deletions inside compaction (a crash here leaves
    # unreferenced segment/snapshot files for recovery to sweep).
    "compact.mid-delete",
    # One hit-and-run chain transition (clock stalls here exercise the
    # deadline checkpoints).
    "hit_and_run.step",
    # One colouring-chain transition.
    "coloring.step",
    # Follower side: half-way through writing a shipped record into the
    # follower's active segment (a torn transfer; the primary never saw
    # an ack, so the answer was not released on the strength of this
    # follower).
    "ship.mid-segment",
    # Follower side: shipment fully applied and durable, acknowledgement
    # not yet returned (the primary dies without the ack — the follower
    # is *ahead* of what the primary released, which is the safe
    # direction).
    "ship.pre-ack",
    # Follower side: half-way through writing a shipped snapshot's tmp
    # file during a snapshot install (install or checkpoint ship); the
    # follower manifest never referenced it, so recovery sweeps it.
    "install.mid-snapshot",
    # Promotion: follower state recovered, fencing epoch not yet
    # committed to the manifest (a crash here makes promotion retryable;
    # the old primary is not fenced until the bump is durable).
    "promote.pre-fence",
    # Primary side: checkpoint committed locally, snapshot not yet
    # shipped to followers (a crash here leaves followers on the
    # pre-checkpoint segment layout until the next install).
    "primary.post-seal",
    # Network edge: half-way through reading an HTTP request body (the
    # client died mid-upload, or the server dies holding a partial body;
    # either way no decision exists yet, so nothing may be journalled).
    "http.torn-body",
    # Network edge: response headers and half the body bytes written,
    # connection then resets (the decision IS durable in the shard WAL —
    # the client may retry and gets a consistent re-decision).
    "http.mid-response",
    # Network edge: between header lines of a slowly-dribbling request
    # (a slow-loris client; clock stalls here exercise the read deadline,
    # which closes the connection without touching any auditor).
    "http.slow-loris",
    # Shard worker: decision journalled durably, response not yet handed
    # back to the HTTP edge (a crash here is the classic "answered on
    # disk, never on the wire" window — recovery replays the WAL and the
    # retried query re-releases the same decision).
    "shard.post-journal",
})


class InjectedCrash(BaseException):
    """A simulated process kill at a fault site.

    Deliberately *not* a :class:`ReproError` (nor even an ``Exception``):
    library recovery code must never catch it, exactly as it could not
    catch ``SIGKILL``.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected crash at fault site {site!r}")
        self.site = site


class FaultClock:
    """A controllable monotonic clock for deadline tests.

    Pass :meth:`now` as the ``clock`` of a :class:`~repro.resilience.budget.
    Budget` and drive it with :class:`Stall` actions (or directly via
    :meth:`advance`).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current reading."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Jump the clock forward."""
        self._now += float(seconds)


class Crash:
    """Kill the process at the site (raises :class:`InjectedCrash`)."""

    def fire(self, site: str) -> None:
        raise InjectedCrash(site)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Crash()"


class Raise:
    """Raise ``factory(message)`` at the site (e.g. a transient
    :class:`~repro.exceptions.SamplingError`)."""

    def __init__(self, factory: Callable[[str], BaseException]) -> None:
        self.factory = factory

    def fire(self, site: str) -> None:
        raise self.factory(f"injected fault at {site}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Raise({self.factory!r})"


class Stall:
    """Advance a :class:`FaultClock` at the site (a simulated GC pause,
    VM migration, or NTP step — anything that burns wall time)."""

    def __init__(self, clock: FaultClock, seconds: float) -> None:
        self.clock = clock
        self.seconds = seconds

    def fire(self, site: str) -> None:
        self.clock.advance(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stall({self.seconds})"


class FaultAction(Protocol):
    """Anything with a ``fire(site)`` — Crash, Raise, Stall, or custom."""

    def fire(self, site: str) -> None: ...  # pragma: no cover - protocol


#: A scripted action, or ``None`` for "let this occurrence pass".
Action = Optional[FaultAction]


class FaultPlan:
    """Scripted actions per site, consumed one per occurrence.

    ``actions[site][k]`` fires on the ``k``-th hit of ``site`` (``None``
    entries let that hit pass); hits beyond the script are no-ops.  The
    plan records every hit in :attr:`hits` so tests can assert a site was
    actually reached.
    """

    def __init__(self, actions: Mapping[str, Sequence[Action]]) -> None:
        unknown = set(actions) - KNOWN_SITES
        if unknown:
            raise ReproError(
                f"unregistered fault site(s) {sorted(unknown)}; "
                f"known sites: {sorted(KNOWN_SITES)}"
            )
        self._scripts: Dict[str, List[Action]] = {
            site: list(script) for site, script in actions.items()
        }
        self._cursor: Dict[str, int] = {site: 0 for site in actions}
        self.hits: List[Tuple[str, int]] = []
        self.fired: List[Tuple[str, int]] = []

    @classmethod
    def crash_at(cls, site: str, occurrence: int = 0) -> "FaultPlan":
        """Crash on the ``occurrence``-th hit of ``site``."""
        script: List[Action] = [None] * occurrence + [Crash()]
        return cls({site: script})

    def fire(self, site: str) -> None:
        """Record a hit of ``site`` and run its scripted action, if any."""
        script = self._scripts.get(site)
        if script is None:
            return
        k = self._cursor[site]
        self._cursor[site] = k + 1
        self.hits.append((site, k))
        if k >= len(script):
            return
        action = script[k]
        if action is None:
            return
        self.fired.append((site, k))
        action.fire(site)

    def hit_count(self, site: str) -> int:
        """How many times ``site`` was reached under this plan."""
        return self._cursor.get(site, 0)


_PLAN: Optional[FaultPlan] = None


def fault_site(name: str) -> None:
    """Checkpoint a named fault site (no-op unless a plan is active)."""
    if _PLAN is not None:
        _PLAN.fire(name)


def plan_active() -> bool:
    """Whether a fault plan is currently injected."""
    return _PLAN is not None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the ``with`` block."""
    global _PLAN
    if _PLAN is not None:
        raise ReproError("a fault plan is already active")
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = None
