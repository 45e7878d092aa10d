"""Fixture: CONC rule true positives and their disciplined twins.

Injected as ``repro._fixture_conc_discipline``.  Each class isolates one
rule so the tests can assert per-rule/per-class; the ``Disciplined*``
twins must produce zero findings.  Never imported at runtime.
"""

import os
import threading


class RacyCounter:
    """Owns a lock but mutates outside it (CONC001)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def bump(self) -> int:
        self._count += 1  # CONC001: not under self._lock
        return self._count


class DisciplinedCounter:
    """Guarded twin: every mutation under the lock, helpers suffixed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def bump(self) -> int:
        with self._lock:
            return self._bump_locked()

    def _bump_locked(self) -> int:
        self._count += 1
        return self._count


class DocumentedCounter:
    """Pragma'd violation: documented until the pragma is removed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def bump(self) -> int:
        # audit: CONC001 -- single-writer by construction in this harness
        self._count += 1
        return self._count


class LeakyAcquirer:
    """Bare acquire with no try/finally release (CONC002)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reads = 0

    def peek(self, table) -> int:
        self._lock.acquire()  # CONC002: an exception below leaks the lock
        value = len(table)
        self._lock.release()
        return value


class CarefulAcquirer:
    """Twin: acquire immediately followed by try/finally release."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reads = 0

    def peek(self, table) -> int:
        self._lock.acquire()
        try:
            return len(table)
        finally:
            self._lock.release()


class StallingAppender:
    """fsyncs while holding its lock (CONC003)."""

    def __init__(self, fd: int) -> None:
        self._lock = threading.Lock()
        self._fd = fd

    def append(self, record: bytes) -> None:
        with self._lock:
            os.write(self._fd, record)
            os.fsync(self._fd)  # CONC003: durability stall under the lock


class PipelinedAppender:
    """Twin: the fsync happens after the lock is released."""

    def __init__(self, fd: int) -> None:
        self._lock = threading.Lock()
        self._fd = fd

    def append(self, record: bytes) -> None:
        with self._lock:
            os.write(self._fd, record)
        os.fsync(self._fd)


def _sync_fd(fd: int) -> None:
    os.fsync(fd)


def _write_durably(fd: int, record: bytes) -> None:
    os.write(fd, record)
    _sync_fd(fd)


class HelperStallingAppender:
    """fsyncs under its lock two helpers down (CONC003, transitive)."""

    def __init__(self, fd: int) -> None:
        self._lock = threading.Lock()
        self._fd = fd

    def append(self, record: bytes) -> None:
        with self._lock:
            _write_durably(self._fd, record)  # CONC003: fsync two calls down


class SharedRegistry:
    """Thread-shared (flows into a Thread payload) with no lock (CONC004)."""

    def __init__(self) -> None:
        self.entries = []

    def register(self, name: str) -> None:
        self.entries.append(name)  # CONC004: shared, unsynchronised


class LockedRegistry:
    """Twin: owns a lock and guards the mutation (clean)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entries = []

    def register(self, name: str) -> None:
        with self._lock:
            self.entries.append(name)


def _registry_worker(registry: SharedRegistry, name: str) -> None:
    registry.register(name)


def spawn_registry_threads() -> SharedRegistry:
    """Ships ``SharedRegistry`` instances into thread payloads."""
    racy = SharedRegistry()
    safe = LockedRegistry()
    workers = [
        threading.Thread(target=_registry_worker, args=(racy, "a")),
        threading.Thread(target=_locked_worker, args=(safe, "b")),
    ]
    for worker in workers:
        worker.start()
    return racy


def _locked_worker(registry: LockedRegistry, name: str) -> None:
    registry.register(name)


_TALLY = {}
_TALLY_LOCK = threading.Lock()


def _tally_worker(name: str) -> None:
    _TALLY[name] = _TALLY.get(name, 0) + 1  # CONC004: racy global store


def _guarded_tally_worker(name: str) -> None:
    with _TALLY_LOCK:
        _TALLY[name] = _TALLY.get(name, 0) + 1


def spawn_tally_threads() -> None:
    """Makes both tally functions worker entries."""
    threading.Thread(target=_tally_worker, args=("x",)).start()
    threading.Thread(target=_guarded_tally_worker, args=("y",)).start()
