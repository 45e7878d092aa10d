"""Process control, the closed-loop HTTP client, /proc readers and the
statistics the benchmark reports.

Linux only: CPU time, peak RSS and host steal come from ``/proc``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import signal
import socket
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Percentiles a tail may be reported at, highest last.  A tail is the
#: highest of these with at least ten samples beyond it.  The ladder
#: stops at p75: on a shared 2-vCPU host, p90 and above of the ~4 ms
#: requests tracked host steal (across ten seeds, p99 spread by about
#: 0.4 and p90 by about 0.25 of their medians), so they measured the
#: neighbours.
TAIL_LADDER = (50.0, 75.0)
TAIL_MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    With ``percentile``'s interpolation, the samples above the value at
    ``pct`` are those ranked past ``floor((count - 1) * pct / 100)``.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        rank = math.floor((count - 1) * pct / 100.0 + 1e-9)
        if count - 1 - rank >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, sample count)`` of the reportable tail."""
    pct = tail_percentile(len(values))
    return percentile(values, pct), pct, len(values)


class DigestChain:
    """sha256 over released decisions in request order, one digest per
    prefix, so runs of different lengths compare on their common prefix.

    Each decision contributes its denied flag, its reason code and the
    ``float.hex`` of its value; Python's salted ``hash`` would differ
    between processes.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.prefixes: List[str] = []
        self.denied = 0
        self.answered = 0

    @staticmethod
    def record(decision: Optional[Dict[str, object]]) -> bytes:
        """The bytes one decision contributes (a malformed one: ``?``)."""
        if decision is None:
            return b"?\n"
        value = decision.get("value")
        return "{}|{}|{}\n".format(
            int(bool(decision.get("denied"))),
            decision.get("reason") or "",
            float.hex(float(value)) if value is not None else "",
        ).encode("ascii")

    def add(self, decision: Optional[Dict[str, object]]) -> None:
        self._hash.update(self.record(decision))
        self.prefixes.append(self._hash.hexdigest())
        if decision is not None:
            if decision.get("denied"):
                self.denied += 1
            else:
                self.answered += 1


def check_against_reference(path: str, prefixes: List[str]) -> bool:
    """Compare a run's digests with the first run for the same workload
    and seed, stored at ``path``; the longer chain is kept."""
    if not prefixes:
        return False
    reference: List[str] = []
    if os.path.exists(path):
        with open(path) as handle:
            reference = json.load(handle)
    common = min(len(reference), len(prefixes))
    if common and reference[common - 1] != prefixes[common - 1]:
        return False
    if len(prefixes) > len(reference):
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(prefixes, handle)
        os.replace(tmp, path)
    return True


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------

def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_steal_seconds() -> float:
    """Cumulative steal time of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLK_TCK


def child_pids(pid: int) -> List[int]:
    pids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def _alive(pid: int) -> bool:
    """True until ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def become_subreaper() -> None:
    """Adopt orphaned descendants, so killed shard workers are reaped
    here rather than left to the container's init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One launch of ``serve --listen`` in its own process group."""

    def __init__(self, argv: Sequence[str], port: int, cwd: str,
                 env: Dict[str, str], log_path: str) -> None:
        self.port = port
        self.launched = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                list(argv), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        self._pids: List[int] = [self.proc.pid]

    def connect(self, timeout: float = 60.0) -> "Client":
        """Wait until the listener accepts, then return a client on it."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} at boot")
            try:
                return Client(socket.create_connection(
                    ("127.0.0.1", self.port), timeout=timeout))
            except ConnectionRefusedError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def workers(self) -> List[int]:
        """Shard worker pids (the spawn resource tracker is not one)."""
        found = [pid for pid in child_pids(self.proc.pid)
                 if b"resource_tracker" not in _cmdline(pid)]
        self._pids = sorted(set(self._pids) | set(found))
        return found

    def kill(self) -> None:
        """SIGKILL the process group and wait for every member."""
        self._pids = sorted(set(self._pids) | set(child_pids(self.proc.pid)))
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap()

    def interrupt(self, timeout: float = 60.0) -> int:
        """SIGINT the edge only; it stops its workers and exits."""
        self._pids = sorted(set(self._pids) | set(child_pids(self.proc.pid)))
        os.kill(self.proc.pid, signal.SIGINT)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        self._reap()
        return code

    def _reap(self) -> None:
        """Wait for every process the launch started; SIGKILL any that
        outlive the edge by five seconds."""
        for pid in self._pids[1:]:
            deadline = time.monotonic() + 5.0
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                    deadline = math.inf
                time.sleep(0.005)
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not adopted by this process; its reaper waits


class Client:
    """One keep-alive HTTP/1.1 connection, one request in flight."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._buf = b""

    def post(self, body: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)
        while b"\r\n\r\n" not in self._buf:
            self._recv()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            self._buf = rest
            self._recv()
            rest = self._buf
        self._buf = rest[length:]
        return status, rest[:length]

    def _recv(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def close(self) -> None:
        self.sock.close()


def decision_error(status: int, body: bytes, query: Tuple[str, Sequence[int]],
                   values: Sequence[float], reasons: frozenset
                   ) -> Tuple[Optional[str], Optional[Dict[str, object]]]:
    """Check one response: ``(error or None, decoded decision)``.

    A well-formed decision is a 200 that is either denied with a known
    reason code, or answered with a finite value equal to the true
    aggregate of the queried records.
    """
    if status != 200:
        return f"status {status}", None
    try:
        decision = json.loads(body)
    except ValueError:
        return "body is not JSON", None
    if not isinstance(decision, dict) or not isinstance(
            decision.get("denied"), bool):
        return "no denied flag", None
    if decision["denied"]:
        if decision.get("reason") not in reasons:
            return "unknown denial reason", decision
        return None, decision
    value = decision.get("value")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return "answer is not a finite number", decision
    kind, members = query
    picked = [values[i] for i in members]
    if kind == "max":
        ok = value == max(picked)
    elif kind == "min":
        ok = value == min(picked)
    else:
        truth = math.fsum(picked)
        ok = abs(value - truth) <= 1e-9 * max(1.0, abs(truth))
    return (None if ok else "answer differs from the true aggregate"), \
        decision
