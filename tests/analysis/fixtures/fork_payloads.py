"""Fixture: FORK rule true positives and their spawn-safe twins.

Injected as ``repro._fixture_fork_payloads``.  Each function isolates one
rule; the ``safe_*`` twins must produce zero findings.  Never imported at
runtime.
"""

import multiprocessing

import numpy as np


def _double(value):
    return 2 * value


def _seeded_worker(seed: int) -> float:
    gen = np.random.default_rng(seed)
    return float(gen.normal())


def _unseeded_worker(_seed: int) -> float:
    gen = np.random.default_rng()  # no seed: diverges per process
    return float(gen.normal())


def _fresh_generator():
    return np.random.default_rng()  # no seed: diverges per process


def _helper_unseeded_worker(_seed: int) -> float:
    return float(_fresh_generator().normal())


def ship_open_handle(path: str, seeds):
    """FORK001: a live file handle rides the pool payload."""
    ctx = multiprocessing.get_context("spawn")
    handle = open(path, "ab")
    with ctx.Pool(2) as pool:
        return pool.map(_double, [handle, seeds])


def ship_generator(seeds):
    """FORK001: a live RNG generator rides the pool payload."""
    ctx = multiprocessing.get_context("spawn")
    gen = np.random.default_rng(7)
    with ctx.Pool(2) as pool:
        return pool.map(_double, [gen])


def safe_payload(seeds):
    """Twin: only integer seeds cross the process boundary."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        return pool.map(_seeded_worker, seeds)


def fan_out_unseeded(seeds):
    """FORK002: the worker draws randomness with no explicit seed."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        return pool.map(_unseeded_worker, seeds)


def fan_out_helper_unseeded(seeds):
    """FORK002: the worker's unseeded generator comes from a helper."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        return pool.map(_helper_unseeded_worker, seeds)


def default_start_method(seeds):
    """FORK003: bare Pool inherits the platform default (fork on Linux)."""
    with multiprocessing.Pool(2) as pool:
        return pool.map(_seeded_worker, seeds)


def fork_context(seeds):
    """FORK003: an explicit non-spawn context."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        return pool.map(_seeded_worker, seeds)
