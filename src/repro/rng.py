"""Seedable random-number helpers.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`; this module centralises the coercion so
experiments are reproducible end to end.

It also hosts the *batch-draw* utilities the vectorized samplers share
with their scalar reference counterparts.  NumPy's ``Generator`` fills
arrays element by element from the same bit stream that scalar calls
consume, so a block draw of ``k`` values is bitwise-identical to ``k``
successive scalar draws of the same kind (asserted by the test suite).
The samplers exploit this: both the vectorized and the scalar-reference
decision paths pre-draw identical blocks in a *canonical order* (all
direction draws, then all chord positions) and therefore replay
bitwise-identically from the same per-decision seed — the contract the
differential replay suite under ``tests/golden/`` locks in.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator, an ``int`` seeds a new
    generator, and an existing generator is passed through unchanged.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn(rng: np.random.Generator, n: int) -> list:
    """Derive ``n`` independent child generators from ``rng``.

    Used when an experiment fans out trials that must not share streams.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


# ----------------------------------------------------------------------
# Batch draws (shared by vectorized samplers and their scalar references)
# ----------------------------------------------------------------------

def direction_block(gen: np.random.Generator, steps: int,
                    dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """``steps`` pre-normalised isotropic directions in ``R^dim``.

    Returns ``(unit, norms)`` where ``unit`` is ``(steps, dim)`` with each
    row ``z / |z|`` and ``norms`` the raw Gaussian norms (a zero norm marks
    a measure-zero degenerate row the caller must skip).  The Gaussian
    block consumes the stream exactly like ``steps`` successive
    ``standard_normal(dim)`` calls; the squared-norm reduction is a
    row-wise pairwise sum, which NumPy evaluates identically for a
    contiguous row and a standalone vector — so scalar and vectorized
    consumers see bitwise-identical directions.
    """
    z = gen.standard_normal((steps, dim))
    norms = np.sqrt((z * z).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = z / norms[:, None]
    return unit, norms


def uniform_block(gen: np.random.Generator, count: int) -> np.ndarray:
    """``count`` raw uniforms on ``[0, 1)``; block == successive scalars.

    Rescale with :func:`scale_uniform` to reproduce
    ``Generator.uniform(low, high)`` bitwise.
    """
    return gen.random(count)


def skips_uniforms(gen: np.random.Generator) -> bool:
    """Whether :func:`skip_uniforms` can move ``gen`` exactly.  It relies
    on PCG64 (what ``default_rng`` builds), whose ``random()`` spends
    one 64-bit output per double and whose ``advance`` counts outputs."""
    return type(gen.bit_generator) is np.random.PCG64


def skip_uniforms(gen: np.random.Generator, count: int) -> None:
    """Leave ``gen`` where ``uniform_block(gen, count)`` would, drawing
    nothing; ``gen`` must pass :func:`skips_uniforms`.

    ``advance(count)`` lands on the state the ``count`` doubles would
    leave, but it also clears the 32-bit buffer (``has_uint32`` and the
    possibly stale ``uinteger``) that ``integers`` keeps between draws
    and a double draw never touches, so the buffer is put back.
    """
    bits = gen.bit_generator
    buffered = bits.state
    bits.advance(count)
    if buffered["has_uint32"] or buffered["uinteger"]:
        state = bits.state
        state["has_uint32"] = buffered["has_uint32"]
        state["uinteger"] = buffered["uinteger"]
        bits.state = state


def scale_uniform(u, low, high):
    """Map raw uniforms to ``[low, high)`` exactly as ``Generator.uniform``
    does (``low + (high - low) * u``), so pre-drawn blocks reproduce the
    scalar call bitwise."""
    return low + (high - low) * u


def integer_block(gen: np.random.Generator, bound: int,
                  count: int) -> np.ndarray:
    """``count`` draws from ``range(bound)``; block == successive scalars
    (Lemire rejection consumes the stream per element in fill order)."""
    return gen.integers(bound, size=count)


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice(..., p=probs)``
    builds internally (cumsum, then normalised by its last entry).

    Precomputing it once per node and sampling via
    :func:`choice_from_cdf` replays ``choice`` bitwise while skipping its
    per-call validation and cumsum — the coloring chain's hottest win.
    """
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_from_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """Indices drawn from a precomputed CDF for raw uniforms ``u`` —
    bitwise-identical to ``Generator.choice(len(cdf), p=probs)`` fed the
    same uniforms."""
    return cdf.searchsorted(u, side="right")


def random_subset(rng: np.random.Generator, n: int,
                  min_size: int = 1, max_size: Optional[int] = None) -> frozenset:
    """A uniformly random non-empty subset of ``range(n)``.

    When ``max_size`` is ``None`` the subset is uniform over all non-empty
    subsets (each element included with probability 1/2, resampled if empty) —
    the paper's "random query" model (footnote 6).  Otherwise the size is
    drawn uniformly from ``[min_size, max_size]`` and the members uniformly
    without replacement.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if max_size is None:
        while True:
            mask = rng.integers(0, 2, size=n).astype(bool)
            if mask.any():
                return frozenset(int(i) for i in np.flatnonzero(mask))
    max_size = min(max_size, n)
    min_size = max(1, min(min_size, max_size))
    size = int(rng.integers(min_size, max_size + 1))
    members = rng.choice(n, size=size, replace=False)
    return frozenset(int(i) for i in members)
