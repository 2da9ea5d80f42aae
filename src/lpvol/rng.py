"""Deterministic random streams for the Monte Carlo pieces.

Counter-based Philox generators keyed by (seed, stream) make every
estimate reproducible regardless of chunk sizes or thread counts: chunk c
of a run always draws from the same stream, so splitting work differently
cannot change the numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["stream", "batches", "standard_exponential"]


def stream(seed: int, chunk: int = 0) -> np.random.Generator:
    """Philox generator for one (seed, chunk) pair."""
    seed = int(seed)
    chunk = int(chunk)
    if seed < 0 or chunk < 0:
        raise DomainError("seed and chunk must be nonnegative integers")
    return np.random.Generator(np.random.Philox(key=(seed, chunk)))


def batches(seed: int, count: int, size: int):
    """Split count draws into batches of at most size: yield
    (stream(seed, b), draws of batch b) for b = 0, 1, ..., so batch b
    always draws from the same substream."""
    for b, done in enumerate(range(0, count, size)):
        yield stream(seed, b), min(size, count - done)


def standard_exponential(gen: np.random.Generator, shape) -> np.ndarray:
    """Exp(1) draws by inverse CDF, -log1p(-U), for exact tail behavior."""
    u = gen.random(shape)
    return -np.log1p(-u)
