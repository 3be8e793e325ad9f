"""Seeded random machinery shared by the Monte Carlo code paths."""

from __future__ import annotations

import numpy as np


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """PCG64 generator seeded from SeedSequence([seed, *stream]).

    The extra stream components (target index, trial index, ...) give
    independent, reproducible substreams for the same user seed.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, stream)])))


def fisher_yates(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform permutation of range(d) by an explicit Fisher-Yates shuffle.

    Spelled out rather than delegated so the draw sequence is pinned to the
    generator's integer stream and stable across platforms and library
    versions.  The swap indices j_i in [0, i], i = d-1 .. 1, come from one
    array draw, which reads the stream as one scalar draw per i would.
    """
    perm = list(range(d))
    for i, j in zip(range(d - 1, 0, -1), rng.integers(0, np.arange(d, 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=int)
