"""Exact and Monte Carlo Shapley attribution over arbitrary value functions.

A value function maps feature subsets of [d] to a real score.  The exact
engine averages incremental values with the combinatorial weights
1 / (d * C(d-1, |u|)); the Monte Carlo engine averages increments along
uniformly sampled permutations, which keeps the efficiency identity exact
for every sample by telescoping.  Both explain nu([d]) - nu(empty).
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ComputationError, DimensionTooLarge
from .sampling import fisher_yates, rng_from

DEFAULT_DIMENSION_CAP = 25
#: Largest d for which any 2^d-entry subset table is built.
LATTICE_DIMENSION_CAP = 30
#: 2^d-entry float64 tables the exact engine budgets for.  Three are live at
#: its peak (the value table with the superset tables or the popcounts and
#: weights); the rest is headroom for the memory others hold.
EXACT_TABLES = 6


class ValueFunction(ABC):
    """Evaluable map nu from subsets of [d] to reals.

    nu(empty) need not be zero; engines explain nu([d]) - nu(empty).
    Subclasses may override ``all_values`` or ``permutation_increments``
    when they can batch the work more efficiently than one evaluation per
    subset.
    """

    #: set by concrete value functions tied to one observation
    target_index: Optional[int] = None

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d

    @abstractmethod
    def evaluate(self, u: Sequence[int]) -> float:
        """nu(u) for a subset u given as a sequence of feature indices."""

    def all_values(self) -> np.ndarray:
        """nu at every subset, indexed by bitmask (bit j set means j in u)."""
        d = self.d
        check_lattice("the subset table", d, 1)
        out = np.empty(1 << d)
        for mask in range(1 << d):
            out[mask] = self.evaluate(_mask_to_subset(mask, d))
        return out

    def permutation_increments(self, perm: np.ndarray) -> np.ndarray:
        """Incremental values nu(prefix + {j}) - nu(prefix) along one permutation,
        returned in feature order (entry j is the increment when j was added)."""
        inc = np.empty(self.d)
        prefix: list[int] = []
        prev = self.evaluate(())
        for j in perm:
            prefix.append(int(j))
            cur = self.evaluate(tuple(prefix))
            inc[int(j)] = cur - prev
            prev = cur
        return inc


def _mask_to_subset(mask: int, d: int) -> tuple[int, ...]:
    return tuple(j for j in range(d) if (mask >> j) & 1)


def depth_first_subsets(d: int):
    """Every non-empty subset u of [d] as (bitmask, sorted tuple), depth
    first: each child of u adds a feature above max(u), and u comes after
    its prefix u[:-1] with only subsets longer than u[:-1] in between."""
    stack = [(1 << j, (j,)) for j in reversed(range(d))]
    while stack:
        mask, u = stack.pop()
        yield mask, u
        stack.extend((mask | 1 << j, u + (j,)) for j in reversed(range(u[-1] + 1, d)))


@dataclass
class Attribution:
    """Per-feature attribution values with the bookkeeping needed to audit them.

    ``efficiency_gap`` is (nu_full - nu_empty) - sum(values); it is zero up
    to rounding for exact methods and reflects quadrature error for
    integrated-gradient attributions.  ``stderr`` is present for Monte Carlo
    estimates only.
    """

    values: np.ndarray
    nu_empty: float
    nu_full: float
    efficiency_gap: float
    target_index: Optional[int] = None
    stderr: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)


def _finish(values, nu_empty, nu_full, target_index, stderr=None, **meta) -> Attribution:
    values = np.asarray(values, dtype=float)
    gap = (nu_full - nu_empty) - float(values.sum())
    return Attribution(
        values=values,
        nu_empty=float(nu_empty),
        nu_full=float(nu_full),
        efficiency_gap=gap,
        target_index=target_index,
        stderr=stderr,
        meta=meta,
    )


def physical_memory_bytes() -> int:
    """The machine's physical memory, from ``os.sysconf``."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(what: str, need: int, of: str) -> None:
    """Refuse (``ComputationError``), before it is allocated, working memory
    of ``need`` bytes, held in ``of``, that exceeds physical memory."""
    have = physical_memory_bytes()
    if need > have:
        raise ComputationError(
            f"{what} needs about {need / 2**30:.1f} GiB for {of}; "
            f"physical memory is {have / 2**30:.1f} GiB"
        )


def check_lattice(what: str, d: int, tables: int) -> None:
    """Refuse, before anything is allocated, ``tables`` float64 tables over
    the 2^d subsets when d exceeds ``LATTICE_DIMENSION_CAP``
    (``DimensionTooLarge``) or the tables exceed physical memory
    (``ComputationError``)."""
    if d > LATTICE_DIMENSION_CAP:
        raise DimensionTooLarge(d, LATTICE_DIMENSION_CAP)
    check_memory(f"{what} at d={d}", tables * 8 << d, "its 2^d tables")


def exact_shapley(nu: ValueFunction, cap: int = DEFAULT_DIMENSION_CAP) -> Attribution:
    """Exact Shapley values phi_j = (1/d) sum_u C(d-1,|u|)^-1 (nu(u+j) - nu(u)).

    Evaluates nu on all 2^d subsets (vectorized when the value function
    supports it) and combines increments with exact weights, so the result
    is deterministic and satisfies efficiency to rounding error.  Refuses,
    before allocating anything, a d whose tables would not fit in physical
    memory.
    """
    d = nu.d
    if d > cap:
        raise DimensionTooLarge(d, cap)
    check_lattice("exact Shapley", d, EXACT_TABLES)
    vals = np.asarray(nu.all_values(), dtype=float)
    # W[u] = 1 / (d * C(d-1, |u|)); the full set (|u| = d) never lacks a feature, so its 0 is unused
    weights = np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)] + [0.0])
    W = weights[np.bitwise_count(np.arange(1 << d, dtype=np.uint32))]
    phi = np.empty(d)
    for j in range(d):
        pairs = vals.reshape(-1, 2, 1 << j)
        phi[j] = np.sum(W.reshape(-1, 2, 1 << j)[:, 0, :] * (pairs[:, 1, :] - pairs[:, 0, :]))
    return _finish(phi, vals[0], vals[-1], nu.target_index, evaluations=1 << d)


def mc_shapley(
    nu: ValueFunction,
    samples: int,
    seed: Union[int, np.random.Generator] = 0,
) -> Attribution:
    """Monte Carlo Shapley estimate from uniformly sampled permutations.

    Each permutation contributes the incremental value of every feature as
    it joins the growing prefix, so the estimate sums exactly to
    nu([d]) - nu(empty) for any number of samples.  ``stderr`` holds the
    per-coordinate standard error over the sampled permutations (zeros when
    samples == 1).  Reproducible for a given integer seed.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    d = nu.d
    acc = np.zeros(d)
    acc_sq = np.zeros(d)
    for _ in range(samples):
        inc = nu.permutation_increments(fisher_yates(rng, d))
        acc += inc
        acc_sq += inc * inc
    values = acc / samples
    if samples > 1:
        var = np.maximum(acc_sq - samples * values**2, 0.0) / (samples - 1)
        stderr = np.sqrt(var / samples)
    else:
        stderr = np.zeros(d)
    nu_empty = nu.evaluate(())
    nu_full = nu.evaluate(tuple(range(d)))
    label = seed if isinstance(seed, int) else None
    return _finish(
        values, nu_empty, nu_full, nu.target_index,
        stderr=stderr, samples=samples, seed=label,
    )
