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

#: Largest d for which any 2^d-entry subset table is built.
LATTICE_DIMENSION_CAP = 30
#: 2^d-entry float64 tables the exact engine budgets for.  Two and an
#: eighth are live at its peak (2.13-2.18 by tracemalloc at d=20): the two
#: superset tables a cohort value is made from, then the value table with its
#: centred copy, then the centred table, which B is written over, with A and
#: A's and B's weight rows.  A value function that keeps the table it returns
#: adds one; the rest is headroom for the memory others hold.
EXACT_TABLES = 6


class ValueFunction(ABC):
    """Evaluable map nu from subsets of [d] to reals.

    nu(empty) need not be zero; engines explain nu([d]) - nu(empty).
    Subclasses may override ``all_values`` or ``permutation_increments``
    when they can batch the work more efficiently than one evaluation per
    subset.
    """

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


@dataclass(frozen=True)
class Attribution:
    """Per-feature attribution values with the bookkeeping needed to audit them.

    ``efficiency_gap`` is computed: (nu_full - nu_empty) - sum(values).  It
    is zero up to rounding for exact methods and reflects quadrature error
    for integrated-gradient attributions.  ``stderr`` is present for Monte
    Carlo estimates only.  The record is frozen, so the gap cannot go stale;
    ``meta`` stays an open dict.
    """

    values: np.ndarray
    nu_empty: float
    nu_full: float
    stderr: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    efficiency_gap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "nu_empty", float(self.nu_empty))
        object.__setattr__(self, "nu_full", float(self.nu_full))
        object.__setattr__(self, "efficiency_gap", (self.nu_full - self.nu_empty) - float(self.values.sum()))


def physical_memory_bytes() -> int:
    """The machine's physical memory, from ``os.sysconf``."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _binary_size(size: int) -> str:
    """A byte count in the largest binary unit it reaches, to three significant digits."""
    power = min(6, max(0, (int(size).bit_length() - 1) // 10))
    x = size / (1 << 10 * power)
    digits = max(0, 2 - math.floor(math.log10(x))) if x > 0 else 0
    return f"{x:.{digits}f} {'B KiB MiB GiB TiB PiB EiB'.split()[power]}"


def check_memory(what: str, need: int, of: str) -> None:
    """Refuse (``ComputationError``), before it is allocated, working memory
    of ``need`` bytes, held in ``of``, that exceeds physical memory; each
    size prints in its own binary unit, to three significant digits."""
    have = physical_memory_bytes()
    if need > have:
        raise ComputationError(
            f"{what} needs about {_binary_size(need)} for {of}; physical memory is {_binary_size(have)}")


def check_lattice(what: str, d: int, tables: int) -> None:
    """Refuse, before anything is allocated, ``tables`` float64 tables over
    the 2^d subsets when d exceeds ``LATTICE_DIMENSION_CAP``
    (``DimensionTooLarge``) or the tables exceed physical memory
    (``ComputationError``)."""
    if d > LATTICE_DIMENSION_CAP:
        raise DimensionTooLarge(d, LATTICE_DIMENSION_CAP)
    check_memory(f"{what} at d={d}", tables * 8 << d, "its 2^d tables")


def exact_shapley(nu: ValueFunction) -> Attribution:
    """Exact Shapley values phi_j = (1/d) sum_u C(d-1,|u|)^-1 (nu(u+j) - nu(u)).

    Evaluates nu on all 2^d subsets (vectorized when the value function
    supports it) and combines them in one O(2^d) fold, so the result is
    deterministic and satisfies efficiency to rounding error.  With
    W(s) = 1 / (d C(d-1, s)) and the centred table c = nu - nu(empty)
    (adding a constant to nu leaves every phi_j unchanged), take
    A(u) = c(u) W(|u| - 1) for non-empty u and B(u) = c(u) W(|u|).  Then
    phi_j is the sum of A over the subsets that contain j minus the sum of
    B over those that do not.  From the top bit down, phi_j reads the two
    halves of the tables split by bit j, and each table is then folded in
    place onto its lower half, summing out bit j.  A and B are folded
    apart, as folding A + B and subtracting B's total loses digits to
    cancellation against that total; an uncentred table whose values sit
    far from 0 loses them the same way.  Time and memory grow as 2^d:
    before anything is allocated, ``check_lattice`` refuses a d above 30
    or ``EXACT_TABLES`` tables beyond physical memory.
    """
    d = nu.d
    check_lattice("exact Shapley", d, EXACT_TABLES)
    vals = np.asarray(nu.all_values(), dtype=float)
    nu_empty, nu_full = vals[0], vals[-1]
    c = vals - nu_empty  # a new table: the value function may own the one it returned
    del vals
    # W(s) for s = 0..d-1 between two zeros: A's weight at |u| is W_ext[|u|] and B's
    # W_ext[|u| + 1], and the zeros (A at the empty set, B at the full set) fall
    # outside every sum.  |u| is the popcount of u's top d - lo bits, its row of
    # the table, plus that of its lo low bits, so row k of T holds
    # W_ext[k + popcount(low bits)] for every low part: no 2^d weight table is made
    W_ext = np.array([0.0] + [1.0 / (d * math.comb(d - 1, s)) for s in range(d)] + [0.0])
    lo = max(d - 6, 0)
    T = W_ext[np.arange(d - lo + 2)[:, None] + np.bitwise_count(np.arange(1 << lo))]
    A, B = np.empty(1 << d), c  # B is written over c, so two tables are live
    for high, (row, A_row) in enumerate(zip(B.reshape(-1, 1 << lo), A.reshape(-1, 1 << lo))):
        k = high.bit_count()
        np.multiply(T[k], row, out=A_row)
        np.multiply(T[k + 1], row, out=row)
    phi = np.empty(d)
    for j in reversed(range(d)):
        h = 1 << j
        phi[j] = A[h:].sum() - B[:h].sum()
        A[:h] += A[h:]
        B[:h] += B[h:]
        A, B = A[:h], B[:h]
    return Attribution(phi, nu_empty, nu_full, meta={"evaluations": 1 << d})


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
    label = seed if isinstance(seed, int) else None
    return Attribution(values, nu.evaluate(()), nu.evaluate(tuple(range(d))), stderr,
                       {"samples": samples, "seed": label})
