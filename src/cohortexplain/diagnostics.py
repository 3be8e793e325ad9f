"""Runnable convergence diagnostics and the closed form for pair terms.

The soft cohort value is nearly multilinear wherever the non-target soft
similarity mass stays below a threshold eps.  These diagnostics estimate how
much of the unit cube (and how many of its corners) violate that, and report
the matching analytic bounds, so users can check whether the
integrated-gradient attribution can be trusted to track the exact one on
their data.  ``second_order_weights`` gives both methods' weights for one
second-order pair term in closed form.  A side-by-side run of exact cohort
Shapley and IGCS is ``cohortexplain compare --methods cs-exact,igcs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import EpsOutOfRange, EmptyDissimSet
from .sampling import rng_from
from .similarity import SimilarityProfile, superset_tables


@dataclass(frozen=True)
class ConvergenceReport:
    """Estimated mass of the non-convergence region H_eps and its bound.

    ``a`` and ``A`` are the min and max dissimilarity fractions |J_i|/d over
    the rows backing the bound; rows identical to the target (|J_i| = 0) are
    counted separately as ``duplicates`` and excluded from ``a``, since the
    bound requires a > 0 and duplicates are handled by renormalizing the
    soft cohort mean.  ``theorem_bound`` is m^2/eps * exp(-floor(a d)/4)
    with m = ``rows_used``, the number of non-target, non-duplicate rows.
    """

    target_index: int
    eps: float
    a: float
    A: float
    duplicates: int
    rows_used: int
    mass_estimate: float
    mass_se: float
    theorem_bound: float
    samples: int
    seed: int


def heps_mass(
    profile: SimilarityProfile, eps: float, samples: int, seed: int = 0
) -> ConvergenceReport:
    """Monte Carlo estimate of Pr(z in H_eps) for z uniform on [0,1]^d.

    Membership is tested with the exact per-row products
    sum_{i != t} prod_{j in J_i} (1 - z_j) >= eps (computed in log space;
    the diagonal shortcut does not apply off the diagonal).
    """
    if not 0.0 < eps < 1.0:
        raise EpsOutOfRange(eps)
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    t = profile.target_index
    counts = profile.dissim_counts
    nontarget = np.ones(profile.n, dtype=bool)
    nontarget[t] = False
    duplicate = nontarget & (counts == 0)
    backing = nontarget & (counts > 0)
    m = int(backing.sum())
    d = profile.d
    fewest = int(counts[backing].min()) if m else 0  # floor(a d); a * d can round below it
    a = fewest / d
    A = float(counts[nontarget].max() / d) if nontarget.any() else 0.0
    bound = (m * m / eps) * math.exp(-fewest / 4.0) if m else 0.0

    dissim = profile.dissimilar[nontarget].astype(float)  # (n-1, d)
    rng = rng_from(seed)
    hits = 0
    chunk = max(1, 4_000_000 // max(1, *dissim.shape))  # z (batch x d), products (batch x n-1): <= 4M floats
    batch = np.empty((min(chunk, samples), d))  # one buffer: the next draws overwrite the last
    for start in range(0, samples, chunk):
        z = rng.random(out=batch[: samples - start])  # the same stream whatever the batches
        log_products = np.log1p(np.negative(z, out=z), out=z) @ dissim.T  # (batch, n-1)
        mass = np.exp(log_products, out=log_products).sum(axis=1)
        hits += int((mass >= eps).sum())
    p_hat = hits / samples
    se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return ConvergenceReport(
        target_index=t,
        eps=eps,
        a=a,
        A=A,
        duplicates=int(duplicate.sum()),
        rows_used=m,
        mass_estimate=p_hat,
        mass_se=se,
        theorem_bound=bound,
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class CornerReport:
    """Exact fraction of cube corners inside H_eps and the analytic cap."""

    fraction: float
    bound: float
    corners_inside: int


def corner_convergence(profile: SimilarityProfile) -> CornerReport:
    """Exhaustive corner census: the corner 1_u:0_-u lies inside H_eps
    (for any eps <= 1) iff some non-target row has u disjoint from J_i.

    Counted for all 2^d corners with one superset table of the non-target
    rows, so time and memory grow as 2^d (``check_lattice`` refuses d > 30).
    The fraction can never exceed m * 2^(-d a); that inequality is checked
    here as a self-test.
    """
    d = profile.d
    t = profile.target_index
    counts = profile.dissim_counts
    nontarget = np.ones(profile.n, dtype=bool)
    nontarget[t] = False
    m = int(nontarget.sum())
    if m == 0:
        return CornerReport(fraction=0.0, bound=0.0, corners_inside=0)
    # table[u] counts non-target rows similar on all of u, i.e. with u disjoint from J_i.
    (table,) = superset_tables(profile, nontarget.astype(float))
    inside = int(np.count_nonzero(table))
    fraction = inside / (1 << d)
    min_count = int(counts[nontarget].min())
    bound = m * 2.0 ** (-min_count)
    assert fraction <= bound
    return CornerReport(fraction=fraction, bound=bound, corners_inside=inside)


def second_order_weights(ji, jip, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form attribution weights for one second-order pair term.

    The pair term g(z) = prod_{J_i}(1-z_j) prod_{J_i'}(1-z_j) explains a unit
    drop between the corners z=0 and z=1.  The exact Shapley route spreads it
    uniformly over the union; the integrated-gradient route weights the
    intersection twice as much as the symmetric difference:
    2/(2|inter| + |diff|) versus 1/(2|inter| + |diff|).  Both weight vectors
    sum to 1 over the union.
    """
    a = frozenset(int(j) for j in ji)
    b = frozenset(int(j) for j in jip)
    if not a or not b:
        raise EmptyDissimSet("both dissimilarity sets must be nonempty")
    if max(a | b) >= d or min(a | b) < 0:
        raise ValueError(f"indices must lie in [0, {d})")
    union = sorted(a | b)
    inter = sorted(a & b)
    diff = sorted(a ^ b)
    cs = np.zeros(d)
    cs[union] = 1.0 / len(union)
    scale = 2 * len(inter) + len(diff)
    ig = np.zeros(d)
    ig[inter] = 2.0 / scale
    ig[diff] = 1.0 / scale
    return cs, ig
