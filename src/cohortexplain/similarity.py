"""Per-target similarity indicators, cohorts, cohort refinement along an
ordering, and soft similarity.

For a fixed target t, S[i, j] = |x_ij - x_tj| <= w_j says whether observation
i is similar to the target on feature j, w_j being the width of the column's
rule.  The dissimilarity set of each row is J_i = {j : S[i, j] = 0}; the
boolean matrix and the counts |J_i| are the only representation of it, and
every cohort, refinement path and soft weight is computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset, SimilaritySpec, similarity_widths
from .errors import TargetOutOfRange, ZOutOfRange


@dataclass(frozen=True, eq=False)
class SimilarityProfile:
    """Binary similarity of every observation to one target.

    ``indicators[i, j]`` is True when observation i is similar to the target
    on feature j; ``dissim_counts[i]`` is |J_i|.  The target row is
    all-similar, so J_t is empty.  Profiles compare and hash by identity.
    """

    target_index: int
    d: int
    indicators: np.ndarray
    dissim_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        S = np.array(self.indicators, dtype=bool)
        if S.ndim != 2 or S.shape[1] != self.d:
            raise ValueError(f"indicators must have shape (n, {self.d}), got {S.shape}")
        if not 0 <= self.target_index < S.shape[0]:
            raise TargetOutOfRange(self.target_index, S.shape[0])
        if not S[self.target_index].all():
            raise ValueError("target row must be similar to itself on every feature")
        counts = (~S).sum(axis=1).astype(np.int64)
        for arr in (S, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "indicators", S)
        object.__setattr__(self, "dissim_counts", counts)

    @property
    def n(self) -> int:
        return self.indicators.shape[0]

    @classmethod
    def from_indicators(cls, indicators: np.ndarray, target_index: int) -> "SimilarityProfile":
        S = np.asarray(indicators, dtype=bool)
        return cls(target_index=target_index, d=S.shape[1], indicators=S)


def build_profile(ds: Dataset, spec: SimilaritySpec, target_index: int) -> SimilarityProfile:
    """Indicators S[i, j] = |x_ij - x_tj| <= w_j for one target t, w from ``similarity_widths``."""
    if not 0 <= target_index < ds.n:
        raise TargetOutOfRange(target_index, ds.n)
    widths = similarity_widths(ds, spec)
    diff = ds.features - ds.features[target_index]
    np.abs(diff, out=diff)
    return SimilarityProfile.from_indicators(diff <= widths, target_index)


def cohort(profile: SimilarityProfile, u) -> np.ndarray:
    """Indices of observations similar to the target on every feature in u.

    The empty set conditions on nothing, so it returns all rows; the target
    is always a member.
    """
    u = sorted(set(int(j) for j in u))
    if u and (u[0] < 0 or u[-1] >= profile.d):
        raise ValueError(f"feature subset {u} not contained in [0, {profile.d})")
    if not u:
        return np.arange(profile.n)
    return np.flatnonzero(profile.indicators[:, u].all(axis=1))


def refinement_path(
    profile: SimilarityProfile, ordering, responses=None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Cohort size and response sum after each prefix of an ordering.

    Entry k of both arrays describes the cohort similar to the target on the
    first k features of ``ordering`` (a non-empty sequence of distinct
    features), for k = 0..len(ordering).  A row leaves the cohort at the
    first position where it is dissimilar and never returns, so one argmin
    per row finds its exit position and reverse cumulative counts over the
    exits give every prefix at once.  The sums are None without responses.
    """
    S = profile.indicators[:, np.asarray(ordering, dtype=np.intp)]
    k = S.shape[1]
    first = S.argmin(axis=1)
    exits = np.where(S[np.arange(len(S)), first], k, first)
    sizes = np.bincount(exits, minlength=k + 1)[::-1].cumsum()[::-1]
    if responses is None:
        return sizes, None
    sums = np.bincount(exits, weights=responses, minlength=k + 1)[::-1].cumsum()[::-1]
    return sizes, sums


def check_unit_cube(z, d: int) -> np.ndarray:
    """Validate a point of the weight space [0, 1]^d."""
    z = np.asarray(z, dtype=float)
    if z.shape != (d,):
        raise ZOutOfRange(f"z must have shape ({d},), got {z.shape}")
    if not (np.all(z >= 0.0) and np.all(z <= 1.0)):
        raise ZOutOfRange("z must lie in [0, 1]^d")
    return z


def soft_similarity(profile: SimilarityProfile, z) -> np.ndarray:
    """Soft similarity s_z(x_i) = prod_{j in J_i} (1 - z_j).

    Interpolates each indicator linearly from 1 at z_j = 0 down to
    S[i, j] at z_j = 1, so corners of the cube reproduce the binary
    S_u indicators and the target always scores exactly 1.
    """
    z = check_unit_cube(z, profile.d)
    factors = np.where(profile.indicators, 1.0, 1.0 - z[np.newaxis, :])
    return factors.prod(axis=1)
