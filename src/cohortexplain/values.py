"""Model-free value functions: cohort mean, Gaussian-kernel weighted mean,
and cohort uniqueness."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import (
    CategoricalFeatureUnsupported,
    ConfigError,
    SingularCovariance,
    TargetOutOfRange,
)
from .shapley import ValueFunction, check_lattice, depth_first_subsets
from .similarity import SimilarityProfile, cohort, feature_subset, refinement_path, superset_tables

#: GkwValue's kernel bandwidth, also the CLI's ``--sigma`` default.
DEFAULT_SIGMA = 0.1


class CohortValue(ValueFunction):
    """nu(u) = mean response over the cohort similar to the target on u.

    The cohort always contains the target, so the mean is defined for every
    subset; nu(empty) is the grand mean.
    """

    def __init__(self, profile: SimilarityProfile, responses):
        super().__init__(profile.d)
        responses = np.asarray(responses, dtype=float)
        if responses.shape != (profile.n,):
            raise ValueError(f"responses must have shape ({profile.n},), got {responses.shape}")
        self.profile = profile
        self.responses = responses

    def evaluate(self, u: Sequence[int]) -> float:
        return float(self.responses[cohort(self.profile, u)].mean())

    def all_values(self) -> np.ndarray:
        counts, sums = superset_tables(self.profile, np.ones(self.profile.n, dtype=bool), self.responses,
                                       finish=lambda part, counts, sums: np.divide(sums, counts, out=sums))
        return sums

    def permutation_increments(self, perm: np.ndarray) -> np.ndarray:
        sizes, sums = refinement_path(self.profile, perm, self.responses)
        inc = np.empty(self.d)
        inc[perm] = np.diff(sums / sizes)
        return inc


class UniquenessValue(ValueFunction):
    """nu(u) = -log2 |C_u|: how strongly conditioning on u isolates the target.

    Always <= 0, and 0 exactly when the cohort is the target alone (or its
    duplicates, which are kept as-is).
    """

    def __init__(self, profile: SimilarityProfile):
        super().__init__(profile.d)
        self.profile = profile

    def evaluate(self, u: Sequence[int]) -> float:
        return -math.log2(len(cohort(self.profile, u)))

    def all_values(self) -> np.ndarray:
        check_lattice("superset tables", self.d, 2)  # the counts and this table, before it is allocated
        out = np.empty(1 << self.d)

        def negative_log2(part, counts):
            np.negative(np.log2(counts, out=part(out)), out=part(out))

        superset_tables(self.profile, np.ones(self.profile.n, dtype=bool), finish=negative_log2)
        return out


class GkwValue(ValueFunction):
    """Gaussian-kernel weighted mean of observed responses.

    Weights decay with the scaled Mahalanobis distance between the target
    and each observation restricted to the conditioning subset:
    D_u^2 = (x_iu - x_tu)^T Sigma_uu^-1 (x_iu - x_tu) / |u| and
    w_i = exp(-D_u^2 / (2 sigma^2)).  Features are standardized internally
    and the covariance gets a ridge of ``1e-6 * trace(Sigma)/d`` before any
    submatrix is factorized, so collinear data stays invertible.  nu(empty)
    is the grand mean (all weights 1), matching the cohort-mean baseline.

    Every subset is reached by adding features in increasing order, one
    Cholesky row at a time (``_extend``): with Sigma_uu = L L^T, the path
    keeps the rows of [M | W] = L^-1 [Sigma[u, :] | (x_u - x_tu)^T], and
    the quadratic form grows by the square of each new row of W.
    """

    def __init__(self, ds: Dataset, target_index: int, sigma: float = DEFAULT_SIGMA):
        super().__init__(ds.d)
        if ds.categorical.any():
            raise CategoricalFeatureUnsupported(
                "the kernel-weight value function needs all-numeric features"
            )
        if not 0 <= target_index < ds.n:
            raise TargetOutOfRange(target_index, ds.n)
        if not 0 < sigma < math.inf:  # an infinite sigma would reach the JSON header as Infinity
            raise ConfigError(f"sigma must be finite and > 0, got {sigma}")
        try:
            self._two_sigma_sq = 2.0 * float(sigma) ** 2
        except OverflowError:  # every weight is 1, the limit of a growing sigma
            self._two_sigma_sq = math.inf
        if self._two_sigma_sq == 0:
            raise ConfigError(f"sigma {sigma} is too small: 2 * sigma**2 underflows to 0")
        if ds.n < 2:
            raise SingularCovariance("sample covariance needs at least 2 rows")
        X = ds.features
        mean = X.mean(axis=0)
        std = X.std(axis=0, ddof=1)
        scale = np.where(std > 0, std, 1.0)
        self._X = (X - mean) / scale
        cov = np.atleast_2d(np.cov(self._X, rowvar=False, ddof=1))
        cov += (1e-6 * np.trace(cov) / ds.d) * np.eye(ds.d)
        self._cov = cov
        # row j: Sigma[j, :] then x_ij - x_tj over all rows i
        self._rows = np.hstack([cov, (self._X - self._X[target_index]).T])
        self.responses = ds.responses
        self.target_index = target_index
        self.sigma = sigma

    def _path(self):
        """Empty factor rows [M | W] and quadratic forms q (q[k] over the path's first k features)."""
        return np.empty_like(self._rows), np.zeros((self.d + 1, len(self.responses)))

    def _extend(self, path, u: tuple[int, ...]) -> None:
        """One Cholesky step: the path holds the rows of u[:-1]; write row k for u[-1]."""
        rows, q = path
        k, j = len(u) - 1, u[-1]
        l = rows[:k, j]
        pivot = self._cov[j, j] - l @ l
        if not pivot > 0:
            raise SingularCovariance(f"covariance submatrix for {u} is not positive definite")
        rows[k] = (self._rows[j] - l @ rows[:k]) / math.sqrt(pivot)
        w_new = rows[k, self.d :]
        np.add(q[k], w_new * w_new, out=q[k + 1])

    def _step(self, path, u: tuple[int, ...]) -> np.ndarray:
        """``_extend`` then u's kernel weights, inside ``np.errstate(over="ignore")``:
        an overflowing exponent gives weight 0, its limit."""
        self._extend(path, u)
        d_sq = path[1][len(u)] / len(u)
        return np.exp(-d_sq / self._two_sigma_sq)

    def weights(self, u: Sequence[int], path=None) -> np.ndarray:
        """Kernel weight of every observation for the subset u (target gets 1).

        ``path`` (from ``_path``) may already hold u without its largest
        feature, as in the lattice walk; then u must be a sorted tuple, it
        costs one step, and the caller holds ``np.errstate(over="ignore")``.
        """
        if path is not None:
            return self._step(path, u)
        u = tuple(feature_subset(u, self.d))
        if not u:
            return np.ones(len(self.responses))
        path = self._path()
        for k in range(1, len(u)):
            self._extend(path, u[:k])
        with np.errstate(over="ignore"):
            return self._step(path, u)

    def evaluate(self, u: Sequence[int]) -> float:
        u = tuple(u)
        if not u:
            return float(self.responses.mean())
        w = self.weights(u)
        return float((w @ self.responses) / w.sum())

    def all_values(self) -> np.ndarray:
        """The 2^d lattice depth-first: each child of u adds a feature above
        max(u), so every subset costs one step and none is factorized anew."""
        d = self.d
        check_lattice("the GKW subset table", d, 1)
        out = np.empty(1 << d)
        out[0] = self.responses.mean()
        path = self._path()
        with np.errstate(over="ignore"):
            for mask, u in depth_first_subsets(d):
                w = self.weights(u, path)
                out[mask] = (w @ self.responses) / w.sum()
        return out
