"""Soft cohort value on the unit cube, its exact gradient, and diagonal-path
integrated-gradient attribution.

The binary cohort mean extends to z in [0,1]^d as a ratio of a soft total to
a soft cardinality,

    nu(z) = sum_i f_i s_z(x_i) / sum_i s_z(x_i),
    s_z(x_i) = prod_{j in J_i} (1 - z_j),

whose corners reproduce the cohort means exactly.  Attributions come from
integrating the exact gradient of nu along the main diagonal with a midpoint
rule; on the diagonal every row's weight collapses to (1 - alpha)^{|J_i|},
so one node costs O(sum_i |J_i|) after bucketing rows by |J_i|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ZOutOfRange
from .shapley import Attribution, _finish
from .similarity import SimilarityProfile, check_unit_cube


@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced quadrature along the diagonal: R midpoint nodes
    alpha_r = (2r - 1) / (2R).  Midpoint avoids privileging the endpoints
    and converges at order 2 because the integrand is smooth on [0, 1]
    (the soft cardinality never drops below 1)."""

    steps: int = 50

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"quadrature steps must be >= 1, got {self.steps}")

    def nodes(self) -> np.ndarray:
        return (np.arange(self.steps) + 0.5) / self.steps


class DiagonalTerms(NamedTuple):
    """Pieces of the gradient at a diagonal point alpha * 1.

    denominator B = sum_i (1-alpha)^{|J_i|}, numerator C = sum_i f_i (...),
    and the per-coordinate derivative sums D_k, A_k over rows with k in J_i.
    The gradient coordinate is (A_k B - C D_k) / B^2.
    """

    denominator: float
    numerator: float
    denominator_grads: np.ndarray
    numerator_grads: np.ndarray


class SoftValue:
    """The soft cohort mean nu(z) for one target, with exact derivatives.

    Rows are bucketed by dissimilarity count |J_i| at construction so each
    distinct power of (1 - alpha) is computed once per diagonal node;
    (1-alpha)^0 = 1 even at alpha = 1, which keeps the target (and any
    duplicates of it) in every cohort.
    """

    def __init__(self, profile: SimilarityProfile, responses):
        responses = np.asarray(responses, dtype=float)
        if responses.shape != (profile.n,):
            raise ValueError(f"responses must have shape ({profile.n},), got {responses.shape}")
        self.profile = profile
        self.responses = responses
        self._dissim = ~profile.indicators
        counts = profile.dissim_counts
        distinct, inverse = np.unique(counts, return_inverse=True)
        self._distinct = distinct.astype(float)
        self._rows_per = np.bincount(inverse).astype(float)
        self._fsum_per = np.bincount(inverse, weights=responses)
        positive = distinct >= 1
        self._pos_counts = distinct[positive].astype(float)
        col_rows = np.empty((positive.sum(), profile.d))
        col_fsum = np.empty_like(col_rows)
        for k, c in enumerate(distinct[positive]):
            rows = counts == c
            sub = self._dissim[rows]
            col_rows[k] = sub.sum(axis=0)
            col_fsum[k] = responses[rows] @ sub
        self._col_rows = col_rows
        self._col_fsum = col_fsum
        self.grand_mean = float(responses.mean())
        self.refined_mean = float(responses[counts == 0].mean())

    @property
    def d(self) -> int:
        return self.profile.d

    def value(self, z) -> float:
        """nu(z): soft total over soft cardinality; nu(0) is the grand mean
        and every corner equals the matching cohort mean exactly."""
        z = check_unit_cube(z, self.d)
        factors = np.where(self._dissim, 1.0 - z[np.newaxis, :], 1.0)
        s = factors.prod(axis=1)
        return float((self.responses @ s) / s.sum())

    def gradient(self, z) -> np.ndarray:
        """Exact gradient of nu by the quotient rule.

        The per-row partial d s_z / d z_k is -prod_{j in J_i, j != k}(1-z_j)
        for k in J_i and 0 otherwise; rows are split by how many of their
        dissimilar factors are exactly zero so boundary points (some z_j = 1)
        are handled without dividing by zero.
        """
        z = check_unit_cube(z, self.d)
        resp = self.responses
        one_minus = 1.0 - z
        zero_factor = self._dissim & (one_minus == 0.0)[np.newaxis, :]
        n_zero = zero_factor.sum(axis=1)
        live = self._dissim & ~zero_factor
        prod_live = np.where(live, one_minus[np.newaxis, :], 1.0).prod(axis=1)

        s = np.where(n_zero == 0, prod_live, 0.0)
        denom = s.sum()
        numer = resp @ s

        partials = np.zeros((len(resp), self.d))
        full = n_zero == 0
        safe = np.where(one_minus == 0.0, 1.0, one_minus)
        partials[full] = (prod_live[full, np.newaxis] / safe[np.newaxis, :]) * self._dissim[full]
        single = n_zero == 1
        partials[single] = prod_live[single, np.newaxis] * zero_factor[single]

        d_grads = -partials.sum(axis=0)
        n_grads = -(resp @ partials)
        return (n_grads * denom - numer * d_grads) / denom**2

    def diagonal_terms(self, alpha: float) -> DiagonalTerms:
        """Gradient pieces at z = alpha * 1 via the bucketed power table."""
        if not 0.0 <= alpha <= 1.0:
            raise ZOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
        u = 1.0 - alpha
        powers = u ** self._distinct
        B = float(self._rows_per @ powers)
        C = float(self._fsum_per @ powers)
        lowered = u ** (self._pos_counts - 1.0)
        D = -(lowered @ self._col_rows)
        A = -(lowered @ self._col_fsum)
        return DiagonalTerms(B, C, D, A)

    def diagonal_gradient(self, alpha: float) -> np.ndarray:
        t = self.diagonal_terms(alpha)
        return (t.numerator_grads * t.denominator - t.numerator * t.denominator_grads) / t.denominator**2


def igcs_attribution(sv: SoftValue, quad: QuadratureSpec = QuadratureSpec()) -> Attribution:
    """Integrated-gradient attribution psi of the soft cohort value.

    psi_j averages d nu / d z_j over the midpoint nodes of the diagonal path
    from 0 to 1.  The efficiency gap (nu(1) - nu(0)) - sum(psi) is reported
    as-is; it shrinks at the quadrature order and is never normalized away.
    Runtime is O(n R d).
    """
    grads = np.empty((quad.steps, sv.d))
    for r, alpha in enumerate(quad.nodes()):
        grads[r] = sv.diagonal_gradient(alpha)
    psi = grads.mean(axis=0)
    return _finish(
        "igcs", psi, sv.grand_mean, sv.refined_mean, sv.profile.target_index,
        steps=quad.steps,
    )


def ig_of_function(
    value: Callable[[np.ndarray], float],
    d: int,
    quad: QuadratureSpec = QuadratureSpec(),
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Diagonal-path integrated gradients of an arbitrary function on [0,1]^d.

    With a gradient evaluator, averages it over the midpoint nodes.  Without
    one, falls back to the gradient-free path estimator
    sum_r [g(r/R 1 + e_j/R) - g(r/R 1)], which needs only function values.
    Used as the oracle for the Shapley-match property tests and the
    second-order diagnostics.
    """
    if gradient is not None:
        acc = np.zeros(d)
        for alpha in quad.nodes():
            acc += np.asarray(gradient(np.full(d, alpha)), dtype=float)
        return acc / quad.steps
    steps = quad.steps
    psi = np.zeros(d)
    for r in range(steps):
        base = np.full(d, r / steps)
        g_base = value(base)
        for j in range(d):
            stepped = base.copy()
            stepped[j] += 1.0 / steps
            psi[j] += value(stepped) - g_base
    return psi
