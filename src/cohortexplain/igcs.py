"""Soft cohort value on the unit cube, its exact gradient, and diagonal-path
integrated-gradient attribution.

The binary cohort mean extends to z in [0,1]^d as a ratio of a soft total to
a soft cardinality,

    nu(z) = sum_i f_i s_z(x_i) / sum_i s_z(x_i),
    s_z(x_i) = prod_{j in J_i} (1 - z_j),

whose corners reproduce the cohort means exactly.  Attributions come from
integrating the exact gradient of nu along the main diagonal with a midpoint
rule.  On the diagonal every row's weight collapses to u^{|J_i|}, u = 1 - alpha,
so the integral reduces to two scalar integrals per distinct |J_i| and one
row-weighted sum over the dissimilarity matrix: O(n d + R K) for R nodes and
K distinct counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .shapley import Attribution, _finish
from .similarity import SimilarityProfile, check_unit_cube, soft_similarity


@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced quadrature along the diagonal: R midpoint nodes
    alpha_r = (2r - 1) / (2R).  Midpoint avoids privileging the endpoints
    and converges at order 2 because the integrand is smooth on [0, 1]
    (the soft cardinality never drops below 1)."""

    steps: int = 50

    def __post_init__(self):
        try:
            operator.index(self.steps)
        except TypeError:
            raise ConfigError(f"quadrature steps must be an integer, got {self.steps!r}") from None
        if self.steps < 1:
            raise ConfigError(f"quadrature steps must be >= 1, got {self.steps}")

    def nodes(self) -> np.ndarray:
        return (np.arange(self.steps) + 0.5) / self.steps


class SoftValue:
    """The soft cohort mean nu(z) for one target, with exact derivatives.

    Rows are bucketed by dissimilarity count |J_i| at construction: each
    bucket keeps its row count and response sum, and each row its bucket.
    u^0 = 1 even at alpha = 1, which keeps the target (and any duplicates of
    it) in every cohort.
    """

    def __init__(self, profile: SimilarityProfile, responses):
        responses = np.asarray(responses, dtype=float)
        if responses.shape != (profile.n,):
            raise ValueError(f"responses must have shape ({profile.n},), got {responses.shape}")
        self.profile = profile
        self.responses = responses
        counts = profile.dissim_counts
        distinct, self._bucket = np.unique(counts, return_inverse=True)
        self._distinct = distinct.astype(float)
        self._rows_per = np.bincount(self._bucket).astype(float)
        self._fsum_per = np.bincount(self._bucket, weights=responses)
        self.grand_mean = float(responses.mean())
        self.refined_mean = float(responses[counts == 0].mean())

    @property
    def d(self) -> int:
        return self.profile.d

    def value(self, z) -> float:
        """nu(z): soft total over soft cardinality; nu(0) is the grand mean
        and every corner equals the matching cohort mean exactly."""
        s = soft_similarity(self.profile, z)
        return float((self.responses @ s) / s.sum())

    def gradient(self, z) -> np.ndarray:
        """Exact gradient of nu by the quotient rule.

        The per-row partial d s_z / d z_k is -prod_{j in J_i, j != k}(1-z_j)
        for k in J_i and 0 otherwise; rows are split by how many of their
        dissimilar factors are exactly zero so boundary points (some z_j = 1)
        are handled without dividing by zero.
        """
        z = check_unit_cube(z, self.d)
        D = self.profile.dissimilar
        resp = self.responses
        one_minus = 1.0 - z
        zero_factor = D & (one_minus == 0.0)[np.newaxis, :]
        n_zero = zero_factor.sum(axis=1)
        live = D & ~zero_factor
        prod_live = np.where(live, one_minus[np.newaxis, :], 1.0).prod(axis=1)

        s = np.where(n_zero == 0, prod_live, 0.0)
        denom = s.sum()
        numer = resp @ s

        partials = np.zeros((len(resp), self.d))
        full = n_zero == 0
        safe = np.where(one_minus == 0.0, 1.0, one_minus)
        partials[full] = (prod_live[full, np.newaxis] / safe[np.newaxis, :]) * D[full]
        single = n_zero == 1
        partials[single] = prod_live[single, np.newaxis] * zero_factor[single]

        d_grads = -partials.sum(axis=0)
        n_grads = -(resp @ partials)
        return (n_grads * denom - numer * d_grads) / denom**2


def igcs_attribution(sv: SoftValue, quad: QuadratureSpec = QuadratureSpec()) -> Attribution:
    """Integrated-gradient attribution psi of the soft cohort value.

    psi_k averages d nu / d z_k over the midpoint nodes u_r = 1 - alpha_r of
    the diagonal path.  There a row with |J_i| = c contributes
    u^(c-1) (C / B^2 - f_i / B) to every k in J_i, where B = sum_c r_c u^c and
    C = sum_c f_c u^c over the buckets' row counts r_c and response sums f_c.
    So psi = w @ D with one weight per row, w_i = f_i a_c + b_c, from the
    bucket integrals a_c = -mean_r u^(c-1) / B and b_c = mean_r C u^(c-1) / B^2:
    O(R K) for the integrals plus one O(n d) product.

    The efficiency gap (nu(1) - nu(0)) - sum(psi) is reported as-is; it
    shrinks at the quadrature order and is never normalized away.
    """
    u = 1.0 - quad.nodes()[:, np.newaxis]
    powers = u**sv._distinct
    B = powers @ sv._rows_per
    C = powers @ sv._fsum_per
    lowered = u ** (sv._distinct - 1.0) / B[:, np.newaxis]
    a = -lowered.mean(axis=0)
    b = (lowered * (C / B)[:, np.newaxis]).mean(axis=0)
    w = sv.responses * a[sv._bucket] + b[sv._bucket]
    psi = w @ sv.profile.dissimilar
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
