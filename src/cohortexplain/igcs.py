"""Diagonal-path integrated-gradient attribution of the soft cohort value.

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

import numpy as np

from .errors import ConfigError
from .shapley import Attribution, check_memory
from .similarity import SimilarityProfile


#: R, the number of midpoint nodes on the diagonal path.
DEFAULT_STEPS = 50


class SoftValue:
    """The soft cohort mean nu(z) for one target, in the form IGCS reads.

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


def igcs_attribution(sv: SoftValue, steps: int = DEFAULT_STEPS) -> Attribution:
    """Integrated-gradient attribution psi of the soft cohort value.

    psi_k averages d nu / d z_k over the R = ``steps`` midpoint nodes
    alpha_r = (2r - 1) / (2R), u_r = 1 - alpha_r, of the diagonal path.  The
    midpoint rule avoids privileging the endpoints and converges at order 2,
    because the integrand is smooth on [0, 1] (the soft cardinality never
    drops below 1).  On the path a row with |J_i| = c contributes
    u^(c-1) (C / B^2 - f_i / B) to every k in J_i, where B = sum_c r_c u^c and
    C = sum_c f_c u^c over the buckets' row counts r_c and response sums f_c.
    So psi = w @ D with one weight per row, w_i = f_i a_c + b_c, from the
    bucket integrals a_c = -mean_r u^(c-1) / B and b_c = mean_r C u^(c-1) / B^2:
    O(R K) for the integrals plus one O(n d) product.

    The efficiency gap (nu(1) - nu(0)) - sum(psi) is reported as-is; it
    shrinks at the quadrature order and is never normalized away.  Steps
    whose R x K float64 tables (three live at once) exceed physical memory
    are refused before they are allocated (``ComputationError``).
    """
    try:
        R = operator.index(steps)
    except TypeError:
        raise ConfigError(f"quadrature steps must be an integer, got {steps!r}") from None
    if R < 1:
        raise ConfigError(f"quadrature steps must be >= 1, got {R}")
    K = len(sv._distinct)
    check_memory(f"IGCS with {R} steps and {K} distinct counts", 3 * 8 * R * K, "its R x K tables")
    u = 1.0 - ((np.arange(R) + 0.5) / R)[:, np.newaxis]
    powers = u**sv._distinct
    B = powers @ sv._rows_per
    C = powers @ sv._fsum_per
    lowered = u ** (sv._distinct - 1.0) / B[:, np.newaxis]
    a = -lowered.mean(axis=0)
    b = (lowered * (C / B)[:, np.newaxis]).mean(axis=0)
    w = sv.responses * a[sv._bucket] + b[sv._bucket]
    psi = w @ sv.profile.dissimilar
    return Attribution(psi, sv.grand_mean, sv.refined_mean, meta={"steps": R})
