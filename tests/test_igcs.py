import numpy as np
import pytest

from cohortexplain import (
    CohortValue,
    ConfigError,
    SimilarityProfile,
    ZOutOfRange,
    exact_shapley,
    ig_of_function,
    igcs_attribution,
)
from cohortexplain.igcs import QuadratureSpec, SoftValue

from conftest import D3_RESPONSES, random_binary_profile
from oracles import (
    central_difference_gradient,
    make_table_vf,
    soft_value_brute,
)


@pytest.fixture
def d3_soft(d3_profile) -> SoftValue:
    return SoftValue(d3_profile, D3_RESPONSES)


def test_quadrature_spec_validation():
    assert len(QuadratureSpec(4).nodes()) == 4
    np.testing.assert_allclose(QuadratureSpec(2).nodes(), [0.25, 0.75])
    with pytest.raises(ConfigError):
        QuadratureSpec(0)


@pytest.mark.parametrize("steps", [2.5, 2.0, "3", None])
def test_quadrature_steps_must_be_integer(steps):
    # QuadratureSpec(2.5) would put a node at alpha = 1, where u^(c-1) is infinite for c = 0
    with pytest.raises(ConfigError, match="integer"):
        QuadratureSpec(steps)
    assert QuadratureSpec(np.int64(3)).steps == 3


def test_soft_value_examples(d3_soft):
    assert d3_soft.value(np.zeros(2)) == 2.0
    assert d3_soft.value(np.array([0.5, 0.5])) == pytest.approx(11.0 / 7.0, abs=1e-15)
    assert d3_soft.value(np.array([1.0, 0.0])) == 1.5  # corner -> cohort mean of {0}


def test_corner_consistency_exhaustive():
    rng = np.random.default_rng(21)
    d = 12
    profile = random_binary_profile(rng, n=60, d=d, target=4)
    responses = rng.normal(size=60)
    sv = SoftValue(profile, responses)
    cv = CohortValue(profile, responses)
    for mask in range(1 << d):
        z = np.array([(mask >> j) & 1 for j in range(d)], dtype=float)
        u = tuple(j for j in range(d) if (mask >> j) & 1)
        assert sv.value(z) == pytest.approx(cv.evaluate(u), abs=1e-12)


def test_soft_value_matches_brute_force():
    rng = np.random.default_rng(22)
    profile = random_binary_profile(rng, n=35, d=7, target=2)
    responses = rng.normal(size=35)
    sv = SoftValue(profile, responses)
    for _ in range(25):
        z = rng.random(7)
        expected = soft_value_brute(profile.indicators, responses, z)
        assert sv.value(z) == pytest.approx(expected, abs=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(23)
    worst = 0.0
    for n, d in [(10, 4), (50, 12), (200, 30)]:
        profile = random_binary_profile(rng, n=n, d=d, target=0)
        responses = rng.normal(size=n)
        sv = SoftValue(profile, responses)
        for _ in range(5):
            z = 0.05 + 0.9 * rng.random(d)  # interior points
            grad = sv.gradient(z)
            fd = central_difference_gradient(sv.value, z, h=1e-5)
            worst = max(worst, float(np.max(np.abs(grad - fd))))
    assert worst <= 1e-6


def test_gradient_at_boundary_points():
    rng = np.random.default_rng(24)
    profile = random_binary_profile(rng, n=30, d=6, target=1)
    responses = rng.normal(size=30)
    sv = SoftValue(profile, responses)
    # z with some coordinates exactly 1 exercises the zero-factor branches
    z = np.array([1.0, 0.3, 1.0, 0.0, 0.8, 1.0])
    grad = sv.gradient(z)
    # one-sided difference oracle on the feasible side
    h = 1e-6
    for k in range(6):
        down = z.copy()
        down[k] = max(0.0, z[k] - h)
        up = z.copy()
        up[k] = min(1.0, z[k] + h)
        one_sided = (sv.value(up) - sv.value(down)) / (up[k] - down[k])
        assert grad[k] == pytest.approx(one_sided, abs=1e-4)


def test_dummy_coordinate_gradient_is_zero(d3_soft):
    rng = np.random.default_rng(25)
    S = rng.random((20, 5)) < 0.5
    S[0] = True
    S[:, 3] = True  # feature 3 similar everywhere
    sv = SoftValue(SimilarityProfile.from_indicators(S, 0), rng.normal(size=20))
    for _ in range(10):
        z = rng.random(5)
        assert sv.gradient(z)[3] == 0.0
    psi = igcs_attribution(sv).values
    assert psi[3] == 0.0


def test_single_row_dataset_gradient_zero():
    profile = SimilarityProfile.from_indicators(np.ones((1, 4), bool), 0)
    sv = SoftValue(profile, np.array([2.5]))
    np.testing.assert_array_equal(sv.gradient(np.full(4, 0.3)), np.zeros(4))
    np.testing.assert_array_equal(igcs_attribution(sv).values, np.zeros(4))


def test_d3_gradient_closed_form(d3_soft):
    # On the diagonal: d nu/d z1 = -u(2+u)/(1+u+u^2)^2, d nu/d z2 = -(1+2u)/(1+u+u^2)^2
    for alpha in [0.1, 0.5, 0.9]:
        u = 1.0 - alpha
        denom = (1 + u + u * u) ** 2
        expected = np.array([-u * (2 + u) / denom, -(1 + 2 * u) / denom])
        np.testing.assert_allclose(d3_soft.gradient(np.full(2, alpha)), expected, atol=1e-14)
    # one midpoint node sits at alpha = 0.5
    np.testing.assert_allclose(
        igcs_attribution(d3_soft, QuadratureSpec(1)).values,
        [-1.25 / 3.0625, -2.0 / 3.0625],
        atol=1e-14,
    )


def _oracle_case(kind):
    rng = np.random.default_rng(26)
    if kind == "single-row":
        return np.ones((1, 5), dtype=bool), np.array([2.5])
    S = rng.random((40, 9)) < 0.6
    S[0] = True
    responses = rng.normal(size=40)
    if kind == "target-duplicates":
        S[1:6] = True  # |J_i| = 0
    elif kind == "all-dissimilar-row":
        S[7] = False
    elif kind == "similar-column":
        S[:, 4] = True
    elif kind == "scaled-responses":
        responses *= 10.0 ** rng.uniform(-3.0, 3.0, size=40)
    return S, responses


@pytest.mark.parametrize("steps", [1, 2, 50])
@pytest.mark.parametrize(
    "kind",
    ["single-row", "target-duplicates", "all-dissimilar-row", "similar-column", "scaled-responses"],
)
def test_igcs_matches_gradient_oracle(kind, steps):
    S, responses = _oracle_case(kind)
    sv = SoftValue(SimilarityProfile.from_indicators(S, 0), responses)
    quad = QuadratureSpec(steps)
    psi = igcs_attribution(sv, quad).values
    oracle = ig_of_function(sv.value, sv.d, quad, gradient=sv.gradient)
    scale = np.abs(oracle).max()
    assert np.abs(psi - oracle).max() <= 1e-12 * scale
    if kind == "similar-column":
        assert psi[4] == 0.0 and scale > 0.0
    if kind == "single-row":
        assert scale == 0.0


def test_d3_igcs_limit(d3_soft):
    # closed-form integrals give psi = (-1/3, -2/3); cross-checked by a
    # midpoint quadrature of the hand-derived integrand at R = 1e6
    alphas = (np.arange(1_000_000) + 0.5) / 1_000_000
    u = 1.0 - alphas
    denom = (1 + u + u * u) ** 2
    oracle = np.array([np.mean(-u * (2 + u) / denom), np.mean(-(1 + 2 * u) / denom)])
    np.testing.assert_allclose(oracle, [-1.0 / 3.0, -2.0 / 3.0], atol=1e-9)

    attr = igcs_attribution(d3_soft, QuadratureSpec(1000))
    np.testing.assert_allclose(attr.values, [-1.0 / 3.0, -2.0 / 3.0], atol=1e-5)
    assert attr.nu_empty == 2.0 and attr.nu_full == 1.0
    assert attr.meta["steps"] == 1000


def test_single_constraint_exactness():
    # every J_i inside {j0}: nu depends on one coordinate, IGCS = exact CS
    rng = np.random.default_rng(27)
    n, d, j0 = 40, 6, 2
    S = np.ones((n, d), dtype=bool)
    S[rng.random(n) < 0.5, j0] = False
    S[0] = True
    profile = SimilarityProfile.from_indicators(S, 0)
    responses = rng.normal(size=n)
    sv = SoftValue(profile, responses)
    attr = igcs_attribution(sv, QuadratureSpec(200))
    exact = exact_shapley(CohortValue(profile, responses))
    assert np.all(attr.values[np.arange(d) != j0] == 0.0)
    np.testing.assert_allclose(attr.values, exact.values, atol=1e-5)
    assert attr.values[j0] == pytest.approx(attr.nu_full - attr.nu_empty, abs=1e-5)


def test_more_steps_shrink_gap_same_ordering():
    # doubling-style step increase: ABC-relevant ordering stays put while the
    # efficiency gap drops
    rng = np.random.default_rng(30)
    profile = random_binary_profile(rng, n=60, d=10, target=0)
    sv = SoftValue(profile, rng.normal(size=60))
    at_50 = igcs_attribution(sv, QuadratureSpec(50))
    at_200 = igcs_attribution(sv, QuadratureSpec(200))
    assert abs(at_200.efficiency_gap) < abs(at_50.efficiency_gap)
    np.testing.assert_allclose(at_50.values, at_200.values, atol=1e-3)
    np.testing.assert_array_equal(
        np.argsort(-at_50.values), np.argsort(-at_200.values)
    )


def test_quadrature_order():
    rng = np.random.default_rng(0)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        S = rng.random((50, 8)) < 0.5
        S[0] = True
        sv = SoftValue(SimilarityProfile.from_indicators(S, 0), rng.normal(size=50))
        gap_r = igcs_attribution(sv, QuadratureSpec(5)).efficiency_gap
        gap_10r = igcs_attribution(sv, QuadratureSpec(50)).efficiency_gap
        assert abs(gap_r) > 1e-9
        assert abs(gap_10r) / abs(gap_r) <= 1.0 / 50.0


def test_ig_of_function_product_case():
    # g(z) = prod_{j in u} h(z_j), h = 1 + z^2, |u| = 3:
    # psi_j = (h(1)^3 - h(0)^3)/3 = 7/3 on u, 0 elsewhere
    u = (0, 2, 3)
    d = 5

    def h(v):
        return 1.0 + v * v

    def g(z):
        out = 1.0
        for j in u:
            out *= h(z[j])
        return out

    def grad(z):
        out = np.zeros(d)
        for j in u:
            out[j] = 2.0 * z[j] * g(z) / h(z[j])
        return out

    psi = ig_of_function(g, d, QuadratureSpec(10_000), gradient=grad)
    expected = np.array([7.0 / 3.0 if j in u else 0.0 for j in range(d)])
    np.testing.assert_allclose(psi, expected, atol=1e-6)


def test_ig_of_function_constant_and_gradient_free():
    psi = ig_of_function(lambda z: 42.0, 3, QuadratureSpec(50))
    np.testing.assert_allclose(psi, np.zeros(3), atol=1e-12)

    # gradient-free path estimator on a smooth additive function:
    # psi_j telescopes to g_j(1) - g_j(0) exactly for additive g
    def g(z):
        return float(np.sin(z[0]) + z[1] ** 3)

    psi = ig_of_function(g, 2, QuadratureSpec(400))
    np.testing.assert_allclose(psi, [np.sin(1.0), 1.0], atol=1e-3)


def _random_multilinear(rng, d):
    coeffs = rng.normal(size=1 << d)
    members = np.array([[(m >> j) & 1 for j in range(d)] for m in range(1 << d)], dtype=bool)

    def g(z):
        prods = np.prod(np.where(members, z[np.newaxis, :], 1.0), axis=1)
        return float(coeffs @ prods)

    def grad(z):
        out = np.zeros(d)
        for j in range(d):
            reduced = members.copy()
            reduced[:, j] = False
            pj = np.prod(np.where(reduced, z[np.newaxis, :], 1.0), axis=1)
            out[j] = float(coeffs[members[:, j]] @ pj[members[:, j]])
        return out

    corner_values = np.array([g(np.array([(m >> j) & 1 for j in range(d)], dtype=float)) for m in range(1 << d)])
    return g, grad, corner_values


def test_multilinear_matches_corner_shapley():
    rng = np.random.default_rng(28)
    for d in (3, 5):
        g, grad, corners = _random_multilinear(rng, d)
        psi = ig_of_function(g, d, QuadratureSpec(10_000), gradient=grad)
        phi = exact_shapley(make_table_vf(corners, d)).values
        np.testing.assert_allclose(psi, phi, atol=1e-6)


def test_soft_total_numerator_is_multilinear():
    # the soft total alone (no ratio) is multilinear, so its IGCS matches
    # the exact Shapley values of its corner restriction
    rng = np.random.default_rng(29)
    d = 6
    profile = random_binary_profile(rng, n=30, d=d, target=0)
    responses = rng.normal(size=30)
    dissim = ~profile.indicators

    def g(z):
        return float(responses @ np.prod(np.where(dissim, 1.0 - z[np.newaxis, :], 1.0), axis=1))

    def grad(z):
        out = np.zeros(d)
        for k in range(d):
            reduced = dissim.copy()
            reduced[:, k] = False
            pk = np.prod(np.where(reduced, 1.0 - z[np.newaxis, :], 1.0), axis=1)
            out[k] = -float(responses[dissim[:, k]] @ pk[dissim[:, k]])
        return out

    corners = np.array([
        g(np.array([(m >> j) & 1 for j in range(d)], dtype=float)) for m in range(1 << d)
    ])
    psi = ig_of_function(g, d, QuadratureSpec(10_000), gradient=grad)
    phi = exact_shapley(make_table_vf(corners, d)).values
    np.testing.assert_allclose(psi, phi, atol=1e-6)


def test_value_z_validation(d3_soft):
    with pytest.raises(ZOutOfRange):
        d3_soft.value(np.array([0.5, 1.0001]))
    with pytest.raises(ZOutOfRange):
        d3_soft.gradient(np.array([-0.2, 0.5]))
