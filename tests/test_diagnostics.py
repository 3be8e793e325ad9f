import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortexplain import (
    DimensionTooLarge,
    EmptyDissimSet,
    EpsOutOfRange,
    Equality,
    QuadratureSpec,
    SimilaritySpec,
    corner_convergence,
    cs_vs_igcs,
    heps_mass,
    second_order_weights,
)

from cohortexplain.diagnostics import spearman

from conftest import D3_FEATURES, D3_RESPONSES, make_dataset, power_product_gradient, profile_from_indicators
from oracles import diagonal_ig


def profile_with_counts(rng, n, d, low, high, target=0):
    """Non-target rows get |J_i| uniform in [low, high]."""
    S = np.ones((n, d), dtype=bool)
    for i in range(n):
        if i == target:
            continue
        k = int(rng.integers(low, high + 1))
        S[i, rng.choice(d, size=k, replace=False)] = False
    return profile_from_indicators(S, target)


def test_heps_validation(d3_profile):
    with pytest.raises(EpsOutOfRange):
        heps_mass(d3_profile, eps=0.0, samples=10)
    with pytest.raises(EpsOutOfRange):
        heps_mass(d3_profile, eps=1.0, samples=10)
    with pytest.raises(ValueError):
        heps_mass(d3_profile, eps=0.5, samples=0)


def test_heps_bound_formula():
    # 100 non-target rows, each dissimilar on half of d=200 features:
    # bound = (100^2 / 0.01) * exp(-floor(0.5 * 200) / 4) = 1e6 * e^-25
    rng = np.random.default_rng(41)
    profile = profile_with_counts(rng, n=101, d=200, low=100, high=100)
    report = heps_mass(profile, eps=0.01, samples=10, seed=0)
    assert report.a == 0.5 and report.rows_used == 100
    assert report.theorem_bound == pytest.approx(1e6 * math.exp(-25.0), rel=1e-12)


def test_heps_duplicate_regime():
    # a duplicate of the target always contributes product 1, so the whole
    # cube is inside H_eps; the report flags the duplicate and computes a
    # over the remaining rows
    S = np.ones((4, 6), dtype=bool)
    S[2, :3] = False  # |J_2| = 3
    S[3, :] = False   # |J_3| = 6
    # row 1 is a duplicate of the target (all-similar)
    profile = profile_from_indicators(S, 0)
    report = heps_mass(profile, eps=0.5, samples=200, seed=1)
    assert report.duplicates == 1
    assert report.rows_used == 2
    assert report.a == pytest.approx(0.5)
    assert report.A == pytest.approx(1.0)
    assert report.mass_estimate == 1.0


def test_heps_all_dissimilar_mass_vanishes():
    S = np.zeros((6, 60), dtype=bool)
    S[0] = True
    profile = profile_from_indicators(S, 0)
    report = heps_mass(profile, eps=0.01, samples=500, seed=2)
    assert report.a == 1.0 and report.A == 1.0
    assert report.mass_estimate <= report.theorem_bound + 3 * report.mass_se
    assert report.mass_estimate < 0.01


def test_heps_estimate_matches_brute_force_probability():
    rng = np.random.default_rng(43)
    profile = profile_with_counts(rng, n=12, d=6, low=2, high=5)
    eps = 0.3
    report = heps_mass(profile, eps=eps, samples=4000, seed=3)
    # independent estimate with a different sampler
    check_rng = np.random.default_rng(999)
    hits = 0
    trials = 4000
    dissim = ~profile.indicators
    for _ in range(trials):
        z = check_rng.random(6)
        total = 0.0
        for i in range(12):
            if i == 0:
                continue
            prod = 1.0
            for j in range(6):
                if dissim[i, j]:
                    prod *= 1.0 - z[j]
            total += prod
        hits += total >= eps
    p_check = hits / trials
    se = math.sqrt(p_check * (1 - p_check) / trials) + report.mass_se
    assert abs(report.mass_estimate - p_check) <= 4 * se


def test_corner_convergence_d3(d3_profile):
    report = corner_convergence(d3_profile)
    assert report.fraction == 0.5 and report.corners_inside == 2
    assert report.bound == 1.0


def test_corner_single_full_dissim_row():
    S = np.ones((2, 5), dtype=bool)
    S[1] = False
    profile = profile_from_indicators(S, 0)
    report = corner_convergence(profile)
    assert report.corners_inside == 1  # only u = empty
    assert report.fraction == pytest.approx(2.0**-5)
    assert report.bound == pytest.approx(2.0**-5)


def test_corner_full_subset_inside_iff_duplicate():
    S = np.ones((3, 4), dtype=bool)
    S[2, 0] = False
    profile = profile_from_indicators(S, 0)  # row 1 duplicates target
    report = corner_convergence(profile)
    assert report.fraction == 1.0  # duplicate makes every corner inside

    S2 = ~np.zeros((3, 4), dtype=bool)
    S2[1, 1] = False
    S2[2, 0] = False
    profile2 = profile_from_indicators(S2, 0)
    report2 = corner_convergence(profile2)
    assert report2.fraction < 1.0


def test_corner_matches_brute_force():
    rng = np.random.default_rng(44)
    for _ in range(5):
        profile = profile_with_counts(rng, n=10, d=8, low=1, high=8)
        report = corner_convergence(profile)
        dissim_sets = [set(np.flatnonzero(~profile.indicators[i]).tolist()) for i in range(1, 10)]
        inside = 0
        for mask in range(1 << 8):
            u = {j for j in range(8) if (mask >> j) & 1}
            if any(not (u & J) for J in dissim_sets):
                inside += 1
        assert report.corners_inside == inside
        assert report.fraction <= report.bound


def test_corner_dimension_cap():
    S = np.ones((2, 21), dtype=bool)
    S[1, 0] = False
    with pytest.raises(DimensionTooLarge):
        corner_convergence(profile_from_indicators(S, 0))


def test_second_order_weight_examples():
    cs, ig = second_order_weights({0, 1}, {1, 2}, d=4)
    np.testing.assert_allclose(cs, [1 / 3, 1 / 3, 1 / 3, 0.0])
    np.testing.assert_allclose(ig, [0.25, 0.5, 0.25, 0.0])

    cs_same, ig_same = second_order_weights({0}, {0}, d=2)
    np.testing.assert_allclose(cs_same, [1.0, 0.0])
    np.testing.assert_allclose(ig_same, [1.0, 0.0])

    cs_disj, ig_disj = second_order_weights({0, 1}, {2, 3, 4}, d=6)
    np.testing.assert_allclose(cs_disj[:5], np.full(5, 0.2))
    np.testing.assert_allclose(ig_disj, cs_disj)

    with pytest.raises(EmptyDissimSet):
        second_order_weights(set(), {1}, d=3)
    with pytest.raises(ValueError):
        second_order_weights({0}, {5}, d=3)


def test_second_order_weights_sum_to_one():
    rng = np.random.default_rng(45)
    for _ in range(30):
        d = int(rng.integers(2, 12))
        a = set(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
        b = set(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
        cs, ig = second_order_weights(a, b, d)
        assert cs.sum() == pytest.approx(1.0, abs=1e-12)
        assert ig.sum() == pytest.approx(1.0, abs=1e-12)


def pair_term(a, b, d):
    """The gradient of g_{i,i'}(z) = prod_{J_i}(1-z_j) prod_{J_i'}(1-z_j)
    at each row of an (R, d) array."""
    exponents = np.zeros(d)
    for j in a:
        exponents[j] += 1
    for j in b:
        exponents[j] += 1
    return power_product_gradient(exponents)


def test_pair_term_ig_matches_closed_form():
    rng = np.random.default_rng(46)
    for _ in range(10):
        d = int(rng.integers(3, 10))
        a = set(rng.choice(d, size=int(rng.integers(1, min(4, d) + 1)), replace=False).tolist())
        b = set(rng.choice(d, size=int(rng.integers(1, min(4, d) + 1)), replace=False).tolist())
        psi = diagonal_ig(pair_term(a, b, d), d, 10_000)
        _, ig_weights = second_order_weights(a, b, d)
        # attributions explain g(1) - g(0) = -1, so psi = -weights
        np.testing.assert_allclose(psi, -ig_weights, atol=1e-6)


def test_cs_vs_igcs_d3():
    ds = make_dataset(D3_FEATURES, D3_RESPONSES)
    spec = SimilaritySpec((Equality(), Equality()))
    record = cs_vs_igcs(ds, spec, target_index=0, quad=QuadratureSpec(500))
    assert record.cs_method == "exact"
    np.testing.assert_allclose(record.cs_values, [-0.25, -0.75])
    np.testing.assert_allclose(record.igcs_values, [-1 / 3, -2 / 3], atol=1e-4)
    assert record.rank_correlation == pytest.approx(1.0)
    assert record.cs_values.sum() == pytest.approx(-1.0, abs=1e-12)
    assert record.igcs_values.sum() == pytest.approx(-1.0, abs=1e-4)
    assert record.cs_abc_insertion == 0.0 and record.cs_abc_deletion == 0.5
    assert record.igcs_abc_insertion == 0.0 and record.igcs_abc_deletion == 0.5
    assert record.cs_seconds >= 0.0 and record.igcs_seconds >= 0.0


def test_cs_vs_igcs_single_constraint_dataset():
    rng = np.random.default_rng(47)
    n = 30
    x = (rng.random(n) < 0.5).astype(float)
    x[0] = 1.0
    features = np.column_stack([x, np.full(n, 2.0)])
    ds = make_dataset(features, rng.normal(size=n))
    spec = SimilaritySpec((Equality(), Equality()))
    record = cs_vs_igcs(ds, spec, target_index=0, quad=QuadratureSpec(400))
    np.testing.assert_allclose(record.difference, np.zeros(2), atol=1e-5)


def test_cs_vs_igcs_mc_route():
    rng = np.random.default_rng(48)
    ds = make_dataset((rng.random((20, 5)) < 0.5).astype(float), rng.normal(size=20))
    spec = SimilaritySpec(tuple(Equality() for _ in range(5)))
    record = cs_vs_igcs(ds, spec, target_index=0, mc_budget=200, seed=7, cap=3)
    assert record.cs_method == "permutation-mc"
    assert np.isfinite(record.rank_correlation)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 30).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
    st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e300]), min_size=d, max_size=d),
)))
def test_spearman_matches_scipy(pair):
    """Average ranks with ties, d = 1, and constant inputs (nan)."""
    from scipy.stats import spearmanr

    a, b = (np.array(v, dtype=float) for v in pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = spearmanr(a, b).statistic
    got = spearman(a, b)
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(expected, rel=0, abs=1e-12)


def test_spearman_edge_cases():
    assert np.isnan(spearman([1.0], [2.0]))
    assert np.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert spearman([1.0, 2.0, 2.0, 5.0], [0.0, 1.0, 1.0, 9.0]) == pytest.approx(1.0, abs=1e-15)
    assert spearman([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]) == pytest.approx(-1.0, abs=1e-15)
