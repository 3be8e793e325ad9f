"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them live)."""

import itertools
import math
import time
from functools import partial

import numpy as np
import pytest

from cohortexplain import (
    CohortValue,
    Equality,
    GkwValue,
    build_profile,
    abc_report,
    abc_scores,
    conditional_curves,
    corner_convergence,
    exact_shapley,
    heps_mass,
    igcs_attribution,
    make_similarity_spec,
    mc_shapley,
    second_order_weights,
)
from cohortexplain.igcs import QuadratureSpec, SoftValue
from cohortexplain.sampling import rng_from

from conftest import (
    D3_RESPONSES,
    make_dataset,
    power_product_gradient,
    product_gradient,
    profile_from_indicators,
    random_binary_profile,
    random_multilinear,
)
from oracles import (
    central_difference_gradient,
    cohort_mean_brute,
    diagonal_ig,
    make_table_vf,
    shapley_by_permutations,
    soft_gradient,
    soft_value,
)


# ---------------------------------------------------------------------------
# criterion 1: Shapley axioms on random value functions, d <= 6, < 1 s total

def _swap_bits(mask, i, j):
    bit_i, bit_j = (mask >> i) & 1, (mask >> j) & 1
    return (mask & ~(1 << i) & ~(1 << j)) | (bit_j << i) | (bit_i << j)


def test_criterion_01_shapley_axioms():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    previous = None
    for _ in range(100):
        d = int(rng.integers(3, 7))
        dummy = int(rng.integers(0, d))
        others = [j for j in range(d) if j != dummy]
        sym_a, sym_b = rng.choice(others, size=2, replace=False).tolist()

        vals = rng.normal(size=1 << d)
        for mask in range(1 << d):  # plant the dummy coordinate
            if (mask >> dummy) & 1:
                vals[mask] = vals[mask & ~(1 << dummy)]
        for mask in range(1 << d):  # symmetrize one pair
            swapped = _swap_bits(mask, sym_a, sym_b)
            if swapped > mask:
                mean = 0.5 * (vals[mask] + vals[swapped])
                vals[mask] = vals[swapped] = mean

        attr = exact_shapley(make_table_vf(vals, d))
        assert abs(attr.values.sum() - (vals[-1] - vals[0])) <= 1e-12  # efficiency
        assert abs(attr.values[dummy]) <= 1e-12  # dummy
        assert abs(attr.values[sym_a] - attr.values[sym_b]) <= 1e-12  # symmetry
        if previous is not None and previous[0] == d:  # additivity with the last same-d table
            prev_vals, prev_phi = previous[1], previous[2]
            combined = exact_shapley(make_table_vf(vals + prev_vals, d))
            np.testing.assert_allclose(combined.values, attr.values + prev_phi, atol=1e-12)
        previous = (d, vals, attr.values)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert elapsed < 1.0
    print(f"PASS criterion 1: axioms on {checked} random value functions in {elapsed:.3f} s")


# ---------------------------------------------------------------------------
# criterion 2: exact cohort Shapley equals the all-permutations oracle

def test_criterion_02_cs_oracle_equivalence(d3_profile):
    cv = CohortValue(d3_profile, D3_RESPONSES)
    np.testing.assert_allclose(exact_shapley(cv).values, [-0.25, -0.75], atol=1e-12)

    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 7))
        profile = random_binary_profile(rng, n, d, target=int(rng.integers(0, n)))
        responses = rng.normal(size=n)
        cache = {}

        def oracle_nu(u, _S=profile.indicators, _f=responses, _c=cache):
            key = tuple(sorted(u))
            if key not in _c:
                _c[key] = cohort_mean_brute(_S, _f, key)
            return _c[key]

        expected = shapley_by_permutations(oracle_nu, d)
        got = exact_shapley(CohortValue(profile, responses)).values
        worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst <= 1e-12
    print(f"PASS criterion 2: exact CS matches the permutation oracle, worst error {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: IGCS correctness (gradient, D3 limit, quadrature order)

def test_criterion_03_igcs_correctness(d3_profile):
    rng = np.random.default_rng(103)

    # (a) exact gradient vs central finite differences
    worst = 0.0
    for n, d in [(20, 5), (80, 14), (200, 30)]:
        profile = random_binary_profile(rng, n, d, target=0)
        responses = rng.normal(size=n)
        for _ in range(4):
            z = 0.05 + 0.9 * rng.random(d)
            fd = central_difference_gradient(partial(soft_value, profile.dissimilar, responses), z, h=1e-5)
            grad = soft_gradient(profile.dissimilar, responses, z)
            worst = max(worst, float(np.max(np.abs(grad - fd))))
    assert worst <= 1e-6

    # (b) D3 converges to the closed-form integrals (-1/3, -2/3)
    attr = igcs_attribution(SoftValue(d3_profile, D3_RESPONSES), QuadratureSpec(1000))
    d3_err = float(np.max(np.abs(attr.values - np.array([-1.0 / 3.0, -2.0 / 3.0]))))
    assert d3_err <= 1e-5

    # (c) efficiency gap shrinks at order >= 1.9 in the number of steps
    orders = []
    for seed in range(6):
        inst = np.random.default_rng(seed)
        S = inst.random((50, 8)) < 0.5
        S[0] = True
        sv = SoftValue(profile_from_indicators(S, 0), inst.normal(size=50))
        gap_r = igcs_attribution(sv, QuadratureSpec(5)).efficiency_gap
        gap_10r = igcs_attribution(sv, QuadratureSpec(50)).efficiency_gap
        assert abs(gap_r) > 1e-9
        ratio = abs(gap_10r) / abs(gap_r)
        assert ratio <= 1.0 / 50.0
        orders.append(-math.log10(ratio))
    assert min(orders) >= 1.9
    print(
        f"PASS criterion 3: gradient err {worst:.2e}, D3 err {d3_err:.2e}, "
        f"quadrature order min {min(orders):.2f}"
    )


# ---------------------------------------------------------------------------
# criterion 4: integrated gradients match Shapley on multilinear functions

def test_criterion_04_multilinear_shapley_match():
    rng = np.random.default_rng(104)
    worst = 0.0
    for d in (3, 5, 8):
        grad, corners = random_multilinear(rng, d)
        psi = diagonal_ig(grad, d, 10_000)
        phi = exact_shapley(make_table_vf(corners, d)).values
        worst = max(worst, float(np.max(np.abs(psi - phi))))
    assert worst <= 1e-6

    # product case g = prod_{j in u} h(z_j), h = 1 + z^2, |u| = 3
    u = (1, 3, 4)
    d = 6

    def h(v):
        return 1.0 + v * v

    psi = diagonal_ig(product_gradient(u), d, 10_000)
    expected = np.array([(h(1.0) ** 3 - h(0.0) ** 3) / 3 if j in u else 0.0 for j in range(d)])
    prod_err = float(np.max(np.abs(psi - expected)))
    assert prod_err <= 1e-6
    print(f"PASS criterion 4: multilinear worst err {worst:.2e}, product case err {prod_err:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: zero-sum ABC identity over all orderings

def test_criterion_05_zero_sum_abc_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 25))
        d = int(rng.integers(2, 6))
        profile = random_binary_profile(rng, n, d, target=int(rng.integers(0, n)))
        cv = CohortValue(profile, rng.normal(size=n))
        mean_sum = np.mean([
            sum(abc_scores(*conditional_curves(cv, list(perm))))
            for perm in itertools.permutations(range(d))
        ])
        worst = max(worst, abs(float(mean_sum)))
    assert worst <= 1e-9
    print(f"PASS criterion 5: zero-sum identity over all orderings, worst |mean| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: convergence-region diagnostics against the analytic bounds

def _profile_with_fraction(rng, n, d, low_frac, high_frac, target=0):
    S = np.ones((n, d), dtype=bool)
    low = int(round(low_frac * d))
    high = int(round(high_frac * d))
    pinned = False
    for i in range(n):
        if i == target:
            continue
        if not pinned:
            k = low  # make min |J_i|/d hit low_frac exactly
            pinned = True
        else:
            k = int(rng.integers(low, high + 1))
        S[i, rng.choice(d, size=k, replace=False)] = False
    return profile_from_indicators(S, target)


def test_criterion_06_convergence_diagnostics():
    rng = np.random.default_rng(106)
    lines = []
    for a in (0.25, 0.5):
        for d in (64, 128):
            profile = _profile_with_fraction(rng, n=61, d=d, low_frac=a, high_frac=0.75)
            report = heps_mass(profile, eps=0.5, samples=3000, seed=9)
            assert report.a == pytest.approx(a, abs=1e-12)
            assert report.mass_estimate <= report.theorem_bound + 3.0 * report.mass_se
            lines.append(f"a={a} d={d}: mass {report.mass_estimate:.4f} bound {report.theorem_bound:.3e}")
    for a in (0.25, 0.5):
        profile = _profile_with_fraction(rng, n=31, d=16, low_frac=a, high_frac=0.75)
        corner = corner_convergence(profile)
        expected_bound = 30 * 2.0 ** (-16 * a)
        assert corner.bound == pytest.approx(expected_bound, rel=1e-12)
        assert corner.fraction <= corner.bound
        lines.append(f"corners a={a} d=16: fraction {corner.fraction:.4f} bound {corner.bound:.4f}")
    assert len(lines) == 6
    print("PASS criterion 6: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 7: second-order weight formulas match the IG oracle

def test_criterion_07_second_order_weights():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 13))
        size_a = int(rng.integers(1, min(5, d) + 1))
        size_b = int(rng.integers(1, min(5, d) + 1))
        a = set(rng.choice(d, size=size_a, replace=False).tolist())
        b = set(rng.choice(d, size=size_b, replace=False).tolist())
        exponents = np.zeros(d)
        for j in a:
            exponents[j] += 1.0
        for j in b:
            exponents[j] += 1.0
        psi = diagonal_ig(power_product_gradient(exponents), d, 10_000)
        _, ig_weights = second_order_weights(a, b, d)
        worst = max(worst, float(np.max(np.abs(psi + ig_weights))))
    assert worst <= 1e-6
    print(f"PASS criterion 7: 100 random pair terms, worst err {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 8 and 9: the high-dimensional sparse binary benchmark

@pytest.fixture(scope="module")
def sparse_benchmark():
    rng = np.random.default_rng(2024)
    n, d, k = 2000, 1024, 20
    X = (rng.random((n, d)) < 0.08).astype(float)
    signal = rng.choice(d, size=k, replace=False)
    weights = 2.0 * rng.normal(size=k)
    y = X[:, signal] @ weights + 0.1 * rng.normal(size=n)
    ds = make_dataset(X, y)
    spec = make_similarity_spec(ds, default=Equality())
    return ds, spec


def test_criterion_08_igcs_beats_equal_budget_mc(sparse_benchmark):
    ds, spec = sparse_benchmark
    targets = list(range(20))
    quad = QuadratureSpec(50)

    ig_scores = []
    igcs_seconds = []
    perm_seconds = []
    profiles = {}
    for t in targets:
        profile = build_profile(ds, spec, t)
        profiles[t] = profile
        cv = CohortValue(profile, ds.responses)
        start = time.perf_counter()
        attr = igcs_attribution(SoftValue(profile, ds.responses), quad)
        igcs_seconds.append(time.perf_counter() - start)
        report = abc_report(cv, attr)
        ig_scores.append((report.abc_insertion, report.abc_deletion))
        start = time.perf_counter()
        mc_shapley(cv, 3, seed=rng_from(999, t))
        perm_seconds.append((time.perf_counter() - start) / 3.0)

    # equal wall-clock budget, then 8x and 64x more for the trend
    m_equal = max(1, int(round(np.mean(igcs_seconds) / np.mean(perm_seconds))))
    budgets = [m_equal, 8 * m_equal, 64 * m_equal]
    mc_scores = {m: [] for m in budgets}
    mc_seconds = {m: [] for m in budgets}
    for t in targets:
        cv = CohortValue(profiles[t], ds.responses)
        for m in budgets:
            start = time.perf_counter()
            attr = mc_shapley(cv, m, seed=rng_from(7, t, m))
            mc_seconds[m].append(time.perf_counter() - start)
            report = abc_report(cv, attr)
            mc_scores[m].append((report.abc_insertion, report.abc_deletion))

    ig_arr = np.asarray(ig_scores)
    eq_arr = np.asarray(mc_scores[m_equal])
    # directional claim: IGCS strictly higher mean ABC on both curves at the
    # equal wall-clock budget
    assert ig_arr[:, 0].mean() > eq_arr[:, 0].mean()
    assert ig_arr[:, 1].mean() > eq_arr[:, 1].mean()
    # and the paired per-target differences are significantly positive
    for col in (0, 1):
        diff = ig_arr[:, col] - eq_arr[:, col]
        assert diff.mean() > 2.0 * diff.std(ddof=1) / math.sqrt(len(diff))

    # MC trend over the budget ladder: monotone within noise. At this
    # dimension small budgets are noise-dominated and the curve can dip
    # before it climbs, so the enforceable form is no significant decrease
    # between consecutive rungs.
    for col in (0, 1):
        for lo, hi in zip(budgets, budgets[1:]):
            diff = np.asarray(mc_scores[hi])[:, col] - np.asarray(mc_scores[lo])[:, col]
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() >= -3.0 * se

    def fmt(arr):
        arr = np.asarray(arr)
        return (
            f"ins {arr[:, 0].mean():8.2f} (se {arr[:, 0].std(ddof=1) / math.sqrt(len(arr)):6.2f})  "
            f"del {arr[:, 1].mean():8.2f} (se {arr[:, 1].std(ddof=1) / math.sqrt(len(arr)):6.2f})"
        )

    print("PASS criterion 8: recorded magnitudes over 20 targets")
    print(f"  igcs R=50           {fmt(ig_arr)}  {np.mean(igcs_seconds):.4f} s/target")
    for m in budgets:
        print(f"  cs-mc m={m:<6d}      {fmt(mc_scores[m])}  {np.mean(mc_seconds[m]):.4f} s/target")


def test_criterion_09_igcs_runtime(sparse_benchmark):
    ds, spec = sparse_benchmark
    quad = QuadratureSpec(50)
    seconds = []
    for t in (0, 1, 2):
        start = time.perf_counter()
        profile = build_profile(ds, spec, t)
        attr = igcs_attribution(SoftValue(profile, ds.responses), quad)
        seconds.append(time.perf_counter() - start)
        assert len(attr.values) == 1024
    assert max(seconds) <= 1.0
    print(f"PASS criterion 9: IGCS R=50 on n=2000, d=1024 in {max(seconds):.3f} s/target (cap 1.0)")


# ---------------------------------------------------------------------------
# criterion 10: kernel-weight value function sanity

def test_criterion_10_gkw_sanity():
    rng = np.random.default_rng(110)
    worst_gap = 0.0
    for d in (4, 5, 6):
        ds = make_dataset(rng.normal(size=(40, d)), rng.normal(size=40))
        gv = GkwValue(ds, target_index=int(rng.integers(0, 40)))
        assert gv.evaluate(()) == float(ds.responses.mean())  # exact
        for _ in range(10):
            size = int(rng.integers(1, d + 1))
            u = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
            assert gv.weights(u)[gv.target_index] == 1.0
        attr = exact_shapley(gv)
        worst_gap = max(worst_gap, abs(attr.efficiency_gap))
    assert worst_gap <= 1e-9
    print(f"PASS criterion 10: GKW grand-mean anchor, unit target weight, worst gap {worst_gap:.2e}")
