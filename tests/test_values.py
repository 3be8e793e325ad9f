import itertools
import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from cohortexplain import (
    CategoricalFeatureUnsupported,
    CohortValue,
    ComputationError,
    ConfigError,
    GkwValue,
    SingularCovariance,
    UniquenessValue,
    cohort,
    corner_convergence,
    exact_shapley,
)
from cohortexplain import shapley
from cohortexplain.similarity import superset_tables

from conftest import make_dataset, profile_from_indicators, random_binary_profile, random_cohort_instance
from oracles import (
    cohort_mean_brute,
    gkw_evaluate_cholesky,
    gkw_weights_cholesky,
    shapley_by_permutations,
    subsets,
    superset_tables_by_bits,
)


def test_d3_cohort_values(d3_cohort_value):
    cv = d3_cohort_value
    assert cv.evaluate(()) == 2.0
    assert cv.evaluate((0,)) == 1.5
    assert cv.evaluate((1,)) == 1.0
    assert cv.evaluate((0, 1)) == 1.0
    # what is explained: refined cohort mean minus grand mean
    assert cv.evaluate((0, 1)) - cv.evaluate(()) == -1.0


def test_all_values_matches_pointwise():
    rng = np.random.default_rng(1)
    for trial in range(10):
        profile, responses, cv = random_cohort_instance(rng, n=int(rng.integers(2, 30)), d=6)
        table = cv.all_values()
        for mask in range(1 << 6):
            u = tuple(j for j in range(6) if (mask >> j) & 1)
            assert abs(table[mask] - cv.evaluate(u)) < 1e-12
            brute = cohort_mean_brute(profile.indicators, responses, u)
            assert abs(table[mask] - brute) < 1e-12


def test_cohort_shrinkage_monotone():
    rng = np.random.default_rng(2)
    profile, responses, cv = random_cohort_instance(rng, n=25, d=5)
    for u in subsets(5):
        base = set(cohort(profile, u).tolist())
        for j in range(5):
            if j not in u:
                refined = set(cohort(profile, u + (j,)).tolist())
                assert refined <= base


def test_permutation_increments_match_generic():
    rng = np.random.default_rng(3)
    profile, responses, cv = random_cohort_instance(rng, n=30, d=7)
    for _ in range(10):
        perm = rng.permutation(7)
        fast = cv.permutation_increments(perm)
        slow = super(CohortValue, cv).permutation_increments(perm)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_uniqueness_values(d3_profile):
    uv = UniquenessValue(d3_profile)
    assert abs(uv.evaluate(()) - (-math.log2(3))) < 1e-15
    assert uv.evaluate((0,)) == -1.0
    assert uv.evaluate((1,)) == 0.0
    assert uv.evaluate((0, 1)) == 0.0
    attr = exact_shapley(uv)
    np.testing.assert_allclose(attr.values, [0.2924812503605781, 1.2924812503605781], atol=1e-12)
    assert abs(attr.values.sum() - math.log2(3)) < 1e-12


def test_uniqueness_sum_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        profile, responses, _ = random_cohort_instance(rng, n=int(rng.integers(2, 40)), d=5)
        uv = UniquenessValue(profile)
        attr = exact_shapley(uv)
        full_size = len(cohort(profile, tuple(range(5))))
        assert abs(attr.values.sum() - math.log2(profile.n / full_size)) < 1e-10
        table = uv.all_values()
        assert np.all(table <= 1e-15)


def test_gkw_empty_set_and_target_weight():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(size=(15, 4)), rng.normal(size=15))
    gv = GkwValue(ds, target_index=3)
    assert gv.evaluate(()) == pytest.approx(float(ds.responses.mean()), abs=0.0)
    for u in [(0,), (1, 3), (0, 1, 2, 3)]:
        w = gv.weights(u)
        assert w[3] == 1.0
        assert np.all(w <= 1.0 + 1e-12) and np.all(w >= 0.0)


def test_gkw_univariate_example():
    # x = [0,1,2], f = [0,1,2], t = 0, sigma = 0.1: sample variance 1, ridged
    # to v = 1 + 1e-6, weights [1, e^(-50/v), e^(-200/v)],
    # nu ~ e^(-50/v) / (1 + e^(-50/v) + e^(-200/v))
    ds = make_dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    gv = GkwValue(ds, target_index=0, sigma=0.1)
    v = 1.0 + 1e-6
    w = gv.weights((0,))
    np.testing.assert_allclose(w, [1.0, math.exp(-50 / v), math.exp(-200 / v)], rtol=1e-12)
    expected = (math.exp(-50 / v) + 2 * math.exp(-200 / v)) / (1 + math.exp(-50 / v) + math.exp(-200 / v))
    assert gv.evaluate((0,)) == pytest.approx(expected, rel=1e-12)
    assert gv.evaluate((0,)) == pytest.approx(1.93e-22, rel=1e-2)


def test_gkw_sigma_at_the_float_limits():
    """A sigma whose 2 sigma^2 underflows to 0, or an infinite one, is
    refused; where d^2 / (2 sigma^2) overflows the weight is 0 with no
    warning, and where sigma^2 overflows every weight is 1."""
    ds = make_dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    for sigma in (1e-200, 1e-170, math.inf):
        with pytest.raises(ConfigError, match="sigma"):
            GkwValue(ds, target_index=0, sigma=sigma)
    np.testing.assert_array_equal(GkwValue(ds, target_index=0, sigma=1.5e-160).weights((0,)), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(GkwValue(ds, target_index=0, sigma=1e200).weights((0,)), [1.0, 1.0, 1.0])


def test_gkw_affine_invariance():
    """Standardizing first makes Sigma, and so its ridge, the same for an
    affinely rescaled column."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 4))
    f = rng.normal(size=30)
    base = GkwValue(make_dataset(X, f), target_index=2)
    X2 = X.copy()
    X2[:, 1] = 7.5 * X2[:, 1] - 3.0
    scaled = GkwValue(make_dataset(X2, f), target_index=2)
    for u in subsets(4):
        if u:
            assert base.evaluate(u) == pytest.approx(scaled.evaluate(u), abs=1e-8)


def test_gkw_requires_numeric():
    ds = make_dataset([[0.0], [1.0]], [0, 1], kinds=("categorical",))
    with pytest.raises(CategoricalFeatureUnsupported):
        GkwValue(ds, target_index=0)


def test_gkw_exact_shapley_efficiency():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(40, 5)), rng.normal(size=40))
    gv = GkwValue(ds, target_index=0)
    attr = exact_shapley(gv)
    assert abs(attr.efficiency_gap) <= 1e-9 * (1 + abs(attr.nu_full - attr.nu_empty))


def test_gkw_collinear_needs_ridge():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 3))
    X[:, 2] = X[:, 0] + X[:, 1]  # exactly collinear
    ds = make_dataset(X, rng.normal(size=20))
    gv = GkwValue(ds, target_index=0)  # the ridge keeps it solvable
    value = gv.evaluate((0, 1, 2))
    assert np.isfinite(value)


def test_exact_cs_matches_permutation_oracle_on_random_data():
    rng = np.random.default_rng(9)
    for _ in range(5):
        profile, responses, cv = random_cohort_instance(rng, n=int(rng.integers(3, 25)), d=4)
        expected = shapley_by_permutations(cv.evaluate, 4)
        np.testing.assert_allclose(exact_shapley(cv).values, expected, atol=1e-12)


@st.composite
def cohort_profiles(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    S = draw(hnp.arrays(bool, (n, d)))
    target = draw(st.integers(0, n - 1))
    S[target] = True
    responses = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    return profile_from_indicators(S, target), responses


@settings(max_examples=100, deadline=None, database=None)
@given(cohort_profiles())
def test_lattice_matches_refinement_path(case):
    """exact_shapley reads the 2^d lattice (all_values); the average of the
    increments over all d! orders reads the refinement kernel
    (CohortValue.permutation_increments) or, for uniqueness, one
    ``evaluate`` per prefix (the generic permutation_increments)."""
    profile, responses = case
    orders = np.array(list(itertools.permutations(range(profile.d))))
    for vf in (CohortValue(profile, responses), UniquenessValue(profile)):
        by_orders = np.mean([vf.permutation_increments(order) for order in orders], axis=0)
        np.testing.assert_allclose(exact_shapley(vf).values, by_orders, rtol=0, atol=1e-12)


def _lattice(d):
    """Every subset of range(d), indexed by bitmask."""
    return [tuple(j for j in range(d) if (mask >> j) & 1) for mask in range(1 << d)]


def gkw_value(d, distinct, n, scales, seed, sigma, target):
    """Seeded Gaussian rows: ``distinct`` base rows repeated up to n rows,
    shifted and scaled per column."""
    scales = np.asarray(scales)
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, d))
    rows = rng.permutation(np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)]))
    X = (base[rows] + rng.normal(size=d)) * scales
    ds = make_dataset(X, rng.normal(size=n))
    return GkwValue(ds, target_index=target, sigma=sigma)


@st.composite
def gkw_cases(draw):
    """Seeded Gaussian rows with duplicates and per-column scales 1e-3..1e3."""
    d = draw(st.integers(1, 7))
    distinct = draw(st.integers(2, 40))
    n = draw(st.integers(distinct, 40))
    scales = draw(st.lists(st.sampled_from([1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3]), min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**32 - 1))
    sigma = draw(st.sampled_from([0.1, 1.0]))
    target = draw(st.integers(0, n - 1))
    note(f"gkw_value{(d, distinct, n, scales, seed, sigma, target)}")
    return gkw_value(d, distinct, n, scales, seed, sigma, target)


def cholesky_forward_error(gv, u) -> float:
    """Relative rounding bound c * eps * kappa(Sigma_uu), c = 4, for two
    Cholesky factorizations of Sigma_uu taken in different orders, floored
    at 1e-12: the floor holds wherever kappa <= 1e3."""
    if not u:
        return 1e-12
    kappa = np.linalg.cond(gv._cov[np.ix_(u, u)])
    return max(1e-12, 4 * np.finfo(float).eps * kappa)


@settings(max_examples=100, deadline=None, database=None)
@given(gkw_cases())
# ridged, rank-deficient Sigma (4 rows, d=7): kappa(Sigma_{0,4,5}) = 1.1e6, and
# the walk and a fresh factor round 2.4e-10 apart in relative terms there
@example(gkw_value(7, 4, 4, [0.001] * 7, 4, 1.0, 0))
def test_gkw_walk_matches_cholesky_oracle(gv):
    """The depth-first lattice, weights(u) and evaluate(u) against a fresh
    scipy factor and solve per subset, to the forward-error bound tol(u) of
    Sigma_uu.  Weights lie in [0, 1] with the target's exactly 1.0, so they
    are compared to tol(u) of that scale; nu to tol(u) relative (of max |y|
    where nu nears 0)."""
    d, t = gv.d, gv.target_index
    table = gv.all_values()
    scale = np.abs(gv.responses).max()
    for mask, u in enumerate(_lattice(d)):
        tol = cholesky_forward_error(gv, u)
        np.testing.assert_allclose(table[mask], gkw_evaluate_cholesky(gv, u), rtol=tol, atol=tol * scale)
        w = gv.weights(u)
        assert w[t] == 1.0
        np.testing.assert_allclose(w, gkw_weights_cholesky(gv, u), rtol=0, atol=tol)
        assert gv.evaluate(u) == table[mask]  # one walk behind both


def test_gkw_constant_table_is_singular():
    """With every column constant, Sigma is 0, and so is its ridge
    1e-6 * trace(Sigma) / d: every non-empty subset is singular."""
    rng = np.random.default_rng(10)
    X = np.full((12, 3), 3.0)  # exactly representable mean, so the standardized columns are exactly 0
    gv = GkwValue(make_dataset(X, rng.normal(size=12)), target_index=0)
    with pytest.raises(SingularCovariance):
        gkw_weights_cholesky(gv, (1,))
    assert gv.evaluate(()) == gv.responses.mean()
    for call in (lambda: gv.weights((1,)), lambda: gv.evaluate((0, 1, 2)), lambda: exact_shapley(gv)):
        with pytest.raises(SingularCovariance):
            call()


@pytest.mark.parametrize("make", [
    lambda ds, profile: CohortValue(profile, ds.responses),
    lambda ds, profile: UniquenessValue(profile),
    lambda ds, profile: GkwValue(ds, 0),
], ids=["cohort", "uniqueness", "gkw"])
@pytest.mark.parametrize("feature", [-1, 3])
def test_evaluate_rejects_features_outside_range(make, feature):
    """A negative index must not wrap around to feature d-1."""
    rng = np.random.default_rng(4)
    ds = make_dataset(rng.normal(size=(12, 3)), rng.normal(size=12))
    vf = make(ds, random_binary_profile(rng, n=12, d=3))
    with pytest.raises(ValueError, match=r"not contained in \[0, 3\)"):
        vf.evaluate([feature])
    with pytest.raises(ValueError):
        vf.evaluate([0, feature])


def test_lattice_callers_match_per_bit_tables():
    """At d=16 and n=300 the superset tables start sparse; what each caller
    derives from them is the bytes it derives from the per-bit passes."""
    rng = np.random.default_rng(16)
    n = 300
    profile, y, cv = random_cohort_instance(rng, n=n, d=16, target=7, density=0.9)
    counts, sums = superset_tables_by_bits(profile, np.ones(n), y)
    assert cv.all_values().tobytes() == (sums / counts).tobytes()
    assert UniquenessValue(profile).all_values().tobytes() == (-np.log2(counts)).tobytes()
    nontarget = np.ones(n)
    nontarget[7] = 0.0
    (table,) = superset_tables_by_bits(profile, nontarget)
    assert corner_convergence(profile).corners_inside == np.count_nonzero(table)


def test_exact_cohort_shapley_peak_within_budget():
    """One exact_shapley at d=14 holds fewer tables than its memory check
    budgets for, and the measured floors stay: a cohort mean peaks in its
    two superset tables plus the passes' fixed iterator buffer (about
    192 KiB, 1.5 tables at d=14 and 0.02 at d=20), 3.74 tables; uniqueness
    in the fold, the centred table that B is written over and A with the
    weight rows, 2.71 tables (3.66 with the popcount gather)."""
    d = 14
    rng = np.random.default_rng(14)
    profile, _, cv = random_cohort_instance(rng, n=200, d=d, density=0.9)
    for nu, tables in ((cv, 4), (UniquenessValue(profile), 3)):
        tracemalloc.start()
        try:
            exact_shapley(nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables * 8 << d < shapley.EXACT_TABLES * 8 << d


def test_lattice_tables_refuse_more_than_memory(monkeypatch):
    """Direct all_values and superset_tables calls check the 2^d tables
    against physical memory before allocating the first of them."""
    d = 20  # 8 MiB per table
    rng = np.random.default_rng(13)
    ds = make_dataset(rng.normal(size=(30, d)), rng.normal(size=30))
    profile = random_binary_profile(rng, n=30, d=d, target=2)
    calls = [
        lambda: CohortValue(profile, ds.responses).all_values(),
        lambda: UniquenessValue(profile).all_values(),
        lambda: superset_tables(profile, np.ones(30)),
        lambda: GkwValue(ds, 2).all_values(),
        lambda: shapley.ValueFunction.all_values(UniquenessValue(profile)),
    ]
    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: (8 << d) - 1)
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ComputationError, match=r"d=20 needs about .* physical memory is"):
                call()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: 3 * 8 << 10)
    small = random_binary_profile(rng, n=30, d=10, target=2)
    assert CohortValue(small, ds.responses).all_values().shape == (1 << 10,)
