import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortexplain import (
    ComputationError,
    DimensionTooLarge,
    GkwValue,
    UniquenessValue,
    ValueFunction,
    exact_shapley,
    mc_shapley,
)
from cohortexplain import shapley
from cohortexplain.sampling import fisher_yates, rng_from

from conftest import make_dataset, random_cohort_instance
from oracles import (
    exact_shapley_by_columns,
    exact_shapley_fractions,
    exact_shapley_gather,
    fisher_yates_scalar,
    make_table_vf,
    shapley_by_definition,
    shapley_by_permutations,
    table_evaluate,
)


def d2_example_vf():
    # nu(empty)=0, nu{1}=1, nu{2}=2, nu{1,2}=4  (bitmask order: 0,1,2,3)
    return make_table_vf([0.0, 1.0, 2.0, 4.0], 2)


def test_d2_exact():
    attr = exact_shapley(d2_example_vf())
    np.testing.assert_allclose(attr.values, [1.5, 2.5])
    assert attr.nu_empty == 0.0 and attr.nu_full == 4.0
    assert abs(attr.efficiency_gap) < 1e-12


def test_exact_refuses_tables_larger_than_memory(monkeypatch):
    """The memory bound is checked before the 2^d lattice is asked for."""
    d = 10
    need = shapley.EXACT_TABLES * 8 << d
    asked = []

    class Lattice(ValueFunction):
        def evaluate(self, u):
            return float(len(u))

        def all_values(self):
            asked.append(self.d)
            return ValueFunction.all_values(self)

    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ComputationError, match="d=10 needs about"):
        exact_shapley(Lattice(d))
    assert asked == []
    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: need)
    np.testing.assert_allclose(exact_shapley(Lattice(d)).values, np.ones(d))
    assert asked == [d]


def test_memory_refusal_prints_each_size_in_its_own_unit(monkeypatch):
    """Six 2^d tables against too little memory: each size in its own binary
    unit, to three significant digits, so the refusal shows by how much."""
    for have, d, want in [(3 << 20, 18, ("12.0 MiB", "3.00 MiB")), (3 << 20, 30, ("48.0 GiB", "3.00 MiB")),
                          (1000, 11, ("96.0 KiB", "1000 B"))]:
        monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: have)
        with pytest.raises(ComputationError) as caught:
            shapley.check_lattice("cs-exact", d, 6)
        sizes = re.fullmatch(rf"cs-exact at d={d} needs about (\S+ [KMG]?i?B) for its 2\^d tables; "
                             r"physical memory is (\S+ [KMG]?i?B)", str(caught.value))
        assert sizes is not None and sizes.groups() == want


def test_constant_vf_gives_zero():
    attr = exact_shapley(make_table_vf(np.full(8, 3.7), 3))
    np.testing.assert_array_equal(attr.values, [0.0, 0.0, 0.0])


def test_exact_matches_definition_oracle():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 4, 5):
        vals = rng.normal(size=1 << d)
        attr = exact_shapley(make_table_vf(vals, d))
        expected = shapley_by_definition(table_evaluate(vals), d)
        np.testing.assert_allclose(attr.values, expected, atol=1e-12)


def test_exact_matches_permutation_oracle():
    rng = np.random.default_rng(43)
    for d in (2, 3, 4):
        vals = rng.normal(size=1 << d)
        attr = exact_shapley(make_table_vf(vals, d))
        expected = shapley_by_permutations(table_evaluate(vals), d)
        np.testing.assert_allclose(attr.values, expected, atol=1e-12)


@st.composite
def games(draw):
    """(table, d) for d <= 8: offset lattices (values near 1e6 with small
    variations, like prices), additive games, near-null games (a constant
    with a few subsets moved by 1e-12 of it) and unstructured tables."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["offset", "additive", "near-null", "unstructured"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << d
    if kind == "offset":
        vals = 1e6 + rng.normal(size=size) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "additive":
        members = (np.arange(size)[:, np.newaxis] >> np.arange(d)) & 1
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        vals = draw(st.sampled_from([0.0, 1.0, 1e6])) + members @ (rng.normal(size=d) * scale)
    elif kind == "near-null":
        base = draw(st.sampled_from([0.0, 1.0, 1e6]))
        vals = np.full(size, base)
        moved = rng.integers(0, size, size=draw(st.integers(0, size)))
        vals[moved] += rng.normal(size=len(moved)) * max(base, 1.0) * 1e-12
    else:
        vals = rng.normal(size=size) * draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e300]))
    return vals, d


def _error(phi, exact) -> float:
    return max(float(abs(Fraction(float(p)) - e)) for p, e in zip(phi, exact))


@settings(max_examples=150, deadline=None, database=None)
@given(games())
def test_exact_fold_error_within_column_order_error(game):
    """The fold is as accurate as the per-feature column passes: against
    the rational oracle its error is at most 4 times theirs, plus 32 ulps
    of max |phi|.  An uncentred fold misses this by orders of magnitude on
    the offset lattices, where A's and B's sums sit near 1e6."""
    vals, d = game
    exact = exact_shapley_fractions(vals, d)
    floor = 32 * np.spacing(max(abs(float(e)) for e in exact))
    fold = _error(exact_shapley(make_table_vf(vals, d)).values, exact)
    columns = _error(exact_shapley_by_columns(vals, d), exact)
    assert fold <= 4 * columns + floor


def assert_fold_matches_gather(nu, vals):
    attr = exact_shapley(nu)
    phi, nu_empty, nu_full = exact_shapley_gather(vals, nu.d)
    assert attr.values.tobytes() == phi.tobytes()
    assert (attr.nu_empty, attr.nu_full) == (nu_empty, nu_full)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 11, 14])
def test_exact_fold_matches_gather_oracle(d):
    """The weight rows written in place give the bytes of the fold whose
    weights are gathered through a 2^d popcount table, below, at and above
    the six high bits that index the rows, on tables centred far from 0 and
    on tables of mixed signs and scales."""
    rng = np.random.default_rng(d)
    size = 1 << d
    for vals in (1e6 + rng.normal(size=size), -3e9 + rng.normal(size=size) * 1e3,
                 rng.normal(size=size) * rng.choice([-1e3, 1e-3, 1.0], size=size)):
        assert_fold_matches_gather(make_table_vf(vals, d), vals)


@pytest.mark.parametrize("d", [3, 7, 11])
def test_exact_shapley_of_value_functions_matches_gather_oracle(d):
    """exact_shapley of the cohort mean, uniqueness and GKW values gives the
    bytes of the gather fold over the same value table."""
    rng = np.random.default_rng(100 + d)
    profile, _, cv = random_cohort_instance(rng, n=60, d=d, density=0.8)
    ds = make_dataset(rng.normal(size=(40, d)) * 5 + 100, rng.normal(size=40) + 1e4)
    for nu in (cv, UniquenessValue(profile), GkwValue(ds, 3, sigma=0.7)):
        assert_fold_matches_gather(nu, nu.all_values())


def test_dimension_cap():
    """d above the lattice cap of 30 is refused before any evaluation, on
    any machine (2^30 tables could fit on a large one)."""
    class Wide(ValueFunction):
        def evaluate(self, u):
            raise AssertionError("evaluated")

    with pytest.raises(DimensionTooLarge):
        exact_shapley(Wide(31))


def test_d3_cohort_exact(d3_cohort_value):
    attr = exact_shapley(d3_cohort_value)
    np.testing.assert_allclose(attr.values, [-0.25, -0.75], atol=1e-15)


def test_efficiency_invariant_random_vfs():
    rng = np.random.default_rng(44)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        vals = rng.normal(size=1 << d) * 10
        attr = exact_shapley(make_table_vf(vals, d))
        span = vals[-1] - vals[0]
        assert abs(attr.efficiency_gap) <= 1e-9 * (1.0 + abs(span))


def test_dummy_axiom_exact_zero():
    rng = np.random.default_rng(45)
    d = 5
    base = rng.normal(size=1 << (d - 1))
    vals = np.empty(1 << d)
    # coordinate 2 never changes the value: nu(u + {2}) = nu(u)
    for mask in range(1 << d):
        reduced = (mask & 0b00011) | ((mask >> 1) & 0b01100)
        vals[mask] = base[reduced]
    attr = exact_shapley(make_table_vf(vals, d))
    assert attr.values[2] == 0.0


def test_additivity():
    rng = np.random.default_rng(46)
    d = 4
    a = rng.normal(size=1 << d)
    b = rng.normal(size=1 << d)
    phi_a = exact_shapley(make_table_vf(a, d)).values
    phi_b = exact_shapley(make_table_vf(b, d)).values
    phi_sum = exact_shapley(make_table_vf(a + b, d)).values
    np.testing.assert_allclose(phi_sum, phi_a + phi_b, atol=1e-12)


def test_symmetry():
    rng = np.random.default_rng(47)
    d = 4
    i, j = 1, 3
    vals = rng.normal(size=1 << d)
    # force nu invariant under swapping coordinates i and j
    for mask in range(1 << d):
        bit_i, bit_j = (mask >> i) & 1, (mask >> j) & 1
        swapped = (mask & ~(1 << i) & ~(1 << j)) | (bit_j << i) | (bit_i << j)
        if swapped > mask:
            vals[swapped] = vals[mask]
    attr = exact_shapley(make_table_vf(vals, d))
    assert abs(attr.values[i] - attr.values[j]) < 1e-12


def test_mc_single_permutation_increments(d3_cohort_value):
    vf = d2_example_vf()
    inc = vf.permutation_increments(np.array([0, 1]))
    np.testing.assert_allclose(inc, [1.0, 3.0])
    inc2 = vf.permutation_increments(np.array([1, 0]))
    np.testing.assert_allclose(inc2, [2.0, 2.0])


def test_exhaustive_equals_exact():
    rng = np.random.default_rng(48)
    for d in (2, 3, 4, 5, 6):
        vals = rng.normal(size=1 << d)
        vf = make_table_vf(vals, d)
        orders = itertools.permutations(range(d))
        by_orders = np.mean([vf.permutation_increments(np.array(order)) for order in orders], axis=0)
        np.testing.assert_allclose(by_orders, exact_shapley(vf).values, atol=1e-12)


def test_mc_deterministic_and_telescoping():
    rng = np.random.default_rng(49)
    vals = rng.normal(size=1 << 5)
    vf = make_table_vf(vals, 5)
    a = mc_shapley(vf, 37, seed=123)
    b = mc_shapley(vf, 37, seed=123)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.stderr, b.stderr)
    # telescoping: efficiency holds for the estimate itself
    assert abs(a.values.sum() - (vals[-1] - vals[0])) < 1e-12
    c = mc_shapley(vf, 37, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_mc_converges_to_exact_over_seeds():
    rng = np.random.default_rng(50)
    d = 4
    vals = rng.normal(size=1 << d)
    vf = make_table_vf(vals, d)
    exact = exact_shapley(vf).values
    estimates = np.array([mc_shapley(vf, 60, seed=s).values for s in range(40)])
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
    assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)


def test_mc_stderr_single_sample_is_zero():
    vf = d2_example_vf()
    attr = mc_shapley(vf, 1, seed=0)
    np.testing.assert_array_equal(attr.stderr, [0.0, 0.0])


def test_fisher_yates_uniform_and_reproducible():
    rng = rng_from(7)
    perms = {tuple(fisher_yates(rng, 3).tolist()) for _ in range(300)}
    assert len(perms) == 6  # all 3! orders appear
    a = fisher_yates(rng_from(11), 8)
    b = fisher_yates(rng_from(11), 8)
    np.testing.assert_array_equal(a, b)
    assert sorted(a.tolist()) == list(range(8))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(0, 300), draws=st.integers(1, 3))
def test_fisher_yates_matches_scalar_oracle(seed, d, draws):
    fast, slow = rng_from(seed), rng_from(seed)
    for _ in range(draws):
        a, b = fisher_yates(fast, d), fisher_yates_scalar(slow, d)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    assert fast.bit_generator.state == slow.bit_generator.state
