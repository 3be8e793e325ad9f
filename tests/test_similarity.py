import dataclasses
import importlib.util
import math
import pathlib
import sys
import threading
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortexplain import (
    AbsoluteRange,
    CohortValue,
    ConfigError,
    Equality,
    RelativeRange,
    SimilaritySpec,
    TargetOutOfRange,
    ValueFunction,
    build_profile,
    cohort,
    conditional_curves,
    make_similarity_spec,
)
from cohortexplain import similarity
from cohortexplain.data import similarity_widths
from cohortexplain.similarity import refinement_path, superset_tables

from conftest import make_dataset, profile_from_indicators, random_binary_profile
from oracles import (
    cohort_mean_brute,
    dissimilar_by_broadcast,
    indicators_by_rule,
    refinement_path_dense,
    soft_similarity,
    superset_tables_by_bits,
)


def test_d3_profile(d3_dataset, d3_spec):
    profile = build_profile(d3_dataset, d3_spec, 0)
    np.testing.assert_array_equal(
        profile.indicators, [[True, True], [True, False], [False, False]]
    )
    np.testing.assert_array_equal(profile.dissim_counts, [0, 1, 2])


def test_profile_compares_by_identity(d3_profile):
    # field-wise equality would compare the indicator arrays and raise ValueError
    copy = dataclasses.replace(d3_profile)
    assert (d3_profile == copy) is False and d3_profile != copy
    assert d3_profile == d3_profile
    assert len({d3_profile, copy}) == 2


def test_profile_stores_one_read_only_dissimilarity_matrix(d3_dataset, d3_spec):
    S = np.array([[1, 1], [1, 0], [0, 0]], dtype=bool)
    profile = profile_from_indicators(S, 0)
    D = profile.dissimilar
    np.testing.assert_array_equal(D, ~S)
    assert not D.flags.writeable and not profile.dissim_counts.flags.writeable
    assert D.flags.c_contiguous
    np.testing.assert_array_equal(profile.indicators, S)  # derived, not stored
    built = build_profile(d3_dataset, d3_spec, 0)
    assert not built.dissimilar.flags.writeable and built.dissimilar.flags.c_contiguous
    np.testing.assert_array_equal(built.dissimilar, D)


def test_superset_tables_match_brute_force():
    rng = np.random.default_rng(12)
    profile = random_binary_profile(rng, n=15, d=5, target=3)
    w = rng.normal(size=15)
    counts, sums = superset_tables(profile, np.ones(15), w)
    S = profile.indicators
    for mask in range(1 << 5):
        u = [j for j in range(5) if (mask >> j) & 1]
        members = [i for i in range(15) if S[i, u].all()]
        assert counts[mask] == len(members)
        assert abs(sums[mask] - w[members].sum()) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(1, 16),
    st.integers(1, 300),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e300]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 17),
)
def test_superset_tables_match_per_bit_passes_bytes(d, n, density, scale, seed, block_bits):
    """The strided adds of the low bits add the same pairs in the same pass
    order as one (-1, 2, 2^b) view per bit, and blocks of 2^block_bits
    entries (smaller than the table, as at d > 17, or not) give each entry
    its additions in the same order, so every table is the same bytes and
    the int32 counts are the per-bit passes' float counts exactly."""
    rng = np.random.default_rng(seed)
    profile = random_binary_profile(rng, n=n, d=d, target=int(rng.integers(n)), density=density)
    w = rng.normal(size=n) * scale
    picked = rng.random(n) < 0.7
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "_BLOCK", 1 << block_bits)
        counts, selected, got = superset_tables(profile, np.ones(n, dtype=bool), picked, w)
    want = superset_tables_by_bits(profile, np.ones(n), picked.astype(float), w)
    assert counts.dtype == selected.dtype == np.int32 and got.dtype == float
    assert np.array_equal(counts, want[0]) and np.array_equal(selected, want[1])
    assert got.tobytes() == want[2].tobytes()


def _staged_profile(case, rng):
    """(profile, weights) for one fixed case of the sparse-stage test."""
    d, n = {"all-target": (12, 50), "skipped": (10, 40), "low-d": (5, 1), "one-row": (14, 1),
            "signed-zeros": (12, 60)}[case]
    S = np.ones((n, d), dtype=bool) if case == "all-target" else rng.random((n, d)) < 0.85
    S[0] = True
    w = rng.normal(size=n)
    if case == "signed-zeros":
        w[::3], w[1::3] = -0.0, 0.0
    return profile_from_indicators(S, 0), w


@pytest.mark.parametrize(
    "case, staged",
    [("all-target", True), ("skipped", False), ("low-d", False), ("one-row", True), ("signed-zeros", True)],
)
def test_superset_tables_sparse_stage_cases(case, staged, monkeypatch):
    """The sparse stage runs when n <= 2^(d - 5) and d > 5, and its tables
    are the per-bit passes' bytes: every row the target's (the occupied
    subsets double each bit), more rows than 2^(d - 5), d <= 5, a single
    row, and weights of -0.0 and 0.0, whose bins are +0.0 in both."""
    profile, w = _staged_profile(case, np.random.default_rng(26))
    searches = []
    search = np.searchsorted

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    got = superset_tables(profile, np.ones(profile.n), w, -w)
    monkeypatch.undo()
    want = superset_tables_by_bits(profile, np.ones(profile.n), w, -w)
    assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
    assert bool(searches) == staged


def test_target_row_all_similar_for_any_rule():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(20, 4)), rng.normal(size=20))
    spec = SimilaritySpec((Equality(), RelativeRange(0.3), AbsoluteRange(0.5), RelativeRange(1.0)))
    for t in range(ds.n):
        profile = build_profile(ds, spec, t)
        assert profile.indicators[t].all()
        assert profile.dissim_counts[t] == 0


def test_relative_range_rule():
    ds = make_dataset([[0.0], [0.05], [1.0]], [0, 0, 0])
    profile = build_profile(ds, SimilaritySpec((RelativeRange(0.1),)), 0)
    np.testing.assert_array_equal(profile.indicators[:, 0], [True, True, False])


def test_constant_column_all_similar():
    # threshold 0.1 * 0 = 0 and |x - x| = 0 <= 0, so the <= rule keeps everyone
    ds = make_dataset([[7.0], [7.0], [7.0]], [0, 0, 0])
    profile = build_profile(ds, SimilaritySpec((RelativeRange(0.1),)), 1)
    assert profile.indicators.all()


def test_absolute_range_rule():
    ds = make_dataset([[0.0], [0.4], [0.6]], [0, 0, 0])
    profile = build_profile(ds, SimilaritySpec((AbsoluteRange(0.5),)), 0)
    np.testing.assert_array_equal(profile.indicators[:, 0], [True, True, False])


# signed zeros, the smallest subnormal gaps, and magnitudes whose differences overflow
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 1.0, math.nextafter(1.0, 2.0),
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
RULES = st.one_of(
    st.just(Equality()),
    st.floats(0.0, 1.0, exclude_min=True).map(RelativeRange),
    st.one_of(st.sampled_from([0.0, 5e-324, 1.0, math.inf]), st.floats(0.0, 1e308)).map(AbsoluteRange),
)


@st.composite
def mixed_tables(draw):
    """A mixed numeric/categorical dataset, with constant columns and
    repeated rows, and a valid rule per column.  Some tables have at most
    two values per column, and some numeric columns get an absolute width
    equal to the gap between two of their values, the rule's boundary."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    two_level = draw(st.booleans())
    cells = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-4.0, 4.0),
                      st.floats(allow_nan=False, allow_infinity=False))
    columns, kinds, rules = [], [], []
    for _ in range(d):
        style = draw(st.sampled_from(["numeric", "constant", "categorical"]))
        if style == "categorical":
            columns.append(draw(st.lists(st.integers(0, 1 if two_level else 3), min_size=n, max_size=n)))
            kinds.append("categorical")
            rules.append(Equality())
            continue
        if two_level:
            pair = draw(st.lists(cells, min_size=2, max_size=2))
            column = [pair[k] for k in draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
        else:
            column = draw(st.lists(cells, min_size=n, max_size=n))
        columns.append(column if style == "numeric" else [column[0]] * n)
        kinds.append("numeric")
        if draw(st.booleans()):
            i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            with np.errstate(over="ignore"):
                rules.append(AbsoluteRange(abs(columns[-1][i] - columns[-1][k])))
        else:
            rules.append(draw(RULES))
    X = np.array(columns, dtype=float).T
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        X[dst] = X[src]
    return make_dataset(X, np.zeros(n), kinds=kinds), SimilaritySpec(tuple(rules))


@settings(max_examples=300, deadline=None, database=None)
@given(mixed_tables())
def test_build_profile_matches_rule_oracle(table):
    """Per target, the rule applied cell by cell, and D and the counts |J_i|
    byte for byte and dtype for dtype against one float broadcast over the
    table, whether or not the table is coded."""
    ds, spec = table
    with np.errstate(over="ignore"):  # overflowing differences are inf
        widths = similarity_widths(ds, spec)
    two_level = all(len(np.unique(column)) <= 2 for column in ds.features.T)  # -0.0 == 0.0
    assert (ds.at_high is not None) == two_level
    for t in range(ds.n):
        with np.errstate(over="ignore"):
            expected = indicators_by_rule(ds, spec, t)
            profile = build_profile(ds, spec, t)
            D, counts = dissimilar_by_broadcast(ds.features, widths, t)
        np.testing.assert_array_equal(profile.indicators, expected)
        assert profile.dissimilar.dtype == D.dtype and profile.dissimilar.tobytes() == D.tobytes()
        assert profile.dissim_counts.dtype == counts.dtype
        assert profile.dissim_counts.tobytes() == counts.tobytes()


def _bench_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_which_tables_are_coded():
    """The benchmark's 0/1 table is coded; a table with one column of more
    than two values is not, whether its first rows show the third value or
    not, and its profiles come from the float compare."""
    X, y = _bench_workloads().sparse_binary(1, 250, 1024, 20)
    ds = make_dataset(X.astype(float), y)
    assert ds.at_high.dtype == bool and ds.at_high.shape == (250, 1024)
    assert not ds.at_high.flags.writeable
    rng = np.random.default_rng(2)
    rows = np.arange(60)
    late = np.where(rows < 20, rows % 2, rows % 3)  # a third value after the first rows only
    for third in (rows % 3, late):
        ds = make_dataset(np.column_stack([rng.integers(0, 2, (60, 4)), third]), np.zeros(60))
        spec = make_similarity_spec(ds)
        assert ds.at_high is None
        for t in range(ds.n):
            np.testing.assert_array_equal(build_profile(ds, spec, t).dissimilar,
                                          dissimilar_by_broadcast(ds.features, similarity_widths(ds, spec), t)[0])


def test_overflowing_differences_raise_no_warning():
    """A column holding -1e308 and 1e308 has an inf range and inf
    differences: no RuntimeWarning from the dataset, the spec or either
    profile path, under a relative, an equality and an absolute rule, and
    D is the broadcast's and the rules' own.  A NaN width, as 0 * inf
    would give, would make every row similar on that column."""
    big = [[-1e308, 0.0], [1e308, 1.0], [1e308, 0.0], [-1e308, 1.0]]
    tables = [(big, True), ([*big, [0.0, 0.0]], False)]  # a third value uncodes the table
    for features, coded in tables:
        for overrides in (None, {"x1": Equality()}, {"x1": AbsoluteRange(1.0)}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ds = make_dataset(features, np.zeros(len(features)))
                spec = make_similarity_spec(ds, overrides=overrides)
                profiles = [build_profile(ds, spec, t) for t in range(ds.n)]
            assert (ds.at_high is not None) == coded
            with np.errstate(over="ignore"):
                widths = similarity_widths(ds, spec)
                for t, profile in enumerate(profiles):
                    D, _ = dissimilar_by_broadcast(ds.features, widths, t)
                    assert profile.dissimilar.tobytes() == D.tobytes()
                    np.testing.assert_array_equal(profile.indicators, indicators_by_rule(ds, spec, t))


@pytest.mark.parametrize("rule", [RelativeRange(1.0), AbsoluteRange(0.0)], ids=["relative", "absolute"])
def test_categorical_column_needs_equality(rule):
    ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 0], kinds=("numeric", "categorical"))
    with pytest.raises(ConfigError, match="'x2' must use the equality rule"):
        make_similarity_spec(ds, overrides={"x2": rule})
    with pytest.raises(ConfigError, match="'x2' must use the equality rule"):
        build_profile(ds, SimilaritySpec((Equality(), rule)), 0)


def test_hand_built_specs_are_validated():
    ds = make_dataset([[0.0, 1.0], [4.0, 0.0]], [0, 0], kinds=("numeric", "categorical"))
    spec = make_similarity_spec(ds)
    with pytest.raises(ConfigError, match="spec has 1 rules for 2 columns"):
        build_profile(ds, SimilaritySpec((Equality(),)), 0)
    with pytest.raises(ConfigError, match="'x2' must use the equality rule"):
        build_profile(ds, SimilaritySpec((RelativeRange(0.1), RelativeRange(0.1))), 0)
    same = SimilaritySpec(spec.rules)
    assert same == spec and hash(same) == hash(spec)  # the rule arrays take no part
    np.testing.assert_array_equal(similarity_widths(ds, same), [0.4, 0.0])


def test_threads_sharing_a_dataset_get_their_own_spec_widths():
    """Workers sharing one dataset but not one spec each get their own
    spec's widths: a guard against similarity state shared through the
    dataset."""
    X = np.arange(20.0).reshape(10, 2)
    ds = make_dataset(X, np.zeros(10))
    specs = [SimilaritySpec((RelativeRange(k / 10), AbsoluteRange(k))) for k in range(1, 9)]
    expected = [similarity_widths(make_dataset(X, np.zeros(10)), spec) for spec in specs]
    wrong = []

    def hammer(k):
        for _ in range(2000):
            if not np.array_equal(similarity_widths(ds, specs[k]), expected[k]):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(k,)) for k in range(len(specs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


@pytest.mark.parametrize("d", [255, 256, 65536])
def test_counts_hold_a_full_row(d):
    """|J_i| = d for a row dissimilar on every feature, whatever the width
    of the sum that counts it, on a coded table and (up to d=256) on an
    uncoded one, where a fourth row puts a third value in column 0."""
    X = np.zeros((3, d))
    X[2] = 1.0
    tables = [(X, True, [0, 0, d])]
    if d <= 256:
        tables.append((np.vstack([X, np.eye(1, d) * 2.0]), False, [0, 0, d, 1]))
    for features, coded, expected in tables:
        ds = make_dataset(features, np.zeros(len(features)))
        spec = make_similarity_spec(ds)
        assert (ds.at_high is not None) == coded
        profile = build_profile(ds, spec, 0)
        assert profile.dissim_counts.dtype == np.intp
        np.testing.assert_array_equal(profile.dissim_counts, expected)


def test_target_out_of_range(d3_dataset, d3_spec):
    with pytest.raises(TargetOutOfRange):
        build_profile(d3_dataset, d3_spec, 3)
    with pytest.raises(TargetOutOfRange):
        build_profile(d3_dataset, d3_spec, -1)


def check_refinement_against_oracles(profile, responses, ordering):
    """Every consumer of the refinement kernel against a from-scratch oracle:
    both ABC curves against the brute-force cohort mean on every prefix and
    suffix, and the fast permutation increments against the generic
    one-evaluation-per-prefix loop."""
    ordering = np.asarray(ordering)
    S = profile.indicators
    cv = CohortValue(profile, responses)
    insertion, deletion = conditional_curves(cv, ordering)
    d = profile.d
    np.testing.assert_allclose(
        insertion, [cohort_mean_brute(S, responses, ordering[:k]) for k in range(d + 1)],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        deletion, [cohort_mean_brute(S, responses, ordering[k:]) for k in range(d + 1)],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        cv.permutation_increments(ordering),
        ValueFunction.permutation_increments(cv, ordering),
        rtol=0, atol=1e-12,
    )


def test_refinement_matches_oracles_d67():
    rng = np.random.default_rng(11)
    profile = random_binary_profile(rng, n=40, d=67, target=5, density=0.6)
    np.testing.assert_array_equal(profile.dissim_counts, (~profile.indicators).sum(axis=1))
    check_refinement_against_oracles(profile, rng.normal(size=40), rng.permutation(67))


def test_refinement_matches_oracles_wide():
    rng = np.random.default_rng(3)
    profile = random_binary_profile(rng, n=8, d=4096, target=0, density=0.9)
    np.testing.assert_array_equal(profile.dissim_counts, (~profile.indicators).sum(axis=1))
    check_refinement_against_oracles(profile, rng.normal(size=8), rng.permutation(4096))


@st.composite
def refinement_cases(draw):
    """A profile with all-dissimilar rows (but the target), all-similar rows
    (empty J_i) and a C-order, column-major or strided indicator matrix,
    responses, and an ordering of all d features or of a prefix of them."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 70))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "C":
        S = draw(hnp.arrays(bool, (n, d)))
    elif layout == "F":
        S = draw(hnp.arrays(bool, (d, n))).T
    else:
        S = draw(hnp.arrays(bool, (n, 2 * d)))[:, ::2]
    target = draw(st.integers(0, n - 1))
    S[draw(st.lists(st.integers(0, n - 1), max_size=n))] = False
    # the target plus any drawn rows are all-similar, i.e. duplicates of it
    S[[target, *draw(st.lists(st.integers(0, n - 1), max_size=n))]] = True
    responses = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    ordering = draw(st.permutations(range(d)))
    k = draw(st.one_of(st.just(d), st.integers(1, d)))
    return profile_from_indicators(S, target), responses, ordering[:k]


def _all_dissimilar_case():
    """Rows 1 and 3 dissimilar on every feature, row 2 on none, S column-major."""
    S = np.zeros((4, 6), dtype=bool)
    S[[0, 2]] = True
    profile = profile_from_indicators(np.asfortranarray(S), 0)
    return profile, np.array([0.25, -1.0, 0.75, 1.0]), [5, 1, 4]


ONE_ROW = (profile_from_indicators(np.ones((1, 3), bool), 0), np.array([0.5]), [2, 0])


@settings(max_examples=100, deadline=None, database=None)
@given(refinement_cases())
def test_refinement_property(case):
    profile, responses, ordering = case
    if len(ordering) == profile.d:
        check_refinement_against_oracles(profile, responses, ordering)
    sizes, sums = refinement_path(profile, ordering, responses)
    for k in range(len(ordering) + 1):
        members = cohort(profile, ordering[:k])
        assert sizes[k] == len(members)
        assert abs(sums[k] - responses[members].sum()) <= 1e-12


@settings(max_examples=200, deadline=None, database=None)
@given(refinement_cases())
@example(ONE_ROW)
@example(_all_dissimilar_case())
def test_refinement_path_matches_dense_oracle_bitwise(case):
    """The first exits from the sparse rows put every row in the same bin
    as the dense argmax, so both bincounts add the same numbers in the
    same order: sizes and sums agree to the last bit."""
    profile, responses, ordering = case
    full = len(ordering) == profile.d
    paths = [(refinement_path(profile, ordering, responses), ordering)]
    if full:
        # the deletion exits come from the same gather as the first exits
        forward, backward = refinement_path(profile, ordering, responses, with_reversed=True)
        paths += [(forward, ordering), (backward, ordering[::-1])]
    for (sizes, sums), order in paths:
        want_sizes, want_sums = refinement_path_dense(profile, order, responses)
        assert sizes.dtype == want_sizes.dtype and sizes.tobytes() == want_sizes.tobytes()
        assert sums.dtype == want_sums.dtype and sums.tobytes() == want_sums.tobytes()
    if full:
        cv = CohortValue(profile, responses)
        insertion, deletion = conditional_curves(cv, ordering)
        sizes, sums = refinement_path_dense(profile, ordering, responses)
        assert insertion.tobytes() == (sums / sizes).tobytes()
        sizes, sums = refinement_path_dense(profile, ordering[::-1], responses)
        assert deletion.tobytes() == (sums / sizes)[::-1].tobytes()
    else:
        with pytest.raises(ValueError, match="reversed path"):
            refinement_path(profile, ordering, responses, with_reversed=True)


def test_sparse_rows_list_each_dissimilarity_set():
    S = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 0]], dtype=bool)
    profile = profile_from_indicators(np.asfortranarray(S), 0)
    assert "sparse_rows" not in vars(profile)  # built on first use only
    rows, starts, cols = profile.sparse_rows
    np.testing.assert_array_equal(rows, [1, 3, 4])
    np.testing.assert_array_equal(starts, [0, 2, 6])
    np.testing.assert_array_equal(cols, [0, 2, 0, 1, 2, 3, 3])
    assert profile.sparse_rows is profile.sparse_rows
    assert not any(arr.flags.writeable for arr in (rows, starts, cols))


def test_cohort(d3_profile):
    np.testing.assert_array_equal(cohort(d3_profile, ()), [0, 1, 2])
    np.testing.assert_array_equal(cohort(d3_profile, (0,)), [0, 1])
    np.testing.assert_array_equal(cohort(d3_profile, (1,)), [0])
    np.testing.assert_array_equal(cohort(d3_profile, (0, 1)), [0])
    with pytest.raises(ValueError):
        cohort(d3_profile, (2,))


def test_cohort_always_contains_target():
    rng = np.random.default_rng(23)
    profile = random_binary_profile(rng, n=30, d=6, target=4, density=0.4)
    for mask in range(1 << 6):
        u = tuple(j for j in range(6) if (mask >> j) & 1)
        members = cohort(profile, u)
        assert 4 in members


def test_soft_similarity_examples(d3_profile):
    D = d3_profile.dissimilar
    np.testing.assert_array_equal(soft_similarity(D, [0.0, 0.0]), [1, 1, 1])
    np.testing.assert_allclose(soft_similarity(D, [0.5, 0.5]), [1.0, 0.5, 0.25])
    # corners reproduce the binary indicators S_u
    for mask in range(4):
        z = np.array([(mask >> j) & 1 for j in range(2)], dtype=float)
        u = [j for j in range(2) if (mask >> j) & 1]
        expected = d3_profile.indicators[:, u].all(axis=1) if u else np.ones(3, bool)
        np.testing.assert_array_equal(soft_similarity(D, z), expected.astype(float))


def test_soft_similarity_bounds_and_monotonicity():
    rng = np.random.default_rng(5)
    profile = random_binary_profile(rng, n=25, d=9, target=3)
    for _ in range(50):
        z = rng.random(9)
        s = soft_similarity(profile.dissimilar, z)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert s[3] == 1.0
        z_up = np.minimum(z + rng.random(9) * (1.0 - z), 1.0)
        assert np.all(soft_similarity(profile.dissimilar, z_up) <= s + 1e-12)


def test_soft_similarity_diagonal_power_form():
    rng = np.random.default_rng(9)
    profile = random_binary_profile(rng, n=40, d=12, target=0)
    for alpha in [0.0, 0.25, 0.7, 1.0]:
        s = soft_similarity(profile.dissimilar, np.full(12, alpha))
        expected = (1.0 - alpha) ** profile.dissim_counts
        np.testing.assert_allclose(s, expected, atol=1e-14)


def test_equality_is_exact_float_equality():
    ds = make_dataset([[0.1], [0.1], [0.1 + 1e-18]], [0, 0, 0])
    profile = build_profile(ds, SimilaritySpec((Equality(),)), 0)
    # 0.1 + 1e-18 rounds to the same double, so all three match bit-for-bit
    assert profile.indicators.all()
    ds2 = make_dataset([[0.1], [0.1 + 1e-10]], [0, 0])
    profile2 = build_profile(ds2, SimilaritySpec((Equality(),)), 0)
    np.testing.assert_array_equal(profile2.indicators[:, 0], [True, False])
