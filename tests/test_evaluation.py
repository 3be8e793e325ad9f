import itertools

import numpy as np
import pytest

from cohortexplain import (
    CohortValue,
    abc_report,
    abc_scores,
    conditional_curves,
    variable_ordering,
)

from conftest import random_cohort_instance


def test_variable_ordering():
    np.testing.assert_array_equal(variable_ordering(np.array([-0.25, -0.75])), [0, 1])
    np.testing.assert_array_equal(variable_ordering(np.array([0.0, 0.0, 0.0])), [0, 1, 2])
    np.testing.assert_array_equal(variable_ordering(np.array([1.0, 3.0, 2.0])), [1, 2, 0])


def test_d3_curves_and_scores(d3_cohort_value):
    ins, dele = conditional_curves(d3_cohort_value, [0, 1])
    np.testing.assert_array_equal(ins, [2.0, 1.5, 1.0])
    np.testing.assert_array_equal(dele, [1.0, 1.0, 2.0])
    assert abc_scores(ins, dele) == (0.0, 0.5)

    ins2, dele2 = conditional_curves(d3_cohort_value, [1, 0])
    np.testing.assert_array_equal(ins2, [2.0, 1.0, 1.0])
    np.testing.assert_array_equal(dele2, [1.0, 1.5, 2.0])
    assert abc_scores(ins2, dele2) == (-0.5, 0.0)


def test_curve_endpoints_invariants():
    rng = np.random.default_rng(31)
    profile, responses, cv = random_cohort_instance(rng, n=30, d=5)
    nu_empty = responses.mean()
    nu_full = cv.evaluate(tuple(range(5)))
    for _ in range(10):
        ordering = rng.permutation(5)
        ins, dele = conditional_curves(cv, ordering)
        assert ins[0] == pytest.approx(nu_empty, abs=1e-15)
        assert ins[-1] == pytest.approx(nu_full, abs=1e-12)
        assert dele[0] == pytest.approx(nu_full, abs=1e-12)
        assert dele[-1] == pytest.approx(nu_empty, abs=1e-15)


def test_reversed_ordering_identity():
    rng = np.random.default_rng(32)
    profile, responses, cv = random_cohort_instance(rng, n=25, d=6)
    ordering = rng.permutation(6)
    ins_rev, _ = conditional_curves(cv, ordering[::-1])
    _, dele = conditional_curves(cv, ordering)
    np.testing.assert_allclose(dele, ins_rev[::-1], atol=1e-15)


def test_single_feature_curves(d3_cohort_value):
    rng = np.random.default_rng(33)
    profile, responses, cv = random_cohort_instance(rng, n=12, d=1)
    ins, dele = conditional_curves(cv, [0])
    assert abc_scores(ins, dele) == (0.0, 0.0)  # curves are their own chords


def test_constant_curve_zero_abc():
    assert abc_scores([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == (0.0, 0.0)


def test_bad_ordering_rejected(d3_cohort_value):
    with pytest.raises(ValueError):
        conditional_curves(d3_cohort_value, [0, 0])
    with pytest.raises(ValueError):
        conditional_curves(d3_cohort_value, [0])
    with pytest.raises(ValueError):
        conditional_curves(d3_cohort_value, [0, 2])
    with pytest.raises(ValueError):
        conditional_curves(d3_cohort_value, [-1, 0])
    with pytest.raises(ValueError):
        conditional_curves(d3_cohort_value, [1.7, 0.2])  # not truncated to [1, 0]


def test_abc_invariant_under_response_shift():
    rng = np.random.default_rng(34)
    profile, responses, cv = random_cohort_instance(rng, n=30, d=5)
    shifted = CohortValue(profile, responses + 100.0)
    ordering = rng.permutation(5)
    base = abc_scores(*conditional_curves(cv, ordering))
    moved = abc_scores(*conditional_curves(shifted, ordering))
    assert base[0] == pytest.approx(moved[0], abs=1e-9)
    assert base[1] == pytest.approx(moved[1], abs=1e-9)


def test_zero_sum_identity_exhaustive_d3(d3_cohort_value):
    scores = [
        abc_scores(*conditional_curves(d3_cohort_value, list(p)))
        for p in itertools.permutations(range(2))
    ]
    total = sum(i + d_ for i, d_ in scores) / len(scores)
    assert total == pytest.approx(0.0, abs=1e-15)
    # the two orderings give exactly (0, 0.5) and (-0.5, 0)
    assert set(scores) == {(0.0, 0.5), (-0.5, 0.0)}


def test_zero_sum_identity_random_datasets():
    rng = np.random.default_rng(35)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        profile, responses, cv = random_cohort_instance(rng, n=int(rng.integers(3, 20)), d=d)
        mean_sum = np.mean([
            sum(abc_scores(*conditional_curves(cv, list(p))))
            for p in itertools.permutations(range(d))
        ])
        assert abs(mean_sum) < 1e-9


def test_abc_report_bundles_everything(d3_cohort_value):
    report = abc_report(d3_cohort_value, np.array([-0.25, -0.75]))
    assert report.abc_insertion == 0.0
    assert report.abc_deletion == 0.5
    assert report.target_index == 0
