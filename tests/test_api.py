import ast
import pathlib
import re

import cohortexplain

PUBLIC = [
    "AbcReport", "AbsoluteRange", "Attribution", "CategoricalFeatureUnsupported",
    "CohortExplainError", "CohortValue", "ColumnKind", "ComputationError",
    "ConfigError", "ConvergenceReport", "CornerReport", "DataError", "Dataset", "DimensionMismatch",
    "DimensionTooLarge", "EmptyDataset", "EmptyDissimSet", "EpsOutOfRange", "Equality", "GkwValue",
    "MissingColumn", "MissingValue", "NonNumericResponse", "NonNumericValue", "QuadratureSpec",
    "RelativeRange", "SimilarityProfile", "SimilaritySpec",
    "SingularCovariance", "SoftValue", "TargetOutOfRange", "UniquenessValue",
    "ValueFunction", "abc_report", "abc_scores", "build_profile", "cohort", "conditional_curves",
    "corner_convergence", "dataset_summary", "exact_shapley",
    "heps_mass", "igcs_attribution", "load_dataset", "make_similarity_spec", "mc_shapley",
    "second_order_weights", "variable_ordering",
]


def test_public_names_are_pinned_and_resolve():
    assert cohortexplain.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(cohortexplain, name) is not None


def test_numpy_floor_has_the_functions_used():
    """``np.trapezoid`` (ABC scores) and ``np.bitwise_count`` (exact
    weights) first appeared in numpy 2.0, so the declared floor must be
    at least that.  Read with a regex: ``tomllib`` needs Python 3.11."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)[^"]*"', text)
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (2, 0)


def test_sources_parse_at_the_declared_python_floor():
    """Every source file parses with the grammar of the oldest Python that
    pyproject.toml admits, so newer syntax fails here even when the tests
    run on a newer interpreter."""
    root = pathlib.Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (root / "pyproject.toml").read_text())
    assert floor is not None
    for path in sorted((root / "src").rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(int(floor[1]), int(floor[2])))
