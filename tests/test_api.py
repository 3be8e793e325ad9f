import cohortexplain

PUBLIC = [
    "AbcReport", "AbsoluteRange", "AbsResidual", "Attribution", "CategoricalFeatureUnsupported",
    "CohortExplainError", "CohortValue", "ColumnKind", "ComparisonRecord", "ComputationError",
    "ConfigError", "ConvergenceReport", "CornerReport", "DataError", "Dataset", "DimensionMismatch",
    "DimensionTooLarge", "EmptyDataset", "EmptyDissimSet", "EpsOutOfRange", "Equality", "GkwValue",
    "MissingColumn", "MissingValue", "NonNumericResponse", "NonNumericValue", "QuadratureSpec",
    "RandomBaseline", "Raw", "RelativeRange", "Residual", "SimilarityProfile", "SimilaritySpec",
    "SingularCovariance", "SoftValue", "SquaredResidual", "TargetOutOfRange", "UniquenessValue",
    "ValueFunction", "abc_report", "abc_scores", "build_profile", "cohort", "conditional_curves",
    "corner_convergence", "cs_vs_igcs", "dataset_summary", "exact_shapley", "feature_ranges",
    "heps_mass", "igcs_attribution", "load_dataset", "make_similarity_spec", "mc_shapley",
    "random_ordering_baseline", "save_dataset", "second_order_weights", "variable_ordering",
]


def test_public_names_are_pinned_and_resolve():
    assert cohortexplain.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(cohortexplain, name) is not None
