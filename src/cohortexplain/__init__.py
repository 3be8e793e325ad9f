"""Model-free variable importance from observed data alone.

Attributes a target observation's response (prediction, label, or residual)
to its input features by conditioning on cohorts of similar observations:
exact and Monte Carlo cohort Shapley, a scalable integrated-gradient
approximation, kernel-weighted and uniqueness value functions, conditional
insertion/deletion ABC evaluation, and convergence diagnostics.
"""

from .data import (
    AbsoluteRange,
    Dataset,
    Equality,
    RelativeRange,
    SimilaritySpec,
    dataset_summary,
    load_dataset,
    make_similarity_spec,
)
from .diagnostics import (
    ConvergenceReport,
    CornerReport,
    corner_convergence,
    heps_mass,
    second_order_weights,
)
from .errors import (
    CategoricalFeatureUnsupported,
    CohortExplainError,
    ComputationError,
    ConfigError,
    DataError,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDataset,
    EmptyDissimSet,
    EpsOutOfRange,
    MissingColumn,
    MissingValue,
    NonNumericResponse,
    NonNumericValue,
    SingularCovariance,
    TargetOutOfRange,
)
from .evaluation import (
    AbcReport,
    abc_report,
    abc_scores,
    conditional_curves,
    variable_ordering,
)
from .igcs import SoftValue, igcs_attribution
from .shapley import (
    Attribution,
    ValueFunction,
    exact_shapley,
    mc_shapley,
)
from .similarity import SimilarityProfile, build_profile, cohort
from .values import CohortValue, GkwValue, UniquenessValue

__version__ = "0.1.0"

__all__ = [
    "AbcReport",
    "AbsoluteRange",
    "Attribution",
    "CategoricalFeatureUnsupported",
    "CohortExplainError",
    "CohortValue",
    "ComputationError",
    "ConfigError",
    "ConvergenceReport",
    "CornerReport",
    "DataError",
    "Dataset",
    "DimensionMismatch",
    "DimensionTooLarge",
    "EmptyDataset",
    "EmptyDissimSet",
    "EpsOutOfRange",
    "Equality",
    "GkwValue",
    "MissingColumn",
    "MissingValue",
    "NonNumericResponse",
    "NonNumericValue",
    "RelativeRange",
    "SimilarityProfile",
    "SimilaritySpec",
    "SingularCovariance",
    "SoftValue",
    "TargetOutOfRange",
    "UniquenessValue",
    "ValueFunction",
    "abc_report",
    "abc_scores",
    "build_profile",
    "cohort",
    "conditional_curves",
    "corner_convergence",
    "dataset_summary",
    "exact_shapley",
    "heps_mass",
    "igcs_attribution",
    "load_dataset",
    "make_similarity_spec",
    "mc_shapley",
    "second_order_weights",
    "variable_ordering",
]
