"""Exception hierarchy.

The CLI maps each family to a distinct exit code: ConfigError -> 2,
DataError -> 3, ComputationError -> 4.
"""


class CohortExplainError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CohortExplainError):
    """Invalid configuration: bad rule parameters, out-of-range arguments
    (a target row or ``eps``), columns the data lacks, malformed config
    files, or inconsistent CLI option combinations."""


class TargetOutOfRange(ConfigError):
    def __init__(self, target: int, n: int):
        super().__init__(f"target index {target} outside [0, {n})")
        self.target = target
        self.n = n


class EpsOutOfRange(ConfigError):
    def __init__(self, eps: float):
        super().__init__(f"eps must lie in (0, 1), got {eps}")
        self.eps = eps


class MissingColumn(ConfigError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in header")
        self.column = column


class DataError(CohortExplainError):
    """The input data cannot be loaded or interpreted."""


class NonNumericResponse(DataError):
    def __init__(self, column: str, row: int, value: str):
        super().__init__(
            f"column {column!r} must be numeric but row {row} holds {value!r}"
        )
        self.column = column
        self.row = row


class NonNumericValue(DataError):
    def __init__(self, column: str, row: int, value: str):
        super().__init__(
            f"column {column!r} is declared numeric but row {row} holds {value!r}"
        )
        self.column = column
        self.row = row


class MissingValue(DataError):
    def __init__(self, row: int, column: str):
        super().__init__(f"missing value at row {row}, column {column!r}")
        self.row = row
        self.column = column


class EmptyDataset(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class ComputationError(CohortExplainError):
    """A computation was requested outside its domain of validity."""


class DimensionTooLarge(ComputationError):
    def __init__(self, d: int, cap: int):
        super().__init__(f"dimension {d} exceeds the cap of {cap}")
        self.d = d
        self.cap = cap


class SingularCovariance(ComputationError):
    pass


class CategoricalFeatureUnsupported(ComputationError):
    pass


class EmptyDissimSet(ComputationError):
    pass
