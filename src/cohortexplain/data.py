"""CSV-backed dataset loading, column typing, and response derivation.

The only input format is CSV with a header row, UTF-8, comma delimiter and
'.' decimal point.  A column is inferred numeric when every entry parses as
a finite real; otherwise it is categorical, coded by distinct strings in
first-appearance order.  Empty cells are missing values and a load error.

The reference loader is ``csv.reader`` plus ``float()`` (``_read_rows`` and
``_parse_table``).  A plain numeric file, whose data rows hold only the bytes
``0123456789.eE+-,`` and ``\\n`` and no blank line, is instead parsed in one
``np.loadtxt`` call (``_read_plain``): on those bytes a cell is what a split
on ',' and '\\n' gives, and both parsers read it with ``PyOS_string_to_double``,
so the table is the same to the bit.  Any file the fast path does not take,
or would read differently, goes to the reference loader, which raises every
documented error.

The similarity widths w_j come from two immutable sources: the column
ranges (and two-level codes) a ``Dataset`` computes when it is made, and
the per-column arrays a ``SimilaritySpec`` derives from its rules.
``similarity_widths`` combines them on each call; nothing is cached.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyDataset,
    MissingColumn,
    MissingValue,
    NonNumericResponse,
    NonNumericValue,
)


# ---------------------------------------------------------------------------
# Per-column similarity rules

@dataclass(frozen=True)
class Equality:
    """Similar iff the stored values are identical: width 0."""

    def token(self) -> str:
        return "equality"


@dataclass(frozen=True)
class RelativeRange:
    """Similar iff |x_ij - x_tj| <= delta * (column range)."""

    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"relative similarity delta must be in (0, 1], got {self.delta}")

    def token(self) -> str:
        return f"relative:{self.delta!r}"


@dataclass(frozen=True)
class AbsoluteRange:
    """Similar iff |x_ij - x_tj| <= width, in the column's own units."""

    width: float

    def __post_init__(self):
        if not self.width >= 0.0:
            raise ConfigError(f"absolute similarity width must be >= 0, got {self.width}")

    def token(self) -> str:
        return f"absolute:{self.width!r}"


SimilarityRule = Union[Equality, RelativeRange, AbsoluteRange]


@dataclass(frozen=True)
class SimilaritySpec:
    """One similarity rule per dataset column, in column order.

    The rules are also held as read-only per-column arrays, derived from
    ``rules`` and left out of comparison and hashing: ``relative`` marks
    the relative-range rules, ``deltas`` holds their deltas, ``fixed`` the
    other rules' widths (0 for equality), and ``equality`` marks the
    equality rules.
    """

    rules: tuple[SimilarityRule, ...]
    relative: np.ndarray = field(init=False, repr=False, compare=False)
    deltas: np.ndarray = field(init=False, repr=False, compare=False)
    fixed: np.ndarray = field(init=False, repr=False, compare=False)
    equality: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rule in self.rules:
            if not isinstance(rule, (Equality, RelativeRange, AbsoluteRange)):
                raise ConfigError(f"unknown similarity rule {rule!r}")
        arrays = {
            "relative": np.array([isinstance(rule, RelativeRange) for rule in self.rules], dtype=bool),
            "deltas": np.array([getattr(rule, "delta", 0.0) for rule in self.rules], dtype=float),
            "fixed": np.array([getattr(rule, "width", 0.0) for rule in self.rules], dtype=float),
            "equality": np.array([isinstance(rule, Equality) for rule in self.rules], dtype=bool),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# Response modes

# The response vector of each residual mode, from the response column y and
# the prediction column pred; mode "raw" takes y as-is.
_RESIDUALS = {
    "residual": lambda y, pred: y - pred,
    "abs-residual": lambda y, pred: np.abs(y - pred),
    "squared-residual": lambda y, pred: (y - pred) ** 2,
}


def parse_response_mode(mode: str, response_column: str) -> tuple[Optional[Callable], Optional[str]]:
    """The residual function and the prediction column of a token ``raw``
    (None and None), ``residual:COL``, ``abs-residual:COL`` or
    ``squared-residual:COL``."""
    if mode == "raw":
        return None, None
    kind, sep, column = mode.partition(":")
    if not (sep and column and kind in _RESIDUALS):
        raise ConfigError(
            f"bad response mode {mode!r}; expected raw, residual:COL, abs-residual:COL or squared-residual:COL"
        )
    if column == response_column:
        raise ConfigError(f"prediction column {column!r} is the response column")
    return _RESIDUALS[kind], column


# ---------------------------------------------------------------------------
# Dataset

@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable n x d feature matrix plus an n-vector of responses.

    Numeric columns hold the parsed reals; categorical columns hold integer
    codes, code k standing for label ``categories[j][k]``.  ``categories``
    is the one statement of each column's kind: None for a numeric column,
    the tuple of distinct labels for a categorical one.  A code that is not
    an integer in [0, len(labels)), or a label that repeats, is a
    ``DataError``.  Arrays are read-only so the dataset can be shared across
    parallel workers.  Datasets compare and hash by identity.

    The column facts that every similarity width and profile reads are
    computed once, from one min/max pass over the features:
    ``categorical`` marks the categorical columns, ``low``/``high`` are
    each column's minimum and maximum, and ``ranges`` is high - low (0 for
    categorical columns; inf, without a warning, past the largest float).
    When every column takes at most two values, ``at_high[i, j]`` is
    x_ij == high_j; otherwise ``at_high`` is None.  -0.0 and 0.0 are one
    value; no similarity rule tells them apart.
    """

    features: np.ndarray
    responses: np.ndarray
    column_names: tuple[str, ...]
    categories: tuple[Optional[tuple[str, ...]], ...]
    response_name: str = "y"
    categorical: np.ndarray = field(init=False, repr=False)
    low: np.ndarray = field(init=False, repr=False)
    high: np.ndarray = field(init=False, repr=False)
    ranges: np.ndarray = field(init=False, repr=False)
    at_high: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        resp = np.array(self.responses, dtype=float)
        if feats.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n, d = feats.shape
        if n < 1 or d < 1:
            raise EmptyDataset(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if resp.shape != (n,):
            raise DataError(f"responses must have length {n}, got shape {resp.shape}")
        names = tuple(self.column_names)
        cats = tuple(tuple(c) if c is not None else None for c in self.categories)
        if not len(names) == len(cats) == d:
            raise DataError("column metadata length must equal d")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if not np.all(np.isfinite(resp)):
            raise DataError("responses contain non-finite values")
        categorical = np.array([c is not None for c in cats], dtype=bool)
        for j in np.flatnonzero(categorical):
            labels, codes = cats[j], feats[:, j]
            if len(set(labels)) != len(labels):
                raise DataError(f"categorical column {names[j]!r} repeats a label")
            if not ((codes >= 0) & (codes < len(labels)) & (codes == np.trunc(codes))).all():
                raise DataError(
                    f"categorical column {names[j]!r} has a code that is not an integer in [0, {len(labels)})"
                )
        low, high = feats.min(axis=0), feats.max(axis=0)
        with np.errstate(over="ignore"):
            ranges = np.where(categorical, 0.0, high - low)
        # A table of continuous columns shows a third value in its first
        # rows, which decide it at a fraction of the full check's cost.
        head = feats[:16]
        at_high = None
        if not ((head != low) & (head != high)).any():
            at_high = feats == high
            if not (at_high | (feats == low)).all():
                at_high = None
        facts = {"features": feats, "responses": resp, "categorical": categorical,
                 "low": low, "high": high, "ranges": ranges, "at_high": at_high}
        for name, arr in facts.items():
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "categories", cats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _parse_column(cells) -> Optional[np.ndarray]:
    """The cells as finite reals, or None if any cell is not one."""
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_table(data: list[list[str]], width: int) -> np.ndarray:
    """The string table as reals, a column holding any cell that is not a
    finite real made non-finite.  The whole table is parsed in one call
    when every cell parses; only when one does not is it parsed column by
    column.  Both give the values and errors of ``float()``."""
    try:
        return np.array(data, dtype=float)
    except ValueError:
        pass
    table = np.full((len(data), width), np.nan)
    for i, cells in enumerate(zip(*data)):
        values = _parse_column(cells)
        if values is not None:
            table[:, i] = values
    return table


def read_lines(path, error: type = DataError, raw: Optional[bytes] = None) -> list[str]:
    """The lines, ends kept, of a UTF-8 file (or of its bytes ``raw``) without
    one leading byte-order mark, split as ``open(path, newline="")`` splits
    them and decoded once; a bad byte raises ``error`` with its offset in the
    file (from a second decode, of the whole)."""
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        return list(io.TextIOWrapper(io.BytesIO(raw.removeprefix(codecs.BOM_UTF8)), encoding="utf-8", newline=""))
    except UnicodeDecodeError:
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
        raise


def _read_rows(path, raw: bytes) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(read_lines(path, raw=raw))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if not data:
        raise EmptyDataset(f"{path}: no data rows")
    width = len(header)
    for r, row in enumerate(data):
        if len(row) != width:
            raise DataError(f"{path}: row {r} has {len(row)} fields, expected {width}")
        if "" in row:
            raise MissingValue(r, header[row.index("")])
    return header, data


_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _longest_line(body: bytes) -> int:
    ends = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n"))
    return int(np.diff(ends, prepend=-1, append=len(body)).max()) - 1


def _read_plain(raw: bytes) -> Optional[tuple[list[str], np.ndarray]]:
    """The header and the table of a plain numeric CSV, or None when the file
    is not one: a header without '"' or '\\r', in UTF-8 (one leading byte-order
    mark dropped, as ``read_lines`` drops it), of distinct names no
    longer than ``csv.field_size_limit()``; a non-empty body of ``_PLAIN_BYTES``
    with no blank line and no line over that limit; and a table of finite
    reals as wide as the header."""
    head, _, body = raw.partition(b"\n")
    limit = csv.field_size_limit()
    if (not head or b'"' in head or b"\r" in head or not body or body.startswith(b"\n")
            or b"\n\n" in body or body.translate(None, _PLAIN_BYTES)
            or len(body) > limit and _longest_line(body) > limit):
        return None
    del body  # loadtxt reads the file past its header line: one copy of the bytes, not two
    try:
        header = head.removeprefix(codecs.BOM_UTF8).decode("utf-8").split(",")
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1, ndmin=2, dtype=float)
    except ValueError:  # UnicodeDecodeError included
        return None
    if (len(set(header)) != len(header) or max(map(len, header)) > limit
            or table.shape[1] != len(header) or not np.isfinite(table).all()):
        return None
    return header, table


def load_dataset(
    path,
    response_column: str,
    response_mode: str = "raw",
    schema_overrides: Optional[dict[str, str]] = None,
) -> Dataset:
    """Load and validate a CSV file into a Dataset.

    ``response_mode`` is the CLI's ``--response-mode`` token: ``raw`` takes
    the response column as-is, and ``residual:COL``, ``abs-residual:COL``
    and ``squared-residual:COL`` take y - pred, |y - pred| and
    (y - pred)^2 against the prediction column COL, which must be another
    column than the response.  The response and prediction columns are
    excluded from the feature matrix; feature column order is preserved.
    ``schema_overrides`` maps column names to the CLI's ``--schema`` token,
    ``numeric`` or ``categorical``, and wins over type inference; any other
    token, the response or prediction column made categorical, or a column
    that the header lacks is a ``ConfigError``.

    Without a categorical override, a plain numeric file is read by the fast
    path (see the module docstring); every other file, and every file the
    fast path declines, by the reference loader, with the same result.
    """
    residual, pred_column = parse_response_mode(response_mode, response_column)
    overrides = dict(schema_overrides or {})
    for name, kind in overrides.items():
        if kind not in ("numeric", "categorical"):
            raise ConfigError(f"bad kind {kind!r} for column {name!r}; expected numeric or categorical")
        if kind == "categorical" and name in (response_column, pred_column):
            raise ConfigError(f"response or prediction column {name!r} cannot be categorical")
    with open(path, "rb") as fh:
        raw = fh.read()
    plain = None if "categorical" in overrides.values() else _read_plain(raw)
    if plain is None:
        header, data = _read_rows(path, raw)
        table = _parse_table(data, len(header))
    else:
        # All finite and no column forced categorical: nothing reads ``data``.
        header, table = plain
    del raw  # free the file's bytes before the feature copy below
    for name in overrides:
        if name not in header:
            raise MissingColumn(name)

    if response_column not in header:
        raise MissingColumn(response_column)
    if pred_column is not None and pred_column not in header:
        raise MissingColumn(pred_column)

    finite = np.isfinite(table).all(axis=0)
    index = {name: i for i, name in enumerate(header)}

    def numeric(name: str, error) -> np.ndarray:
        """The column as finite reals, or ``error`` naming the first bad row."""
        i = index[name]
        if not finite[i]:
            r = next(r for r, row in enumerate(data) if _parse_column([row[i]]) is None)
            raise error(name, r, data[r][i])
        return table[:, i]

    y = numeric(response_column, NonNumericResponse)
    responses = y if residual is None else residual(y, numeric(pred_column, NonNumericResponse))

    feature_names = [c for c in header if c != response_column and c != pred_column]
    if not feature_names:
        raise EmptyDataset(f"{path}: no feature columns besides the response")

    matrix = table.take([index[name] for name in feature_names], axis=1)  # C order, as BLAS callers expect
    categories: list[Optional[tuple[str, ...]]] = []
    for j, name in enumerate(feature_names):
        i = index[name]
        if overrides.get(name, "numeric" if finite[i] else "categorical") == "numeric":
            numeric(name, NonNumericValue)  # raises if an override forced a non-real column
            categories.append(None)
        else:
            codes: dict[str, int] = {}
            matrix[:, j] = [codes.setdefault(row[i], len(codes)) for row in data]
            categories.append(tuple(codes))

    return Dataset(
        features=matrix,
        responses=responses,
        column_names=tuple(feature_names),
        categories=tuple(categories),
        response_name=response_column,
    )


def dataset_summary(ds: Dataset) -> str:
    """Structured text report: n, d, column types and ranges."""
    width = max(len(name) for name in ds.column_names)
    lines = [f"dataset: n={ds.n} rows, d={ds.d} features, response={ds.response_name}"]
    for name, span, labels in zip(ds.column_names, ds.ranges.tolist(), ds.categories):
        kind, detail = ("numeric", f"range={span!r}") if labels is None else ("categorical", f"levels={len(labels)}")
        lines.append(f"  {name.ljust(width)}  {kind:<12} {detail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Similarity specification helpers

def similarity_widths(ds: Dataset, spec: SimilaritySpec) -> np.ndarray:
    """Per-column widths w_j from each rule and the column's observed range:
    row i is similar to target t on column j iff |x_ij - x_tj| <= w_j.

    The spec is checked against the dataset first: one rule per column,
    and the equality rule on every categorical column.  A relative rule's
    width is delta * range, the other rules' their fixed width; the product
    is taken on the relative columns only, so an inf range under a fixed
    rule never meets a 0 delta and no width is NaN."""
    if len(spec.rules) != ds.d:
        raise ConfigError(f"spec has {len(spec.rules)} rules for {ds.d} columns")
    misruled = ds.categorical & ~spec.equality
    if misruled.any():
        name = ds.column_names[int(misruled.argmax())]
        raise ConfigError(f"categorical column {name!r} must use the equality rule")
    return np.multiply(spec.deltas, ds.ranges, out=spec.fixed.copy(), where=spec.relative)


def make_similarity_spec(
    ds: Dataset,
    default: SimilarityRule = RelativeRange(),
    overrides: Optional[dict[str, SimilarityRule]] = None,
) -> SimilaritySpec:
    """Build a per-column spec: the default for numeric columns, Equality for
    categorical ones, with explicit per-column overrides winning.  An
    override of the response column or of a column the dataset lacks is a
    ``ConfigError``."""
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(ds.column_names)
    if ds.response_name in unknown:
        raise ConfigError(f"column {ds.response_name!r} is the response column; it takes no similarity rule")
    if unknown:
        raise MissingColumn(min(unknown))
    spec = SimilaritySpec(tuple(
        overrides.get(name, default if labels is None else Equality())
        for name, labels in zip(ds.column_names, ds.categories)
    ))
    similarity_widths(ds, spec)
    return spec


def parse_rule(token: str) -> SimilarityRule:
    """Parse a rule token: ``equality``, ``relative:<delta>`` or ``absolute:<width>``."""
    token = token.strip()
    if token == "equality":
        return Equality()
    kind, sep, arg = token.partition(":")
    if sep and kind in ("relative", "absolute"):
        try:
            value = float(arg)
        except ValueError:
            raise ConfigError(f"bad numeric argument in similarity rule {token!r}") from None
        return RelativeRange(value) if kind == "relative" else AbsoluteRange(value)
    raise ConfigError(f"unknown similarity rule {token!r}")


def parse_similarity_config(text: str) -> tuple[Optional[SimilarityRule], dict[str, SimilarityRule]]:
    """Parse the key-value config format (see FORMATS.md).

    Recognized keys: ``similarity.default`` and ``similarity.<column>``.
    Blank lines and lines starting with '#' are ignored.  Returns the
    default rule (None if absent) and the per-column overrides.
    """
    default: Optional[SimilarityRule] = None
    overrides: dict[str, SimilarityRule] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        rule = parse_rule(value)
        if key == "similarity.default":
            default = rule
        elif key.startswith("similarity."):
            overrides[key[len("similarity."):]] = rule
        else:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    return default, overrides
