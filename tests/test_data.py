import csv
import dataclasses
import importlib.util
import json
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortexplain import (
    AbsoluteRange,
    ConfigError,
    DataError,
    Dataset,
    EmptyDataset,
    Equality,
    MissingColumn,
    MissingValue,
    NonNumericResponse,
    NonNumericValue,
    RelativeRange,
    dataset_summary,
    load_dataset,
    make_similarity_spec,
)
from cohortexplain import cli, data
from cohortexplain.cli import main
from cohortexplain.data import parse_rule, parse_similarity_config

from conftest import make_dataset
from oracles import finite_real, first_non_real, infer_column


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_identity_load(tmp_path):
    path = write(tmp_path / "d.csv", "a,b,y\n1,2,10\n3,4,20\n5,6,30\n")
    ds = load_dataset(path, "y")
    assert ds.n == 3 and ds.d == 2
    assert ds.column_names == ("a", "b")
    np.testing.assert_array_equal(ds.responses, [10.0, 20.0, 30.0])
    np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
    assert not ds.categorical.any()


def test_residual_modes(tmp_path):
    path = write(tmp_path / "d.csv", "a,y,pred\n0,1,1\n0,2,1\n0,3,1\n")
    residual = load_dataset(path, "y", "residual:pred")
    np.testing.assert_array_equal(residual.responses, [0.0, 1.0, 2.0])
    assert residual.column_names == ("a",)

    path2 = write(tmp_path / "d2.csv", "a,y,pred\n0,1,3\n0,2,3\n0,5,3\n")
    absres = load_dataset(path2, "y", "abs-residual:pred")
    np.testing.assert_array_equal(absres.responses, [2.0, 1.0, 2.0])
    sqres = load_dataset(path2, "y", "squared-residual:pred")
    np.testing.assert_array_equal(sqres.responses, [4.0, 1.0, 4.0])


@pytest.mark.parametrize("mode, want", [
    ("residual:pred", [-1.5, 2.25, 2.0]),
    ("abs-residual:pred", [1.5, 2.25, 2.0]),
    ("squared-residual:pred", [2.25, 5.0625, 4.0]),
])
def test_library_takes_the_cli_response_mode(tmp_path, monkeypatch, mode, want):
    """load_dataset takes the --response-mode token and gives the responses
    that the CLI attributes."""
    path = write(tmp_path / "d.csv", "a,y,pred\n0,1.5,3\n1,2,-0.25\n0,5,3\n")
    loaded = []

    def spy(*args):
        loaded.append(load_dataset(*args))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_dataset", spy)
    assert main(["similarity", "--data", str(path), "--response", "y", "--response-mode", mode,
                 "--target", "0", "--out", str(tmp_path / "s.csv")]) == 0
    (ds,) = loaded
    assert ds.responses.tobytes() == load_dataset(path, "y", mode).responses.tobytes()
    np.testing.assert_array_equal(ds.responses, want)


def test_prediction_column_must_differ_from_response(tmp_path):
    path = write(tmp_path / "d.csv", "a,y\n0,1\n1,2\n")
    for mode in ("residual:y", "abs-residual:y", "squared-residual:y"):
        with pytest.raises(ConfigError, match="'y' is the response column"):
            load_dataset(path, "y", mode)
    for mode in ("bogus", "residual:", "residual"):
        with pytest.raises(ConfigError, match="bad response mode"):
            load_dataset(path, "y", mode)


def test_missing_value_names_row_and_column(tmp_path):
    path = write(tmp_path / "d.csv", "a,b,y\n1,2,3\n1,,3\n")
    with pytest.raises(MissingValue) as err:
        load_dataset(path, "y")
    assert err.value.row == 1
    assert err.value.column == "b"


def test_missing_column_and_empty(tmp_path):
    path = write(tmp_path / "d.csv", "a,y\n1,2\n")
    with pytest.raises(MissingColumn):
        load_dataset(path, "z")
    with pytest.raises(MissingColumn):
        load_dataset(path, "y", "residual:pred")
    empty = write(tmp_path / "e.csv", "a,y\n")
    with pytest.raises(EmptyDataset):
        load_dataset(empty, "y")
    only_response = write(tmp_path / "o.csv", "y\n1\n")
    with pytest.raises(EmptyDataset):
        load_dataset(only_response, "y")


def test_non_numeric_response(tmp_path):
    path = write(tmp_path / "d.csv", "a,y\n1,x\n")
    with pytest.raises(NonNumericResponse):
        load_dataset(path, "y")


def test_categorical_inference_first_appearance_order(tmp_path):
    path = write(tmp_path / "d.csv", "color,y\nred,1\nblue,2\nred,3\ngreen,4\n")
    ds = load_dataset(path, "y")
    assert ds.categorical.tolist() == [True]
    assert ds.categories[0] == ("red", "blue", "green")
    np.testing.assert_array_equal(ds.features[:, 0], [0, 1, 0, 2])


def test_schema_override_wins(tmp_path):
    path = write(tmp_path / "d.csv", "code,y\n1,1\n2,2\n1,3\n")
    inferred = load_dataset(path, "y")
    assert inferred.categorical.tolist() == [False]
    forced = load_dataset(path, "y", schema_overrides={"code": "categorical"})
    assert forced.categorical.tolist() == [True]
    assert forced.categories[0] == ("1", "2")

    bad = write(tmp_path / "b.csv", "code,y\nabc,1\n")
    with pytest.raises(NonNumericValue):
        load_dataset(bad, "y", schema_overrides={"code": "numeric"})


@pytest.mark.parametrize("terminator", ["\n", "\r\n"], ids=["plain", "crlf"])
def test_numeric_override_keeps_a_numeric_column(tmp_path, terminator):
    """The ``numeric`` token keeps the column numeric on the fast path and
    on the reference loader (a CRLF file) alike."""
    path = tmp_path / "d.csv"
    path.write_bytes("a,y\n1,1\n2,2\n1,3\n".replace("\n", terminator).encode())
    ds = load_dataset(path, "y", schema_overrides={"a": "numeric"})
    assert ds.categories == (None,)
    np.testing.assert_array_equal(ds.features[:, 0], [1.0, 2.0, 1.0])


@pytest.mark.parametrize("overrides, message", [
    ({"a": "bogus"}, "bad kind 'bogus' for column 'a'; expected numeric or categorical"),
    ({"a": "Categorical"}, "bad kind 'Categorical' for column 'a'; expected numeric or categorical"),
    ({"y": "categorical"}, "response or prediction column 'y' cannot be categorical"),
], ids=["bogus", "wrong-case", "response-categorical"])
def test_bad_schema_override_is_a_config_error(tmp_path, overrides, message):
    """An override is checked before the file is read: a missing file does
    not mask it."""
    for path in (write(tmp_path / "d.csv", "a,y\n1,1\n2,2\n"), tmp_path / "absent.csv"):
        with pytest.raises(ConfigError) as info:
            load_dataset(path, "y", schema_overrides=overrides)
        assert type(info.value) is ConfigError and str(info.value) == message


def test_non_finite_tokens_are_not_numeric(tmp_path):
    path = write(tmp_path / "d.csv", "a,y\nnan,1\n2,2\n")
    ds = load_dataset(path, "y")
    assert ds.categorical.tolist() == [True]


NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1 ", "1_0", "+7", ".5", "1.", "-0", "1E3", "\uff11", "\u0661\u0662"]),
)
# float() accepts these, but they are not finite reals.
NON_FINITE_CELLS = st.sampled_from(["1e400", "-1e400", "nan", "NaN", "inf", "-Infinity"])
TEXT_CELLS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     min_size=1, max_size=6)


def parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


# float() rejects these.
NON_REAL_CELLS = st.one_of(
    st.sampled_from(["0x10", "1,5", '"3"', "1__0", "1e", " ", "abc", "\u00e9"]),
    TEXT_CELLS.filter(lambda cell: not parses(cell)),
)
REAL_CELLS = st.one_of(NUMERIC_CELLS, NON_FINITE_CELLS)
ANY_CELLS = st.one_of(REAL_CELLS, NON_REAL_CELLS, TEXT_CELLS)


@st.composite
def csv_tables(draw):
    """Columns of string cells (the last one is the response) and a set of
    feature columns forced numeric.  A third of the tables have only cells
    that float() accepts, so the loader parses them in one call; a third are
    such tables with exactly one cell it rejects, so the loader falls back
    to parsing column by column; the rest mix cells of every kind."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["real", "one-non-real", "any"]))
    pools = [NUMERIC_CELLS, ANY_CELLS if shape == "any" else REAL_CELLS]
    columns = [draw(st.lists(draw(st.sampled_from(pools)), min_size=n, max_size=n))
               for _ in range(d + 1)]
    if shape == "one-non-real":
        columns[draw(st.integers(0, d))][draw(st.integers(0, n - 1))] = draw(NON_REAL_CELLS)
    if shape != "any":
        assert sum(not parses(cell) for cells in columns for cell in cells) == (shape != "real")
    return columns, draw(st.sets(st.integers(0, d - 1)))


def csv_line(cells):
    """One CSV row, quoting a cell only when it holds ',', '"', '\\r' or '\\n'
    (csv.writer leaves '\\r' bare unless it is in its line terminator)."""
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\r\n') else cell
        for cell in cells
    )


def write_columns(path, columns, terminator):
    """Feature columns then the response column ``y``, one row per line."""
    names = [f"c{j}" for j in range(len(columns) - 1)] + ["y"]
    text = "".join(csv_line(row) + terminator for row in [names, *zip(*columns)])
    path.write_bytes(text.encode("utf-8"))
    return path


def load_traced(path, **kwargs):
    """load_dataset's dataset or load error, and whether the fast path read
    the file (the reference loader's ``_read_rows`` never ran)."""
    with mock.patch.object(data, "_read_rows", wraps=data._read_rows) as spy:
        try:
            result = load_dataset(path, "y", **kwargs)
        except (DataError, ConfigError, OSError) as exc:
            result = exc
    return result, not spy.called


def load_reference(path, **kwargs):
    """What the reference loader alone gives for the file."""
    with mock.patch.object(data, "_read_plain", return_value=None):
        return load_traced(path, **kwargs)[0]


def assert_same_load(got, want):
    """Equal datasets to the bit (-0.0 included, row-major), or errors of
    the same type and message."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, Dataset), got
    assert got.features.flags.c_contiguous and want.features.flags.c_contiguous
    assert got.features.tobytes() == want.features.tobytes()
    assert got.responses.tobytes() == want.responses.tobytes()
    assert (got.column_names, got.categories, got.response_name) == (
        want.column_names, want.categories, want.response_name)


def check_against_oracle(path, columns, forced):
    """load_dataset of a written table against the per-cell oracle; returns
    whether the fast path read the file."""
    *features, y = columns
    names = [f"c{j}" for j in range(len(features))]
    overrides = {names[j]: "numeric" for j in forced}
    result, fast = load_traced(path, schema_overrides=overrides)

    empty = next(((r, c) for r, row in enumerate(zip(*columns)) for c, cell in enumerate(row) if cell == ""), None)
    bad_y = first_non_real(y)
    bad_forced = [(names[j], first_non_real(features[j])) for j in sorted(forced)]
    bad_forced = [(name, row) for name, row in bad_forced if row is not None]
    if empty is not None:
        assert type(result) is MissingValue
        assert (result.row, result.column) == (empty[0], (names + ["y"])[empty[1]])
        return fast
    if bad_y is not None or bad_forced:
        error, (column, row) = (
            (NonNumericResponse, ("y", bad_y)) if bad_y is not None else (NonNumericValue, bad_forced[0])
        )
        assert type(result) is error
        assert (result.column, result.row) == (column, row)
        return fast

    ds = result
    assert isinstance(ds, Dataset), ds
    # Row-major like the table: BLAS reductions over the features (GKW) round
    # differently on another layout.
    assert ds.features.flags.c_contiguous
    # bitwise, so that -0.0 and 0.0 differ
    assert ds.responses.tobytes() == np.array([float(c) for c in y]).tobytes()
    for j, cells in enumerate(features):
        kind, column, categories = infer_column(cells)
        assert ds.categorical[j] == (kind == "categorical")
        assert ds.categories[j] == categories
        assert ds.features[:, j].tobytes() == column.tobytes()
    return fast


PLAIN_BYTES = set("0123456789.eE+-,\n")


def plain_real(cell):
    """Whether the fast path takes this cell: plain bytes and a finite real."""
    return set(cell) <= PLAIN_BYTES and finite_real(cell) is not None


@pytest.mark.parametrize("terminator", ["\r\n", "\n"], ids=["crlf", "lf"])
@settings(max_examples=300, deadline=None)
@given(table=csv_tables())
def test_loader_matches_per_cell_oracle(tmp_path_factory, terminator, table):
    columns, forced = table
    path = write_columns(tmp_path_factory.mktemp("csv") / "t.csv", columns, terminator)
    fast = check_against_oracle(path, columns, forced)
    assert fast == (terminator == "\n" and all(plain_real(cell) for cells in columns for cell in cells))


# Cells of the fast path's bytes: tokens float() accepts as finite reals,
# and tokens it rejects or reads as infinite, or that are missing.
PLAIN_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**9, 10**9).map(str),
    st.sampled_from(["-0", "-0.0", "+0", "00", "1.", ".5", "+7", "1E+05", "1e-400", "-5e-324",
                     "1e308", "9" * 300, "0" * 399 + "1", "0." + "1" * 400]),
)
PLAIN_REJECTED = st.sampled_from(["1e", "e5", ".", "+-1", "", "1e400", "-1e400", "-", "1-2", "1..2",
                                  "1e5e5", "1.2.3", "9" * 400])


@st.composite
def plain_tables(draw):
    """Columns of plain cells (the last one is the response) and a set of
    feature columns forced numeric.  Half the tables hold only finite reals
    and must take the fast path; the other half hold one to three rejected
    cells among them and must fall back."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    columns = [draw(st.lists(PLAIN_REALS, min_size=n, max_size=n)) for _ in range(d + 1)]
    rejected = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3)) if rejected else 0):
        columns[draw(st.integers(0, d))][draw(st.integers(0, n - 1))] = draw(PLAIN_REJECTED)
    return columns, draw(st.sets(st.integers(0, d - 1))), rejected


@settings(max_examples=300, deadline=None)
@given(table=plain_tables())
def test_plain_loader_matches_per_cell_oracle(tmp_path_factory, table):
    columns, forced, rejected = table
    assert all(plain_real(cell) for cells in columns for cell in cells) != rejected
    path = write_columns(tmp_path_factory.mktemp("csv") / "t.csv", columns, "\n")
    assert check_against_oracle(path, columns, forced) != rejected


CATEGORICAL_X = {"x": "categorical"}
LIMIT = csv.field_size_limit()
LONG_HEADER = b"h" * 140_000 + b",y\n0,1\n1,2\n"
LONG_CELL = b"x,y\n" + b"a" * 140_000 + b",1\n1,2\n"


@pytest.mark.parametrize("content, kwargs, fast, want", [
    (b"a,y\n1,2\n\n3,4\n", {}, False, DataError),
    (b"a,y\n\n1,2\n", {}, False, DataError),
    (b"\na,y\n1,2\n", {}, False, DataError),
    (b"a,y\n", {}, False, EmptyDataset),
    (b"a,y", {}, False, EmptyDataset),
    (b"a,b,y\n1,2\n3,4\n", {}, False, DataError),
    (b"a,y\n1,2,\n3,4,\n", {}, False, DataError),
    (b"a,b,y\n1,,3\n", {}, False, MissingValue),
    (b"a,y\n#,1\n2,3\n", {}, False, Dataset),
    (b'"a",y\n1,2\n', {}, False, Dataset),
    ("\ufeffa,y\n1,2\n".encode("utf-8"), {}, True, Dataset),
    (b"\xffa,y\n1,2\n", {}, False, DataError),
    (b"a,y\r\n1,2\r\n", {}, False, Dataset),
    (b"a,b,y\n1,2,3\n", {}, True, Dataset),
    (b"a,y\n1,2\n-0,3\n", {}, True, Dataset),
    (b"y\n1\n2\n", {}, True, EmptyDataset),
    (b"a,a,y\n1,2,3\n", {}, False, DataError),
    (b"a,y\n1e400,1\n2,3\n", {}, False, Dataset),
    (b"x,y\n0,1\n1,2\n0,3\n", {"schema_overrides": CATEGORICAL_X}, False, Dataset),
    (b"x,y\n0,1\n1,2\n0,3\n", {"schema_overrides": {"x": "numeric"}}, True, Dataset),
    (LONG_HEADER, {}, False, DataError),
    (b"h" * LIMIT + b",y\n0,1\n1,2\n", {}, True, Dataset),
    (b"x,y\n" + b"0" * 140_000 + b",1\n1,2\n", {}, False, DataError),
    (LONG_CELL, {}, False, DataError),
], ids=["blank-line", "leading-blank-line", "blank-header", "only-header", "only-header-no-newline",
        "same-wrong-width", "trailing-comma", "empty-cell", "hash-cell", "quoted-header", "bom-header",
        "non-utf8-header", "crlf", "single-row", "single-feature", "response-only", "duplicate-names",
        "overflow-cell", "schema-categorical", "schema-numeric", "long-header-name",
        "header-name-at-field-limit", "long-plain-cell", "long-cell"])
def test_fast_path_guard_cases(tmp_path, content, kwargs, fast, want):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    got, took_fast = load_traced(path, **kwargs)
    assert took_fast == fast
    assert type(got) is want
    assert_same_load(got, load_reference(path, **kwargs))


@pytest.mark.parametrize("text, fast, names", [
    ("\ufeffy,x1,x2\n1,2,3\n4,5,6\n", True, ("x1", "x2")),
    ("\ufeffx1,y,x2\n1,2,3\n4,5,6\n", True, ("x1", "x2")),
    ("\ufeffx1,y,x2\na,2,3\nb,5,6\n", False, ("x1", "x2")),
    ("\ufeff\ufeffx1,y\n1,2\n", True, ("\ufeffx1",)),
], ids=["before-response", "before-feature", "before-feature-not-plain", "second-mark-kept"])
def test_one_leading_byte_order_mark_is_dropped(tmp_path, text, fast, names):
    """Both loaders drop one leading UTF-8 byte-order mark, so it joins no
    column name, and ``--response y`` finds the response it precedes."""
    path = write(tmp_path / "d.csv", text)
    got, took_fast = load_traced(path)
    assert took_fast == fast
    assert (got.column_names, got.response_name) == (names, "y")
    assert_same_load(got, load_reference(path))
    assert main(["attribute", "--data", str(path), "--response", "y", "--method", "igcs",
                 "--targets", "0", "--out", str(tmp_path / "a.jsonl")]) == 0


@pytest.mark.parametrize("content, line", [(LONG_HEADER, 1), (LONG_CELL, 2)], ids=["long-header", "long-cell"])
def test_field_over_the_csv_limit_exits_3(tmp_path, capsys, content, line):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    assert main(["attribute", "--data", str(path), "--response", "y", "--method", "igcs",
                 "--targets", "0", "--out", str(tmp_path / "a.jsonl")]) == 3
    (err_line,) = capsys.readouterr().err.splitlines()
    assert json.loads(err_line) == {
        "error": "DataError", "message": f"{path}: line {line}: field larger than field limit ({LIMIT})"}


def test_decode_errors_report_the_file_offset(tmp_path, capsys):
    """Past the first 8 KB, a bad byte is reported at its index in the file,
    in the data, an attribution file and the similarity config alike."""
    good = write(tmp_path / "good.csv", "x,y\n0,1\n1,2\n")
    bad_csv, bad_attr, bad_cfg = tmp_path / "bad.csv", tmp_path / "bad.jsonl", tmp_path / "bad.cfg"
    for path, content, offset in [(bad_csv, b"x,y\n" + b"0,1\n" * 6000, 20004), (bad_attr, b"\n" * 30_000, 24042),
                                  (bad_cfg, b"# comment\n" * 1000, 9003)]:
        path.write_bytes(content[:offset] + b"\xff" + content[offset + 1 :])
    for path, offset, code, args in [
        (bad_csv, 20004, 3, ["attribute", "--data", str(bad_csv), "--method", "igcs"]),
        (bad_attr, 24042, 3, ["evaluate", "--data", str(good), "--attributions", str(bad_attr)]),
        (bad_cfg, 9003, 2, ["attribute", "--data", str(good), "--config", str(bad_cfg), "--method", "igcs"]),
    ]:
        assert main([*args, "--response", "y", "--out", str(tmp_path / "out")]) == code
        (err_line,) = capsys.readouterr().err.splitlines()
        assert json.loads(err_line)["message"] == f"{path}: not UTF-8 (invalid start byte at byte {offset})"


def test_missing_file_is_the_same_os_error_on_both_paths(tmp_path):
    path = tmp_path / "nope.csv"
    got, _ = load_traced(path)
    want = load_reference(path)
    assert type(got) is FileNotFoundError and str(got) == str(want)
    assert main(["attribute", "--data", str(path), "--response", "y", "--method", "igcs",
                 "--targets", "0", "--out", str(tmp_path / "x.jsonl")]) == 3


def test_benchmark_sparse_csv_takes_the_fast_path(tmp_path):
    """The benchmark's wide 0/1 CSV must not fall back silently: the fast
    path is its whole load-time gain."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(workloads)
    inputs = workloads.gen_sparse(3, {"n": 40, "d": 64, "k": 5}, str(tmp_path / "sparse.csv"))
    got, fast = load_traced(inputs.csv)
    assert fast
    assert got.responses.tobytes() == inputs.response.tobytes()
    assert_same_load(got, load_reference(inputs.csv))


@pytest.mark.parametrize("rows, error, fault", [
    (["1,2,3", "1,2", "1,,3"], DataError, "row 1 has 2 fields, expected 3"),
    (["1,2,3", "1,,3", "1,2"], MissingValue, (1, "b")),
    (["1,2,3", "4,5,6", "1,2,3,4"], DataError, "row 2 has 4 fields, expected 3"),
    (["1,2,3", ",,3"], MissingValue, (1, "a")),
    (["1,2,3", "1,,"], MissingValue, (1, "b")),
    (['1,"",3'], MissingValue, (0, "b")),
    (["1,2,abc", "1,,3"], MissingValue, (1, "b")),
], ids=["short-row-first", "empty-cell-first", "long-row", "leftmost-of-two-empty",
        "leftmost-of-two-empty-right", "quoted-empty", "empty-before-non-numeric"])
def test_load_reports_first_fault_in_row_major_order(tmp_path, rows, error, fault):
    path = write(tmp_path / "d.csv", "\n".join(["a,b,y", *rows]) + "\n")
    with pytest.raises(DataError) as info:
        load_dataset(path, "y")
    assert type(info.value) is error
    if error is MissingValue:
        assert (info.value.row, info.value.column) == fault
    else:
        assert str(info.value) == f"{path}: {fault}"


def test_feature_ranges():
    ds = make_dataset([[0.0], [5.0], [10.0]], [0, 0, 0])
    np.testing.assert_array_equal(ds.ranges, [10.0])
    const = make_dataset([[7.0], [7.0], [7.0]], [0, 0, 0])
    np.testing.assert_array_equal(const.ranges, [0.0])
    two = make_dataset([[0.0, 1.0], [2.0, 3.0]], [0, 0])
    np.testing.assert_array_equal(two.ranges, [2.0, 2.0])
    cat = make_dataset([[0.0], [3.0]], [0, 0], kinds=("categorical",))
    np.testing.assert_array_equal(cat.ranges, [0.0])


def test_dataset_immutability():
    ds = make_dataset([[1.0, 2.0]], [3.0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.responses[0] = 9.0


def test_dataset_compares_by_identity():
    # field-wise equality would compare the arrays and raise ValueError
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])
    copy = dataclasses.replace(ds)
    assert (ds == copy) is False and ds != copy
    assert ds == ds
    assert len({ds, copy}) == 2


def test_dataset_validation():
    with pytest.raises(EmptyDataset):
        Dataset(
            features=np.empty((0, 2)),
            responses=np.empty(0),
            column_names=("a", "b"),
            categories=(None, None),
        )


def test_dataset_kinds_follow_the_labels():
    """A column's kind is stated once, by its labels: None makes it numeric
    and labels make it categorical.  Codes that are not integers in
    [0, len(labels)) and repeated labels are a DataError, so every dataset
    built can be summarized."""
    def build(column, labels):
        return Dataset(features=np.array(column, dtype=float)[:, np.newaxis], responses=np.zeros(len(column)),
                       column_names=("c",), categories=(labels,))

    numeric = build([2.0, 0.5], None)
    assert not numeric.categorical.any()
    labelled = build([1.0, 0.0, 1.0], ("red", "blue"))
    assert labelled.categorical.all()
    for ds, detail in ((numeric, "numeric range=1.5"), (labelled, "categorical levels=2")):
        assert dataset_summary(ds).splitlines()[1].split() == ["c", *detail.split()]
    for column, labels in [
        ([0.0, 2.0], ("a", "b")),  # past the last label
        ([-1.0], ("a",)),
        ([0.5], ("a", "b")),
        ([0.0], ()),
        ([0.0, 1.0], ("a", "a")),  # a repeated label
    ]:
        with pytest.raises(DataError, match="categorical column 'c'"):
            build(column, labels)


def test_rule_validation():
    with pytest.raises(ConfigError):
        RelativeRange(0.0)
    with pytest.raises(ConfigError):
        RelativeRange(1.5)
    with pytest.raises(ConfigError):
        AbsoluteRange(-1.0)
    assert RelativeRange(1.0).delta == 1.0
    assert AbsoluteRange(0.0).width == 0.0


def test_make_similarity_spec():
    ds = make_dataset(
        [[0.0, 1.0], [1.0, 0.0]], [0, 0],
        kinds=("numeric", "categorical"),
    )
    spec = make_similarity_spec(ds)
    assert spec.rules == (RelativeRange(0.1), Equality())
    spec2 = make_similarity_spec(ds, overrides={"x1": AbsoluteRange(2.0)})
    assert spec2.rules[0] == AbsoluteRange(2.0)
    with pytest.raises(ConfigError):
        make_similarity_spec(ds, overrides={"x2": RelativeRange(0.1)})
    with pytest.raises(MissingColumn, match="'nope'"):  # the first unknown name in sorted order
        make_similarity_spec(ds, overrides={"zz": Equality(), "nope": Equality()})


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(
    st.just(Equality()),
    st.floats(0.0, 1.0, exclude_min=True).map(RelativeRange),
    st.floats(0.0).map(AbsoluteRange),
))
def test_rule_token_round_trips(rule):
    assert parse_rule(rule.token()) == rule


def test_parse_rule_and_config():
    assert parse_rule("equality") == Equality()
    assert parse_rule("relative:0.2") == RelativeRange(0.2)
    assert parse_rule("absolute:1.5") == AbsoluteRange(1.5)
    with pytest.raises(ConfigError):
        parse_rule("fuzzy:1")
    with pytest.raises(ConfigError):
        parse_rule("relative:abc")

    default, overrides = parse_similarity_config(
        "# comment\n\nsimilarity.default = relative:0.2\nsimilarity.a = equality\n"
    )
    assert default == RelativeRange(0.2)
    assert overrides == {"a": Equality()}
    with pytest.raises(ConfigError):
        parse_similarity_config("similarity.a equality\n")
    with pytest.raises(ConfigError):
        parse_similarity_config("other.key = equality\n")


def test_dataset_summary_mentions_shape():
    ds = make_dataset([[1.0], [2.0]], [0, 0])
    text = dataset_summary(ds)
    assert "n=2" in text and "d=1" in text and "x1" in text
