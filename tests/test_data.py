import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortexplain import (
    AbsoluteRange,
    AbsResidual,
    ColumnKind,
    ConfigError,
    Dataset,
    EmptyDataset,
    Equality,
    MissingColumn,
    MissingValue,
    NonNumericResponse,
    NonNumericValue,
    RelativeRange,
    Residual,
    SquaredResidual,
    dataset_summary,
    feature_ranges,
    load_dataset,
    make_similarity_spec,
    save_dataset,
)
from cohortexplain.data import parse_rule, parse_similarity_config

from conftest import make_dataset
from oracles import first_non_real, infer_column


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
    assert all(kind is ColumnKind.NUMERIC for kind in ds.kinds)


def test_residual_modes(tmp_path):
    path = write(tmp_path / "d.csv", "a,y,pred\n0,1,1\n0,2,1\n0,3,1\n")
    residual = load_dataset(path, "y", Residual("pred"))
    np.testing.assert_array_equal(residual.responses, [0.0, 1.0, 2.0])
    assert residual.column_names == ("a",)

    path2 = write(tmp_path / "d2.csv", "a,y,pred\n0,1,3\n0,2,3\n0,5,3\n")
    absres = load_dataset(path2, "y", AbsResidual("pred"))
    np.testing.assert_array_equal(absres.responses, [2.0, 1.0, 2.0])
    sqres = load_dataset(path2, "y", SquaredResidual("pred"))
    np.testing.assert_array_equal(sqres.responses, [4.0, 1.0, 4.0])


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
        load_dataset(path, "y", Residual("pred"))
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
    assert ds.kinds == (ColumnKind.CATEGORICAL,)
    assert ds.categories[0] == ("red", "blue", "green")
    np.testing.assert_array_equal(ds.features[:, 0], [0, 1, 0, 2])


def test_schema_override_wins(tmp_path):
    path = write(tmp_path / "d.csv", "code,y\n1,1\n2,2\n1,3\n")
    inferred = load_dataset(path, "y")
    assert inferred.kinds == (ColumnKind.NUMERIC,)
    forced = load_dataset(path, "y", schema_overrides={"code": ColumnKind.CATEGORICAL})
    assert forced.kinds == (ColumnKind.CATEGORICAL,)
    assert forced.categories[0] == ("1", "2")

    bad = write(tmp_path / "b.csv", "code,y\nabc,1\n")
    with pytest.raises(NonNumericValue):
        load_dataset(bad, "y", schema_overrides={"code": ColumnKind.NUMERIC})


def test_non_finite_tokens_are_not_numeric(tmp_path):
    path = write(tmp_path / "d.csv", "a,y\nnan,1\n2,2\n")
    ds = load_dataset(path, "y")
    assert ds.kinds == (ColumnKind.CATEGORICAL,)


NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1 ", "1_0", "+7", ".5", "1.", "-0", "1E3", "\uff11"]),
)
ANY_CELLS = st.one_of(
    NUMERIC_CELLS,
    st.sampled_from(["1e400", "-1e400", "nan", "NaN", "inf", "-Infinity", "0x10", "1,5",
                     '"3"', "1__0", " ", "abc", "\u00e9"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            min_size=1, max_size=6),
)


@st.composite
def csv_tables(draw):
    """Columns of string cells (the last one is the response) and a set of
    feature columns forced numeric."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    columns = [draw(st.lists(draw(st.sampled_from([NUMERIC_CELLS, ANY_CELLS])), min_size=n, max_size=n))
               for _ in range(d + 1)]
    return columns, draw(st.sets(st.integers(0, d - 1)))


@settings(max_examples=150, deadline=None)
@given(table=csv_tables())
def test_loader_matches_per_cell_oracle(tmp_path_factory, table):
    columns, forced = table
    *features, y = columns
    names = [f"c{j}" for j in range(len(features))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # "\r\n" rows, so that cells holding "\r" or "\n" are quoted
        writer.writerow(names + ["y"])
        writer.writerows(zip(*columns))
    overrides = {names[j]: ColumnKind.NUMERIC for j in forced}

    bad_y = first_non_real(y)
    bad_forced = [(names[j], first_non_real(features[j])) for j in sorted(forced)]
    bad_forced = [(name, row) for name, row in bad_forced if row is not None]
    if bad_y is not None or bad_forced:
        error, (column, row) = (
            (NonNumericResponse, ("y", bad_y)) if bad_y is not None else (NonNumericValue, bad_forced[0])
        )
        with pytest.raises(error) as info:
            load_dataset(path, "y", schema_overrides=overrides)
        assert (info.value.column, info.value.row) == (column, row)
        return

    ds = load_dataset(path, "y", schema_overrides=overrides)
    np.testing.assert_array_equal(ds.responses, [float(c) for c in y])
    for j, cells in enumerate(features):
        kind, column, categories = infer_column(cells)
        assert ds.kinds[j].value == kind
        assert ds.categories[j] == categories
        np.testing.assert_array_equal(ds.features[:, j], column)


def test_feature_ranges():
    ds = make_dataset([[0.0], [5.0], [10.0]], [0, 0, 0])
    np.testing.assert_array_equal(feature_ranges(ds), [10.0])
    const = make_dataset([[7.0], [7.0], [7.0]], [0, 0, 0])
    np.testing.assert_array_equal(feature_ranges(const), [0.0])
    two = make_dataset([[0.0, 1.0], [2.0, 3.0]], [0, 0])
    np.testing.assert_array_equal(feature_ranges(two), [2.0, 2.0])
    cat = make_dataset([[0.0], [3.0]], [0, 0], kinds=(ColumnKind.CATEGORICAL,))
    np.testing.assert_array_equal(feature_ranges(cat), [0.0])


def test_round_trip(tmp_path):
    path = write(
        tmp_path / "d.csv",
        "a,color,y\n0.1,red,1.5\n-2.25,blue,2\n0.1,red,-3e-4\n",
    )
    ds = load_dataset(path, "y")
    out = tmp_path / "out.csv"
    save_dataset(ds, out)
    again = load_dataset(out, "y")
    np.testing.assert_array_equal(ds.features, again.features)
    np.testing.assert_array_equal(ds.responses, again.responses)
    assert ds.column_names == again.column_names
    assert ds.kinds == again.kinds
    assert ds.categories == again.categories


def test_residual_round_trip_reloads_raw(tmp_path):
    path = write(tmp_path / "d.csv", "a,y,pred\n1,1,4\n2,2,4\n")
    ds = load_dataset(path, "y", Residual("pred"))
    out = tmp_path / "out.csv"
    save_dataset(ds, out)
    again = load_dataset(out, "y")
    np.testing.assert_array_equal(again.responses, ds.responses)
    np.testing.assert_array_equal(again.features, ds.features)


def test_dataset_immutability():
    ds = make_dataset([[1.0, 2.0]], [3.0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.responses[0] = 9.0


def test_dataset_validation():
    with pytest.raises(EmptyDataset):
        Dataset(
            features=np.empty((0, 2)),
            responses=np.empty(0),
            column_names=("a", "b"),
            kinds=(ColumnKind.NUMERIC,) * 2,
            categories=(None, None),
        )


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
        kinds=(ColumnKind.NUMERIC, ColumnKind.CATEGORICAL),
    )
    spec = make_similarity_spec(ds)
    assert spec.rules == (RelativeRange(0.1), Equality())
    spec2 = make_similarity_spec(ds, overrides={"x1": AbsoluteRange(2.0)})
    assert spec2.rules[0] == AbsoluteRange(2.0)
    with pytest.raises(ConfigError):
        make_similarity_spec(ds, overrides={"x2": RelativeRange(0.1)})
    with pytest.raises(ConfigError):
        make_similarity_spec(ds, overrides={"nope": Equality()})


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
