import argparse
import csv
import inspect
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortexplain import Attribution, ConfigError, cli, load_dataset, make_similarity_spec
from cohortexplain.cli import main

D3_CSV = "x1,x2,y\n0,0,1\n0,1,2\n1,1,3\n"


def run(*argv):
    return main(list(argv))


def write_d3(tmp_path):
    path = tmp_path / "d3.csv"
    path.write_text(D3_CSV, encoding="utf-8")
    return path


def write_random_binary(tmp_path, rng, n, d, name="data.csv"):
    X = (rng.random((n, d)) < 0.5).astype(int)
    y = rng.normal(size=n) + X[:, 0]
    lines = [",".join([f"x{j}" for j in range(d)] + ["y"])]
    for i in range(n):
        lines.append(",".join(str(v) for v in X[i]) + f",{float(y[i])!r}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_attribution(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def d3_args(data):
    return ["--data", str(data), "--response", "y",
            "--similarity", "x1=equality", "--similarity", "x2=equality"]


def test_attribute_igcs_d3(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "a.jsonl"
    code = run("attribute", *d3_args(data), "--method", "igcs",
               "--steps", "1000", "--targets", "0", "--out", str(out))
    assert code == 0
    header, records = read_attribution(out)
    assert header["schema"] == "cohortexplain.attribution/1"
    assert header["method"] == "igcs" and header["steps"] == 1000
    (record,) = records
    assert record["values"]["x1"] == pytest.approx(-1 / 3, abs=1e-5)
    assert record["values"]["x2"] == pytest.approx(-2 / 3, abs=1e-5)
    assert record["nu_empty"] == 2.0 and record["nu_full"] == 1.0


def test_attribute_random_is_rank_surrogate(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "r.jsonl"
    assert run("attribute", *d3_args(data), "--method", "random",
               "--seed", "3", "--targets", "all", "--out", str(out)) == 0
    _, records = read_attribution(out)
    assert len(records) == 3
    for record in records:
        values = sorted(record["values"].values())
        assert values == [1.0, 2.0]  # a permutation of d..1


def test_attribute_cap_enforced(tmp_path, capsys):
    """d above the lattice cap of 30 is refused before anything is
    allocated, on any machine (a 2^30 table could fit on a large one)."""
    rng = np.random.default_rng(0)
    data = write_random_binary(tmp_path, rng, n=8, d=31)
    out = tmp_path / "x.jsonl"
    code = run("attribute", "--data", str(data), "--response", "y",
               "--method", "cs-exact", "--targets", "0", "--out", str(out))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DimensionTooLarge"


def test_exact_methods_are_marked_lattice():
    assert {name for name, m in cli.METHODS.items() if m.lattice} == {"cs-exact", "gkw", "uniqueness"}


@pytest.mark.parametrize("command", [["attribute", "--method"], ["compare", "--methods"]])
@pytest.mark.parametrize("method", ["cs-exact", "uniqueness"])
def test_exact_memory_bound_counts_workers(tmp_path, capsys, monkeypatch, command, method):
    """Each worker of an exact method holds up to EXACT_TABLES 2^d tables:
    with room for one worker's tables, two workers are refused (exit 4, one
    JSON line) before a 2^d table is allocated, and one worker runs."""
    import tracemalloc

    from cohortexplain import shapley

    d = 16
    data = write_random_binary(tmp_path, np.random.default_rng(0), n=20, d=d)
    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: shapley.EXACT_TABLES * 8 << d)
    argv = [*command, method, "--data", str(data), "--response", "y", "--targets", "0-1",
            "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert run(*argv, "--threads", "2") == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << d  # one 2^16 table is 512 KiB
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ComputationError"
    assert "2 worker(s)" in err["message"] and "--threads" in err["message"]
    assert run(*argv, "--threads", "1") == 0


def test_attribute_memory_bound_exit_code(tmp_path, capsys, monkeypatch):
    from cohortexplain import shapley

    rng = np.random.default_rng(0)
    data = write_random_binary(tmp_path, rng, n=8, d=12)
    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: 1 << 16)  # d=12 needs 192 KiB
    out = tmp_path / "x.jsonl"
    code = run("attribute", "--data", str(data), "--response", "y",
               "--method", "cs-exact", "--targets", "0", "--out", str(out))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ComputationError" and "physical memory" in err["message"]


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 MiB for an array", ""])
def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, message):
    """An allocation that fails is exit 4 with the one JSON line, not a
    traceback; the engine is made to raise, nothing is allocated to find a
    limit."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "exact_shapley", out_of_memory)
    data = write_d3(tmp_path)
    assert run("attribute", *d3_args(data), "--method", "cs-exact", "--targets", "0",
               "--out", str(tmp_path / "x.jsonl")) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "MemoryError", "message": message or "out of memory"}


def test_igcs_memory_bound_exit_code(tmp_path, capsys, monkeypatch):
    """IGCS refuses steps whose R x K tables exceed physical memory before
    allocating them, from attribute and compare alike."""
    from cohortexplain import shapley

    data = write_d3(tmp_path)
    for command in (["attribute", "--method", "igcs"], ["compare", "--methods", "igcs"]):
        assert run(*command, *d3_args(data), "--steps", str(10**20), "--targets", "0",
                   "--out", str(tmp_path / "out")) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ComputationError" and "physical memory" in err["message"]
    monkeypatch.setattr(shapley, "physical_memory_bytes", lambda: 1 << 16)  # 3 x 8 x R x K bytes
    for steps, code in (("1000", 4), ("50", 0)):
        assert run("attribute", *d3_args(data), "--method", "igcs", "--steps", steps, "--targets", "0",
                   "--out", str(tmp_path / "out")) == code


def test_attribute_param_validation(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "x.jsonl"
    assert run("attribute", *d3_args(data), "--method", "igcs",
               "--samples", "5", "--targets", "0", "--out", str(out)) == 2
    assert run("attribute", *d3_args(data), "--method", "cs-exact",
               "--sigma", "0.5", "--targets", "0", "--out", str(out)) == 2
    assert run("attribute", *d3_args(data), "--method", "cs-exact",
               "--threads", "0", "--targets", "0", "--out", str(out)) == 2
    assert run("attribute", *d3_args(data), "--method", "gkw",
               "--sigma", "1e-200", "--targets", "0", "--out", str(out)) == 2  # 2 sigma^2 underflows


def test_defaults_are_the_library_defaults():
    """The CLI's method defaults are read from the library, not copied."""
    from cohortexplain import GkwValue, igcs_attribution, mc_shapley

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert cli.DEFAULTS["steps"] == default(igcs_attribution, "steps")
    assert cli.DEFAULTS["sigma"] == default(GkwValue, "sigma")
    assert cli.DEFAULTS["seed"] == default(mc_shapley, "seed")


@pytest.mark.parametrize("options", [
    "attribute --method cs-mc --seed -1 --out OUT",
    "attribute --method random --seed -1 --out OUT",
    "compare --methods cs-mc --seed -1 --out OUT",
    "diagnose --seed -1 --out OUT",
    "attribute --method igcs --steps 0 --out OUT",
    "compare --methods igcs --steps 0 --out OUT",
    "attribute --method igcs --steps abc --out OUT",
    "compare --methods igcs --steps 5,x --out OUT",
    "attribute --method igcs --threads 0 --out OUT",
    "similarity --target 0 --threads 2 --out OUT",  # only the commands that map targets take --threads
    "attribute --method cs-exact --cap 0 --out OUT",  # --cap is no option of any command
    "compare --methods cs-exact --cap -1 --out OUT",
    "diagnose --samples 0 --out OUT",
    "attribute --method bogus --out OUT",
    "attribute --method igcs",  # no --out
    "attribute --method igcs --cap 5 --out OUT",  # a method option igcs does not read
    "compare --methods igcs,cs-mc --cap 5 --out OUT",
])
def test_malformed_option_prints_one_json_line(tmp_path, capsys, options):
    """Every bad flag, whether argparse or a bound refuses it, exits 2 with
    the one JSON error line of FORMATS.md and no usage text or traceback."""
    command, *rest = options.split()
    rest = [str(tmp_path / "out") if o == "OUT" else o for o in rest]
    assert run(command, *d3_args(write_d3(tmp_path)), *rest) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


@pytest.mark.parametrize("options", [
    "--schema nope=categorical",
    "--response nope",
    "--response-mode residual:nope",
    "--similarity nope=equality",
    "--config CONFIG",
])
def test_missing_column_is_a_config_error(tmp_path, capsys, options):
    """A column that the header lacks exits 2 whichever option names it."""
    config = tmp_path / "similarity.cfg"
    config.write_text("similarity.nope = equality\n", encoding="utf-8")
    args = ["--data", str(write_d3(tmp_path)), "--response", "y"]
    args += [str(config) if o == "CONFIG" else o for o in options.split()]
    assert run("attribute", *args, "--method", "cs-exact", "--targets", "0",
               "--out", str(tmp_path / "out")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "MissingColumn", "message": "column 'nope' not found in header"}


def test_byte_identical_reruns(tmp_path):
    """A seeded method writes the same bytes on every run, and another
    ``--seed`` draws other values."""
    data = write_d3(tmp_path)
    for method in (["cs-mc", "--samples", "50"], ["random"]):
        outs = [tmp_path / f"{name}.jsonl" for name in ("a", "b", "other")]
        for out, seed in zip(outs, ("9", "9", "10")):
            assert run("attribute", *d3_args(data), "--method", *method,
                       "--seed", seed, "--targets", "all", "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        values = [[r["values"] for r in read_attribution(out)[1]] for out in (outs[0], outs[2])]
        assert values[0] != values[1]


def _blank_timing(text: str) -> str:
    """compare's table with its wall-clock column blanked, as the bench's
    digest blanks it: every line after the config and header lines."""
    lines = text.split("\n")
    return "\n".join(lines[:2] + [line.rsplit(",", 1)[0] for line in lines[2:]])


def test_threads_do_not_change_output(tmp_path):
    """Every command that maps targets writes the same bytes on 1, 2 and 4
    workers (compare's seconds column aside)."""
    rng = np.random.default_rng(1)
    data = write_random_binary(tmp_path, rng, n=30, d=8)
    dataset = ["--data", str(data), "--response", "y"]
    common = [*dataset, "--targets", "all"]
    seen = {}
    for threads in ("1", "2", "4"):
        (tmp_path / threads).mkdir()
        out = {name: tmp_path / threads / name for name in ("igcs", "mc", "abc", "diag", "cmp")}
        for name, argv in (("igcs", ["attribute", *common, "--method", "igcs"]),
                           ("mc", ["attribute", *common, "--method", "cs-mc", "--samples", "20"]),
                           ("abc", ["evaluate", *dataset, "--attributions", str(out["igcs"]), str(out["mc"])]),
                           ("diag", ["diagnose", *common, "--samples", "50"]),
                           ("cmp", ["compare", *common, "--methods", "igcs,cs-mc,random", "--samples", "20"])):
            assert run(*argv, "--threads", threads, "--out", str(out[name])) == 0
        # evaluate's header names its attribution files, whose folder differs
        texts = {name: path.read_text(encoding="utf-8").replace(str(tmp_path / threads), "")
                 for name, path in out.items()}
        texts["cmp"] = _blank_timing(texts["cmp"])
        seen[threads] = texts
    assert seen["1"] == seen["2"] == seen["4"]


def test_evaluate_d3(tmp_path):
    data = write_d3(tmp_path)
    attr = tmp_path / "cs.jsonl"
    assert run("attribute", *d3_args(data), "--method", "cs-exact",
               "--targets", "0", "--out", str(attr)) == 0
    out = tmp_path / "abc.csv"
    assert run("evaluate", *d3_args(data), "--attributions", str(attr),
               "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["source", "method", "row", "target_index", "abc_insertion", "abc_deletion"]
    target_row = rows[1]
    assert target_row[2] == "target" and target_row[3] == "0"
    assert float(target_row[4]) == 0.0 and float(target_row[5]) == 0.5


def test_evaluate_single_feature_all_zero(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x,y\n0,1\n1,2\n0,3\n", encoding="utf-8")
    attr = tmp_path / "a.jsonl"
    assert run("attribute", "--data", str(path), "--response", "y",
               "--similarity", "x=equality", "--method", "cs-exact",
               "--targets", "all", "--out", str(attr)) == 0
    out = tmp_path / "abc.csv"
    assert run("evaluate", "--data", str(path), "--response", "y",
               "--similarity", "x=equality", "--attributions", str(attr),
               "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    for row in rows[1:]:
        if row[2] == "target":
            assert float(row[4]) == 0.0 and float(row[5]) == 0.0


def test_evaluate_random_zero_sum(tmp_path):
    rng = np.random.default_rng(2)
    data = write_random_binary(tmp_path, rng, n=60, d=6)
    attr = tmp_path / "rand.jsonl"
    assert run("attribute", "--data", str(data), "--response", "y",
               "--method", "random", "--seed", "11", "--targets", "all",
               "--out", str(attr)) == 0
    out = tmp_path / "abc.csv"
    assert run("evaluate", "--data", str(data), "--response", "y",
               "--attributions", str(attr), "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    sums = np.array([
        float(row[4]) + float(row[5]) for row in rows[1:] if row[2] == "target"
    ])
    se = sums.std(ddof=1) / np.sqrt(len(sums))
    assert abs(sums.mean()) <= 3.0 * se + 1e-12


def test_evaluate_dimension_mismatch(tmp_path):
    data = write_d3(tmp_path)
    attr = tmp_path / "cs.jsonl"
    assert run("attribute", *d3_args(data), "--method", "cs-exact",
               "--targets", "0", "--out", str(attr)) == 0
    other = tmp_path / "other.csv"
    other.write_text("a,b,c,y\n0,0,0,1\n1,1,1,2\n", encoding="utf-8")
    out = tmp_path / "abc.csv"
    assert run("evaluate", "--data", str(other), "--response", "y",
               "--attributions", str(attr), "--out", str(out)) == 3


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("line, corrupt", [
    pytest.param(1, lambda h, r: ("{not json", r), id="header-json"),
    pytest.param(2, lambda h, r: (h, json.dumps(r)[:-1]), id="record-json"),
    pytest.param(2, lambda h, r: (h, _without(r, "target_index")), id="no-target-index"),
    pytest.param(2, lambda h, r: (h, {**r, "target_index": 0.5}), id="float-target-index"),
    pytest.param(2, lambda h, r: (h, {**r, "values": [1.0, 2.0]}), id="values-not-object"),
    pytest.param(2, lambda h, r: (h, {**r, "values": {"x1": "high", "x2": 1.0}}), id="non-numeric-value"),
    pytest.param(2, lambda h, r: (h, {**r, "method": ["x"]}), id="method-not-string"),
    pytest.param(2, lambda h, r: (h, {**r, "values": {"x1": float("nan"), "x2": 1.0}}), id="nan-value"),
    pytest.param(2, lambda h, r: (h, {**r, "values": {"x1": 1.0, "x2": float("-inf")}}), id="infinite-value"),
    pytest.param(2, lambda h, r: (h, {**r, "values": {"x1": 10**400, "x2": 1.0}}), id="int-beyond-double"),
    pytest.param(2, lambda h, r: (h, {**r, "values": {"x1": True, "x2": 1.0}}), id="bool-value"),
    pytest.param(2, lambda h, r: (h, "[" * 200_000), id="record-nested-too-deeply"),
    pytest.param(1, lambda h, r: ('{"a":' * 100_000, r), id="header-nested-too-deeply"),
])
def test_evaluate_malformed_attribution_file(tmp_path, capsys, line, corrupt):
    data = write_d3(tmp_path)
    attr = tmp_path / "cs.jsonl"
    assert run("attribute", *d3_args(data), "--method", "cs-exact",
               "--targets", "0", "--out", str(attr)) == 0
    header, (record,) = read_attribution(attr)
    lines = [x if isinstance(x, str) else json.dumps(x) for x in corrupt(header, record)]
    attr.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run("evaluate", *d3_args(data), "--attributions", str(attr),
               "--out", str(tmp_path / "abc.csv")) == 3
    (err_line,) = capsys.readouterr().err.splitlines()
    err = json.loads(err_line)
    assert err["error"] == "DataError"
    assert err["message"].startswith(f"{attr}:{line}: ")


def test_attribution_lines_end_at_crlf_and_bare_cr(tmp_path, capsys):
    """"\\r\\n" and a bare "\\r" each end one line, so a malformed line is
    reported at its number as universal newlines count it."""
    data = write_d3(tmp_path)
    attr = tmp_path / "cs.jsonl"
    assert run("attribute", *d3_args(data), "--method", "cs-exact", "--targets", "0-1", "--out", str(attr)) == 0
    header, records = read_attribution(attr)
    text = "\r".join(json.dumps(x) for x in (header, *records)).replace("\r", "\r\n", 1) + "\r\r\n"
    attr.write_text(text, encoding="utf-8", newline="")  # lines 1-3, then blank line 4
    out = tmp_path / "abc.csv"
    assert run("evaluate", *d3_args(data), "--attributions", str(attr), "--out", str(out)) == 0
    assert [row[3] for row in csv.reader(out.read_text(encoding="utf-8").splitlines()[2:4])] == ["0", "1"]
    attr.write_text(text + "{not json\r", encoding="utf-8", newline="")
    capsys.readouterr()
    assert run("evaluate", *d3_args(data), "--attributions", str(attr), "--out", str(out)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == f"{attr}:5: not valid JSON (Expecting property name enclosed in double quotes)"


@pytest.mark.parametrize("command, option, error", [
    pytest.param("similarity", ["--target", "5"], "TargetOutOfRange", id="target-past-end"),
    pytest.param("similarity", ["--target", "-1"], "TargetOutOfRange", id="target-negative"),
    pytest.param("diagnose", ["--eps", "2"], "EpsOutOfRange", id="eps-above-1"),
    pytest.param("diagnose", ["--eps", "0"], "EpsOutOfRange", id="eps-zero"),
])
def test_out_of_range_argument_is_a_config_error(tmp_path, capsys, command, option, error):
    """An out-of-range row index or eps is a bad flag value: exit 2, as
    ``attribute --targets 5`` is."""
    assert run(command, *d3_args(write_d3(tmp_path)), *option, "--out", str(tmp_path / "out")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == error


SCHEMA_CASES = [
    ("raw", "y=categorical", 2),
    ("residual:p", "p=categorical", 2),
    ("residual:p", "y=numeric", 0),
    ("residual:p", "p=numeric", 0),
]


@pytest.mark.parametrize("mode, schema, code", SCHEMA_CASES)
def test_schema_response_column_must_be_numeric(tmp_path, mode, schema, code):
    data = tmp_path / "p.csv"
    data.write_text("x1,p,y\n0,1,1\n1,2,2\n1,2,3\n", encoding="utf-8")
    assert run("similarity", "--data", str(data), "--response", "y", "--response-mode", mode,
               "--schema", schema, "--target", "0", "--out", str(tmp_path / "s.csv")) == code


@pytest.mark.parametrize("mode, schema, code", SCHEMA_CASES)
def test_schema_token_reaches_the_library(tmp_path, capsys, monkeypatch, mode, schema, code):
    """``--schema COL=KIND`` hands its token to ``load_dataset``: the CLI
    loads the dataset, or prints the error, that the library gives."""
    data = tmp_path / "p.csv"
    data.write_text("x1,p,y\n0,1,1\n1,2,2\n1,2,3\n", encoding="utf-8")
    name, kind = schema.split("=")
    try:
        want = cli.load_dataset(data, "y", mode, {name: kind})
    except ConfigError as exc:
        want = exc
    calls, loaded = [], []
    original = cli.load_dataset

    def spy(*args):
        calls.append(args)
        loaded.append(original(*args))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_dataset", spy)
    assert run("similarity", "--data", str(data), "--response", "y", "--response-mode", mode,
               "--schema", schema, "--target", "0", "--out", str(tmp_path / "s.csv")) == code
    assert calls[0][3] == {name: kind}
    if code:
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": type(want).__name__, "message": str(want)}
        return
    (got,) = loaded
    assert got.features.tobytes() == want.features.tobytes()
    assert got.responses.tobytes() == want.responses.tobytes()
    assert (got.column_names, got.categories, got.response_name) == (
        want.column_names, want.categories, want.response_name)


def test_describe_and_header_of_a_schema_run_are_pinned(tmp_path, capsys):
    """``similarity --describe`` and the attribution header of a run with
    ``--schema`` overrides, byte for byte."""
    data = tmp_path / "k.csv"
    data.write_text("x1,x2,y\n0,0.25,1\n1,1.5,2\n0,0.75,3\n", encoding="utf-8")
    common = ["--data", str(data), "--response", "y", "--schema", "x1=categorical", "--schema", "x2=numeric"]
    assert run("similarity", *common, "--target", "0", "--describe", "--out", str(tmp_path / "s.csv")) == 0
    assert capsys.readouterr().err == (
        "dataset: n=3 rows, d=2 features, response=y\n"
        "  x1  categorical  levels=2\n"
        "  x2  numeric      range=1.25\n"
    )
    out = tmp_path / "a.jsonl"
    assert run("attribute", *common, "--method", "igcs", "--targets", "0", "--out", str(out)) == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == (
        '{"command": "attribute", "d": 2, "data": ' + json.dumps(str(data)) + ', "method": "igcs", "n": 3, '
        '"response": "y", "response_mode": "raw", "schema": "cohortexplain.attribution/1", '
        '"schema_overrides": {"x1": "categorical", "x2": "numeric"}, "similarity_default": "relative:0.1", '
        '"similarity_overrides": {}, "steps": 50, "targets": "0"}'
    )


@pytest.mark.parametrize("route", ["flag", "config"])
def test_similarity_rule_for_the_response_column_is_refused(tmp_path, capsys, route):
    """A rule for the response column exits 2 naming it as the response,
    not as a column that the header lacks."""
    config = tmp_path / "similarity.cfg"
    config.write_text("similarity.y = equality\n", encoding="utf-8")
    option = ["--similarity", "y=equality"] if route == "flag" else ["--config", str(config)]
    assert run("attribute", "--data", str(write_d3(tmp_path)), "--response", "y", *option,
               "--method", "cs-exact", "--targets", "0", "--out", str(tmp_path / "out")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ConfigError", "message": "column 'y' is the response column; it takes no similarity rule"}


@pytest.mark.parametrize("route", ["flag", "config"])
def test_similarity_rule_for_the_prediction_column_is_refused(tmp_path, capsys, route):
    """A rule for the prediction column of a residual mode exits 2 naming
    it as the prediction column, not as a column that the header lacks."""
    data = tmp_path / "pred.csv"
    data.write_text("x1,p,y\n0,0.5,1\n1,1.5,2\n1,2.5,3\n", encoding="utf-8")
    config = tmp_path / "similarity.cfg"
    config.write_text("similarity.p = equality\n", encoding="utf-8")
    option = ["--similarity", "p=equality"] if route == "flag" else ["--config", str(config)]
    assert run("similarity", "--data", str(data), "--response", "y", "--response-mode", "residual:p", *option,
               "--target", "0", "--out", str(tmp_path / "s.csv")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ConfigError", "message": "column 'p' is the prediction column; it takes no similarity rule"}


MINIMAL_ARGV = {
    "attribute": ["--method", "cs-exact", "--targets", "0"],
    "evaluate": ["--attributions", "ATTRIBUTIONS"],
    "compare": ["--methods", "igcs", "--targets", "0"],
    "diagnose": ["--targets", "0", "--samples", "10"],
    "similarity": ["--target", "0"],
}


@pytest.mark.parametrize("command", MINIMAL_ARGV)
def test_every_command_reads_every_option_it_defines(tmp_path, command):
    """Running a command reads every attribute of its parsed namespace, so
    no option is accepted and then ignored."""
    assert {name[len("_cmd_"):] for name in vars(cli) if name.startswith("_cmd_")} == set(MINIMAL_ARGV)
    data = write_d3(tmp_path)
    attributions = tmp_path / "a.jsonl"
    assert run("attribute", *d3_args(data), "--method", "igcs", "--targets", "0", "--out", str(attributions)) == 0
    argv = [str(attributions) if a == "ATTRIBUTIONS" else a for a in MINIMAL_ARGV[command]]
    parsed = cli._build_parser().parse_args([command, *d3_args(data), *argv, "--out", str(tmp_path / "out")])
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = Recorder(**vars(parsed))
    assert args.func(args) == 0
    assert set(vars(parsed)) - reads == set()


#: column names: "x10" sorts before "x2", and non-ASCII ones, one outside the BMP
RECORD_NAMES = ["x2", "x10", "x1", "x02", "Z", "a", "\u00e9", "\u00fc1", "\u03b1", "\u540d\u524d", "\U0001f600"]
FINITE = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def attribution_tables(draw):
    """Column names in a drawn order, then per target the values, nu_empty
    and nu_full of one attribution."""
    order = draw(st.permutations(RECORD_NAMES))
    names = order[: draw(st.integers(1, len(order)))]
    n = draw(st.integers(1, 3))
    attrs = [Attribution(np.array(draw(st.lists(FINITE, min_size=len(names), max_size=len(names)))),
                         draw(FINITE), draw(FINITE)) for _ in range(n)]
    return names, attrs


@settings(max_examples=50, deadline=None, database=None)
@given(attribution_tables())
@example((["x2", "x10", "\u00e9"], [Attribution(np.array([-0.0, 5e-324, 0.1]), 1.0, -2.5)]))
def test_attribution_records_round_trip_bit_for_bit(case):
    """``attribute`` writes each record as ``json.dumps(record,
    sort_keys=True)`` and ``evaluate``'s reader gets every value back with
    the same bits, in column order, whatever the names sort to."""
    names, attrs = case
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        rows = [",".join(["0"] * len(names) + [str(t)]) for t in range(len(attrs))]
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("\n".join([",".join([*names, "y"]), *rows]) + "\n")
        out = os.path.join(tmp, "a.jsonl")
        with mock.patch.object(cli, "exact_shapley", lambda nu: attrs[nu.profile.target_index]):
            assert run("attribute", "--data", data, "--response", "y", "--method", "cs-exact",
                       "--threads", "1", "--out", out) == 0
        ds = load_dataset(data, "y")
        spec = make_similarity_spec(ds)
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        assert lines == [json.dumps(cli._record(cli.TargetContext(ds, spec, t), "cs-exact", {}, attr), sort_keys=True)
                         for t, attr in enumerate(attrs)]
        _, records = cli._read_attribution_file(out)
        for (where, record), (t, attr) in zip(records, enumerate(attrs)):
            method, target, values = cli._record_values(record, ds, where)
            assert (method, target) == ("cs-exact", t)
            assert values.tobytes() == attr.values.tobytes()


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    import cohortexplain

    src = os.path.dirname(os.path.dirname(os.path.abspath(cohortexplain.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=120,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = ("import sys, cohortexplain.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    result = _run_python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


BLOCK_SCIPY = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from cohortexplain.cli import main

data, tmp = sys.argv[1:3]
common = ["--data", data, "--response", "y", "--threads", "1"]
codes = {}
for method in ("cs-exact", "igcs", "uniqueness", "gkw"):
    codes[method] = main(["attribute", *common, "--method", method, "--targets", "all",
                          "--out", f"{tmp}/{method}.jsonl"])
codes["evaluate"] = main(["evaluate", *common, "--out", f"{tmp}/abc.csv", "--attributions",
                          *(f"{tmp}/{m}.jsonl" for m in ("cs-exact", "igcs", "uniqueness", "gkw"))])
codes["diagnose"] = main(["diagnose", *common, "--samples", "50", "--out", f"{tmp}/diag.csv"])
print(json.dumps(codes))
"""


def test_commands_run_with_scipy_blocked(tmp_path):
    rng = np.random.default_rng(12)
    data = tmp_path / "tiny.csv"
    X = rng.normal(size=(12, 3))
    lines = ["x1,x2,x3,y"] + [",".join(repr(float(v)) for v in (*row, row[0] + rng.normal())) for row in X]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = _run_python(BLOCK_SCIPY, str(data), str(tmp_path))
    assert result.returncode == 0, result.stderr
    codes = json.loads(result.stdout)
    assert codes == dict.fromkeys(["cs-exact", "igcs", "uniqueness", "gkw", "evaluate", "diagnose"], 0)


OVERFLOW_RUN = """
import sys, warnings
warnings.simplefilter("default")
from cohortexplain.cli import main

data, tmp = sys.argv[1:3]
common = ["--data", data, "--response", "y"]
codes = [main(["attribute", *common, "--method", "igcs", "--targets", "all", "--out", f"{tmp}/a.jsonl"]),
         main(["similarity", *common, "--target", "0", "--out", f"{tmp}/s.csv"])]
print(codes)
"""


@pytest.mark.parametrize("rows", [
    pytest.param(["-1e308,0,1,1.0", "1e308,1,0,2.0", "0,0,2,3.0", "5,1,1,0.5"], id="uncoded"),
    pytest.param(["-1e308,0,1,1.0", "1e308,1,0,2.0", "1e308,0,0,3.0", "-1e308,1,1,0.5"], id="coded"),
])
def test_overflowing_column_prints_no_warning(tmp_path, rows):
    data = tmp_path / "big.csv"
    data.write_text("\n".join(["a,b,c,y", *rows]) + "\n", encoding="utf-8")
    result = _run_python(OVERFLOW_RUN, str(data), str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0]"
    (line,) = result.stderr.splitlines()
    assert line.startswith("attributed 4 target(s) with igcs")


def test_evaluate_plot_data(tmp_path):
    data = write_d3(tmp_path)
    attr = tmp_path / "cs.jsonl"
    run("attribute", *d3_args(data), "--method", "cs-exact", "--targets", "0",
        "--out", str(attr))
    out = tmp_path / "abc.csv"
    curves = tmp_path / "curves.csv"
    assert run("evaluate", *d3_args(data), "--attributions", str(attr),
               "--out", str(out), "--plot-data", str(curves)) == 0
    rows = list(csv.reader(curves.read_text(encoding="utf-8").splitlines()[1:]))
    assert rows[0] == ["source", "method", "target_index", "curve", "k", "value"]
    insertion = [float(r[5]) for r in rows[1:] if r[3] == "insertion"]
    assert insertion == [2.0, 1.5, 1.0]


def test_compare_single_method_degenerate(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "cmp.csv"
    assert run("compare", *d3_args(data), "--methods", "cs-exact",
               "--targets", "all", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert len(rows) == 2  # header + one method row
    assert rows[1][0] == "cs-exact"


def test_compare_igcs_steps_rows(tmp_path):
    rng = np.random.default_rng(3)
    data = write_random_binary(tmp_path, rng, n=25, d=7)
    out = tmp_path / "cmp.csv"
    assert run("compare", "--data", str(data), "--response", "y",
               "--methods", "igcs,cs-mc", "--steps", "50,200",
               "--samples", "20", "--seed", "0",
               "--targets", "0-4", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    methods = [(r[0], r[1]) for r in rows[1:]]
    assert ("igcs", "steps=50") in methods and ("igcs", "steps=200") in methods
    assert ("cs-mc", "samples=20") in methods


def test_diagnose(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "diag.csv"
    assert run("diagnose", *d3_args(data), "--targets", "all", "--eps", "0.5",
               "--samples", "300", "--seed", "1", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert rows[0][0] == "target_index"
    assert len(rows) == 4
    first = dict(zip(rows[0], rows[1]))
    assert first["corner_fraction"] != ""  # d = 2 <= 20 so corners computed
    assert 0.0 <= float(first["mass_estimate"]) <= 1.0


@pytest.mark.parametrize("d, filled", [(20, True), (21, False)])
def test_diagnose_corner_columns_up_to_d20(tmp_path, monkeypatch, d, filled):
    """The corner columns are filled when d <= 20 and left empty, with no
    census run, above it."""
    calls = _counting(monkeypatch, "corner_convergence")
    data = write_random_binary(tmp_path, np.random.default_rng(1), n=12, d=d)
    out = tmp_path / "diag.csv"
    assert run("diagnose", "--data", str(data), "--response", "y", "--targets", "0-1",
               "--samples", "10", "--threads", "1", "--out", str(out)) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert len(rows) == 2
    for row in rows:
        assert (row["corner_fraction"] != "", row["corner_bound"] != "") == (filled, filled)
    assert len(calls) == (2 if filled else 0)


def test_similarity_dump(tmp_path, capsys):
    data = write_d3(tmp_path)
    out = tmp_path / "s.csv"
    assert run("similarity", *d3_args(data), "--target", "0",
               "--describe", "--out", str(out)) == 0
    assert "n=3" in capsys.readouterr().err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["x1", "x2"]
    assert rows[1:] == [["1", "1"], ["1", "0"], ["0", "0"]]


def test_config_file_and_cli_precedence(tmp_path):
    data = write_d3(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# test config\nsimilarity.default = relative:0.5\nsimilarity.x1 = absolute:10\n",
        encoding="utf-8",
    )
    out = tmp_path / "s.csv"
    # config alone: x1 absolute:10 makes everything similar on x1
    assert run("similarity", "--data", str(data), "--response", "y",
               "--config", str(cfg), "--target", "0", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert [r[0] for r in rows[1:]] == ["1", "1", "1"]
    # CLI override wins over the config file
    assert run("similarity", "--data", str(data), "--response", "y",
               "--config", str(cfg), "--similarity", "x1=equality",
               "--target", "0", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[1:]))
    assert [r[0] for r in rows[1:]] == ["1", "1", "0"]


def test_missing_data_file_exit_code(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code = run("attribute", "--data", str(tmp_path / "nope.csv"), "--response", "y",
               "--method", "igcs", "--targets", "0", "--out", str(out))
    assert code == 3


def test_bad_targets_exit_code(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "x.jsonl"
    assert run("attribute", *d3_args(data), "--method", "igcs",
               "--targets", "7", "--out", str(out)) == 2
    assert run("attribute", *d3_args(data), "--method", "igcs",
               "--targets", "zz", "--out", str(out)) == 2
    assert run("attribute", *d3_args(data), "--method", "igcs",
               "--targets", "0,2-1", "--out", str(out)) == 2  # reversed range


def test_targets_range_parsing(tmp_path):
    data = write_d3(tmp_path)
    out = tmp_path / "a.jsonl"
    assert run("attribute", *d3_args(data), "--method", "cs-exact",
               "--targets", "0-1,2", "--out", str(out)) == 0
    _, records = read_attribution(out)
    assert [r["target_index"] for r in records] == [0, 1, 2]


def test_residual_mode_cli(tmp_path):
    path = tmp_path / "res.csv"
    path.write_text("x,y,pred\n0,1,1\n0,2,1\n1,3,1\n", encoding="utf-8")
    out = tmp_path / "a.jsonl"
    assert run("attribute", "--data", str(path), "--response", "y",
               "--response-mode", "residual:pred", "--similarity", "x=equality",
               "--method", "cs-exact", "--targets", "0", "--out", str(out)) == 0
    header, records = read_attribution(out)
    assert records[0]["nu_empty"] == pytest.approx(1.0)  # mean of [0,1,2]
    for mode in ("bogus", "residual:y"):  # y is the response column
        assert run("attribute", "--data", str(path), "--response", "y",
                   "--response-mode", mode, "--similarity", "x=equality",
                   "--method", "cs-exact", "--targets", "0", "--out", str(out)) == 2


def _counting(monkeypatch, name):
    """Wrap cli.<name> the way an outside tracer does; returns the call list."""
    calls = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def test_compare_builds_each_profile_once(tmp_path, monkeypatch):
    data = write_d3(tmp_path)
    calls = _counting(monkeypatch, "build_profile")
    assert run("compare", *d3_args(data), "--methods", "igcs,cs-mc", "--steps", "5,10",
               "--samples", "3", "--targets", "all", "--threads", "1",
               "--out", str(tmp_path / "cmp.csv")) == 0
    assert len(calls) == 3 * 3  # (igcs x 2 + cs-mc) variants x 3 targets


@pytest.mark.parametrize("methods", ["igcs,,cs-mc", "igcs,bogus", "igcs,", ""],
                         ids=["empty-token", "unknown-name", "trailing-comma", "empty-list"])
def test_compare_methods_are_checked_in_the_parser(tmp_path, capsys, methods):
    """An empty or unknown method name exits 2 before the load: the data
    file, absent here, is never opened."""
    assert run("compare", "--data", str(tmp_path / "absent.csv"), "--response", "y",
               "--methods", methods, "--out", str(tmp_path / "cmp.csv")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ConfigError"
    assert error["message"].startswith("argument --methods: unknown method")


@pytest.mark.parametrize("repeated, single", [
    (["--methods", "igcs,igcs"], ["--methods", "igcs"]),
    (["--methods", "igcs,cs-mc,igcs"], ["--methods", "igcs,cs-mc"]),
    (["--methods", "igcs", "--steps", "5,5"], ["--methods", "igcs", "--steps", "5"]),
    (["--methods", "cs-mc", "--samples", "3,4,3"], ["--methods", "cs-mc", "--samples", "3,4"]),
], ids=["method", "method-later", "steps", "samples"])
def test_compare_counts_a_repeated_entry_once(tmp_path, repeated, single):
    """A method or a ``--steps``/``--samples`` value given twice makes one
    row, at its first appearance, as a repeated ``--targets`` index does."""
    data = write_d3(tmp_path)
    tables = []
    for options in (repeated, single):
        out = tmp_path / "cmp.csv"
        assert run("compare", *d3_args(data), *options, "--targets", "all", "--out", str(out)) == 0
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        tables.append((header, [row[:-1] for row in csv.reader(lines)]))  # less the timing column
    assert tables[0] == tables[1]


@pytest.mark.parametrize("methods, option", [
    ("cs-exact", ["--steps", "5"]),
    ("igcs", ["--samples", "5"]),
    ("igcs,cs-mc", ["--sigma", "0.5"]),
    ("igcs,uniqueness", ["--seed", "1"]),
])
def test_compare_rejects_stray_options(tmp_path, methods, option):
    data = write_d3(tmp_path)
    assert run("compare", *d3_args(data), "--methods", methods, *option,
               "--targets", "0", "--out", str(tmp_path / "cmp.csv")) == 2


def test_engine_wrappers_seen_by_attribute_and_compare(tmp_path, monkeypatch):
    data = write_d3(tmp_path)
    calls = _counting(monkeypatch, "igcs_attribution")
    assert run("attribute", *d3_args(data), "--method", "igcs", "--targets", "all",
               "--out", str(tmp_path / "a.jsonl")) == 0
    assert len(calls) == 3
    assert run("compare", *d3_args(data), "--methods", "igcs,cs-exact", "--targets", "0-1",
               "--out", str(tmp_path / "cmp.csv")) == 0
    assert len(calls) == 5


@pytest.mark.parametrize("method, options", [
    ("cs-exact", {}),
    ("gkw", {"sigma": 0.1}),
    ("uniqueness", {}),
    ("igcs", {"steps": 50}),
    ("cs-mc", {"samples": 1000, "seed": 0}),
    ("random", {"seed": 0}),
])
def test_attribute_header_method_options(tmp_path, method, options):
    data = write_d3(tmp_path)
    out = tmp_path / "a.jsonl"
    assert run("attribute", *d3_args(data), "--method", method, "--targets", "0",
               "--out", str(out)) == 0
    header, _ = read_attribution(out)
    common = {"schema", "command", "data", "response", "response_mode", "schema_overrides",
              "similarity_default", "similarity_overrides", "n", "d", "method", "targets"}
    assert {k: v for k, v in header.items() if k not in common} == options


@pytest.mark.parametrize("which, code", [("data", 3), ("attributions", 3), ("config", 2)])
def test_non_utf8_input_exit_code(tmp_path, capsys, which, code):
    data = write_d3(tmp_path)
    attr = tmp_path / "cs.jsonl"
    assert run("attribute", *d3_args(data), "--method", "cs-exact", "--targets", "0",
               "--out", str(attr)) == 0
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("similarity.default = relative:0.5\n", encoding="utf-8")
    paths = {"data": data, "attributions": attr, "config": cfg}
    bad = paths[which]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    capsys.readouterr()
    assert run("evaluate", "--data", str(data), "--response", "y", "--config", str(cfg),
               "--attributions", str(attr), "--out", str(tmp_path / "abc.csv")) == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == ("ConfigError" if code == 2 else "DataError")
    assert err["message"].startswith(f"{bad}: ")


def test_gkw_attribute_builds_no_profile(tmp_path, monkeypatch):
    data = write_d3(tmp_path)
    calls = _counting(monkeypatch, "build_profile")
    assert run("attribute", *d3_args(data), "--method", "gkw", "--targets", "all",
               "--out", str(tmp_path / "a.jsonl")) == 0
    assert calls == []
    assert run("compare", *d3_args(data), "--methods", "gkw", "--targets", "0-1",
               "--out", str(tmp_path / "cmp.csv")) == 0
    assert len(calls) == 2  # the ABC report still reads each target's cohort


@pytest.mark.parametrize("threads", ["1", "2"])
def test_attribute_computes_widths_once(tmp_path, monkeypatch, threads):
    """The column facts the widths and profiles read (one min/max pass and
    the two-level coding) depend on the dataset only and are computed when
    it is made, so one command computes them once, not once per target,
    with one worker or two; each profile derives its widths from them."""
    from cohortexplain import data

    data_path = write_d3(tmp_path)
    made = []
    original = data.Dataset.__post_init__
    monkeypatch.setattr(data.Dataset, "__post_init__", lambda ds: made.append(ds) or original(ds))
    assert run("attribute", "--data", str(data_path), "--response", "y", "--method", "igcs",
               "--targets", "0-2", "--threads", threads, "--out", str(tmp_path / "a.jsonl")) == 0
    assert len(made) == 1
    assert made[0].at_high is not None


def test_evaluate_builds_each_target_once(tmp_path, monkeypatch):
    """One profile per target across files, on one worker and on two."""
    data = write_d3(tmp_path)
    files = []
    for name, method, targets in (("a", "cs-exact", "0-1"), ("b", "igcs", "1-2")):
        files.append(tmp_path / f"{name}.jsonl")
        assert run("attribute", *d3_args(data), "--method", method, "--targets", targets,
                   "--out", str(files[-1])) == 0
    calls = _counting(monkeypatch, "build_profile")
    out = tmp_path / "abc.csv"
    for threads in ("1", "2"):
        calls.clear()
        assert run("evaluate", *d3_args(data), "--attributions", *map(str, files), "--threads", threads,
                   "--out", str(out)) == 0
        assert sorted(args[2] for args in calls) == [0, 1, 2]
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[2:]))
        assert [(r[0], r[2], r[3]) for r in rows if r[2] == "target"] == [
            (str(files[0]), "target", "0"), (str(files[0]), "target", "1"),
            (str(files[1]), "target", "1"), (str(files[1]), "target", "2"),
        ]
