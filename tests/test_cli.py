import csv
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cohortexplain import cli
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
    rng = np.random.default_rng(0)
    data = write_random_binary(tmp_path, rng, n=8, d=30)
    out = tmp_path / "x.jsonl"
    code = run("attribute", "--data", str(data), "--response", "y",
               "--method", "cs-exact", "--targets", "0", "--out", str(out))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DimensionTooLarge"


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
    from cohortexplain import GkwValue, QuadratureSpec, exact_shapley, mc_shapley

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert cli.DEFAULTS["steps"] == QuadratureSpec().steps
    assert cli.DEFAULTS["sigma"] == default(GkwValue, "sigma")
    assert cli.DEFAULTS["cap"] == default(exact_shapley, "cap")
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
    "attribute --method cs-exact --cap 0 --out OUT",
    "compare --methods cs-exact --cap -1 --out OUT",
    "diagnose --samples 0 --out OUT",
    "attribute --method bogus --out OUT",
    "attribute --method igcs",  # no --out
])
def test_malformed_option_prints_one_json_line(tmp_path, capsys, options):
    """Every bad flag, whether argparse or a bound refuses it, exits 2 with
    the one JSON error line of FORMATS.md and no usage text or traceback."""
    command, *rest = options.split()
    rest = [str(tmp_path / "out") if o == "OUT" else o for o in rest]
    assert run(command, *d3_args(write_d3(tmp_path)), *rest) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


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


def test_threads_do_not_change_output(tmp_path):
    rng = np.random.default_rng(1)
    data = write_random_binary(tmp_path, rng, n=30, d=8)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    common = ["attribute", "--data", str(data), "--response", "y",
              "--method", "igcs", "--targets", "all"]
    assert run(*common, "--threads", "1", "--out", str(a)) == 0
    assert run(*common, "--threads", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("mode, schema, code", [
    ("raw", "y=categorical", 2),
    ("residual:p", "p=categorical", 2),
    ("residual:p", "y=numeric", 0),
    ("residual:p", "p=numeric", 0),
])
def test_schema_response_column_must_be_numeric(tmp_path, mode, schema, code):
    data = tmp_path / "p.csv"
    data.write_text("x1,p,y\n0,1,1\n1,2,2\n1,2,3\n", encoding="utf-8")
    assert run("similarity", "--data", str(data), "--response", "y", "--response-mode", mode,
               "--schema", schema, "--target", "0", "--out", str(tmp_path / "s.csv")) == code


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
    ("cs-exact", {"cap": 25}),
    ("gkw", {"cap": 25, "sigma": 0.1}),
    ("uniqueness", {"cap": 25}),
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
    data = write_d3(tmp_path)
    files = []
    for name, method, targets in (("a", "cs-exact", "0-1"), ("b", "igcs", "1-2")):
        files.append(tmp_path / f"{name}.jsonl")
        assert run("attribute", *d3_args(data), "--method", method, "--targets", targets,
                   "--out", str(files[-1])) == 0
    calls = _counting(monkeypatch, "build_profile")
    out = tmp_path / "abc.csv"
    assert run("evaluate", *d3_args(data), "--attributions", *map(str, files), "--out", str(out)) == 0
    assert sorted(args[2] for args in calls) == [0, 1, 2]
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()[2:]))
    assert [(r[0], r[2], r[3]) for r in rows if r[2] == "target"] == [
        (str(files[0]), "target", "0"), (str(files[0]), "target", "1"),
        (str(files[1]), "target", "1"), (str(files[1]), "target", "2"),
    ]
