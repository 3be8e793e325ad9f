"""Seeded input generators and the command sequence of each workload.

Every input is drawn from ``numpy.random.default_rng(seed)``, so the same
seed gives byte-identical CSV files.  The program under test only ever sees
the generated CSV; the generator keeps the response vector and a few facts
about the data (size, column kinds, dissimilarity density) for the output
checks and the report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

DELTA = 0.1  # relative-range rule for numeric columns (the CLI default)

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only
# exercises every code path for the self-test.
SIZES = {
    "full": {
        # The criterion-8/9 design has n=2000.  One pass of each workload's
        # command sequence is cut to about 2-4 s on a 2-core machine at the
        # seed code's speed, so that a run of 30 s holds many passes for
        # their median and the seventy-odd runs of a full check fit in an
        # hour.  Load and build_profile both scale with
        # n*d, so their share of the command is kept; per-target samples
        # are pooled over the passes of a run.
        "sparse": {"n": 250, "d": 1024, "k": 20},
        "igcs_targets": 20,
        "compare_targets": 2,
        "mc_targets": 1,
        # n=1000 rather than 5000: with a few targets per pass the loads of
        # a 5000-row table would be half of the pass, and this
        # workload is meant to be the lattice-bound control.
        "mixed": {"n": 1000, "levels": (2, 3, 4, 5), "numeric": 16},
        "exact_targets": 8,
        "uniqueness_targets": 2,
        "diagnose_targets": 2,
        "gkw": {"n": 500, "d": 10},
        "gkw_targets": 2,
    },
    "tiny": {
        "sparse": {"n": 80, "d": 48, "k": 5},
        "igcs_targets": 12,
        "compare_targets": 4,
        "mc_targets": 3,
        "mixed": {"n": 120, "levels": (2, 3), "numeric": 4},
        "exact_targets": 12,
        "uniqueness_targets": 4,
        "diagnose_targets": 3,
        "gkw": {"n": 40, "d": 4},
        "gkw_targets": 3,
    },
}


@dataclass
class Inputs:
    """A generated CSV plus what the checks need to know about it."""

    csv: str
    response: np.ndarray
    facts: dict = field(default_factory=dict)


@dataclass
class Command:
    """One CLI invocation: argv for ``cohortexplain.cli.main`` and its files."""

    command: str  # attribute | evaluate | compare | diagnose
    argv: list
    outputs: list  # output files, in argv order
    method: str = ""
    targets: list = field(default_factory=list)
    timing: str = ""  # --timing-out sidecar, attribute only
    sources: list = field(default_factory=list)  # evaluate: attribution files read
    # grand_mean, n and d of the CSV, for a command that reads another CSV
    # than the workload's own
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generators


def sparse_binary(seed: int, n: int, d: int, k: int, density: float = 0.08):
    """Wide 0/1 design of the sparse acceptance benchmark.

    The draws are made in the same order as ``sparse_benchmark`` in the
    acceptance tests (cells, signal columns, weights, noise), so seed 2024
    with n=2000, d=1024, k=20 gives that fixture's data exactly.
    """
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)) < density
    signal = rng.choice(d, size=k, replace=False)
    weights = 2.0 * rng.normal(size=k)
    y = X[:, signal].astype(float) @ weights + 0.1 * rng.normal(size=n)
    return X, y


def _write_csv(path: str, header: list, rows: list, y: np.ndarray) -> None:
    """rows: per-observation feature cells, already joined with commas and
    ending in a comma; the response is appended with repr (round-trips)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row, value in zip(rows, y.tolist()):
            fh.write(row + repr(value) + "\n")


def _joined(columns: list) -> list:
    """Per-row comma-joined cells from per-column lists of strings."""
    return ["".join(cell + "," for cell in row) for row in zip(*columns)]


def _real_cells(values: np.ndarray) -> list:
    return [[repr(v) for v in col] for col in values.T.tolist()]


def _dissim_facts(features: np.ndarray, categorical: np.ndarray, target: int) -> dict:
    """Dissimilar-pair density and |J_i| buckets for one target.

    Mirrors the CLI's default rules (equality for categorical columns,
    relative range DELTA for numeric ones) without calling the program.
    """
    ranges = np.where(categorical, 0.0, np.ptp(features, axis=0))
    width = np.where(categorical, 0.0, DELTA * ranges)
    dissim = np.abs(features - features[target]) > width
    counts = dissim.sum(axis=1)
    return {
        "dissimilar_pair_density": float(dissim.mean()),
        "first_target_dissim_buckets": int(len(np.unique(counts))),
    }


def _facts(path: str, features: np.ndarray, categorical: np.ndarray) -> dict:
    n, d = features.shape
    facts = {
        "csv_bytes": os.path.getsize(path),
        "n": n,
        "d": d,
        "numeric_columns": int(d - categorical.sum()),
        "categorical_columns": int(categorical.sum()),
    }
    facts.update(_dissim_facts(features, categorical, target=0))
    return facts


def gen_sparse(seed: int, size: dict, path: str) -> Inputs:
    X, y = sparse_binary(seed, size["n"], size["d"], size["k"])
    header = [f"x{j + 1}" for j in range(size["d"])] + ["y"]
    cells = np.full((X.shape[0], 2 * X.shape[1]), ord(","), dtype=np.uint8)
    cells[:, 0::2] = np.where(X, ord("1"), ord("0"))
    _write_csv(path, header, [row.tobytes().decode("ascii") for row in cells], y)
    features = X.astype(float)
    return Inputs(path, y, _facts(path, features, np.zeros(size["d"], dtype=bool)))


def gen_mixed(seed: int, size: dict, path: str) -> Inputs:
    """Tall mixed table: string-labelled categorical columns, then reals."""
    rng = np.random.default_rng(seed)
    n, levels, p = size["n"], size["levels"], size["numeric"]
    codes = np.column_stack([rng.integers(0, L, size=n) for L in levels])
    reals = np.round(rng.normal(size=(n, p)), 4)
    effects = [rng.normal(size=L) for L in levels]
    y = reals[:, 0] + 0.5 * reals[:, 1] - 0.25 * reals[:, 2] * reals[:, 3]
    y = y + sum(e[codes[:, c]] for c, e in enumerate(effects)) + 0.1 * rng.normal(size=n)
    labels = [np.array([f"L{c}{chr(ord('a') + v)}" for v in range(L)]) for c, L in enumerate(levels)]
    header = [f"cat{c + 1}" for c in range(len(levels))] + [f"x{j + 1}" for j in range(p)] + ["y"]
    columns = [labels[c][codes[:, c]].tolist() for c in range(len(levels))] + _real_cells(reals)
    _write_csv(path, header, _joined(columns), y)
    features = np.column_stack([codes.astype(float), reals])
    categorical = np.arange(features.shape[1]) < len(levels)
    return Inputs(path, y, _facts(path, features, categorical))


def gen_numeric(seed: int, size: dict, path: str) -> Inputs:
    """All-numeric correlated Gaussian design for the kernel-weight value."""
    rng = np.random.default_rng(seed)
    n, d = size["n"], size["d"]
    mix = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    X = np.round(rng.normal(size=(n, d)) @ mix, 6)
    y = X[:, 0] - 0.5 * X[:, 1] + np.sin(X[:, 2]) + 0.1 * rng.normal(size=n)
    header = [f"x{j + 1}" for j in range(d)] + ["y"]
    _write_csv(path, header, _joined(_real_cells(X)), y)
    return Inputs(path, y, _facts(path, X, np.zeros(d, dtype=bool)))


# ---------------------------------------------------------------------------
# Workloads


def _range(count: int) -> tuple[str, list]:
    return f"0-{count - 1}", list(range(count))


def _expect(inputs: Inputs) -> dict:
    return {"grand_mean": float(np.mean(inputs.response)), "n": inputs.facts["n"], "d": inputs.facts["d"]}


def _base(inputs: Inputs) -> list:
    return ["--data", inputs.csv, "--response", "y", "--delta", repr(DELTA), "--threads", "1"]


def _attribute(inputs, work, name, method, count, extra=(), timing=True) -> Command:
    spec, targets = _range(count)
    out = os.path.join(work, f"{name}.jsonl")
    argv = ["attribute", *_base(inputs), "--method", method, "--targets", spec, *extra, "--out", out]
    sidecar = ""
    if timing:
        sidecar = os.path.join(work, f"{name}-timing.json")
        argv += ["--timing-out", sidecar]
    return Command("attribute", argv, [out], method=method, targets=targets, timing=sidecar)


def _evaluate(inputs, work, name, sources: list) -> Command:
    out = os.path.join(work, f"{name}.csv")
    files = [c.outputs[0] for c in sources]
    argv = ["evaluate", *_base(inputs), "--attributions", *files, "--out", out]
    return Command("evaluate", argv, [out], sources=sources)


def sparse_igcs(inputs: Inputs, work: str, seed: int, size: dict) -> list:
    attr = _attribute(inputs, work, "igcs", "igcs", size["igcs_targets"], ["--steps", "50"])
    return [attr, _evaluate(inputs, work, "igcs-abc", [attr])]


def sparse_compare(inputs: Inputs, work: str, seed: int, size: dict) -> list:
    spec, targets = _range(size["compare_targets"])
    out = os.path.join(work, "compare.csv")
    argv = ["compare", *_base(inputs), "--methods", "igcs,cs-mc", "--steps", "50",
            "--samples", "50", "--seed", str(seed), "--targets", spec, "--out", out]
    compare = Command("compare", argv, [out], method="igcs,cs-mc", targets=targets)
    # compare writes only summary rows; a few cs-mc records let the checks
    # test the Monte Carlo efficiency identity directly.
    mc = _attribute(inputs, work, "cs-mc", "cs-mc", size["mc_targets"],
                    ["--samples", "50", "--seed", str(seed)], timing=False)
    return [compare, mc]


def exact_lowd(inputs: Inputs, work: str, seed: int, size: dict) -> list:
    exact = _attribute(inputs, work, "cs-exact", "cs-exact", size["exact_targets"])
    uniq = _attribute(inputs, work, "uniqueness", "uniqueness", size["uniqueness_targets"], timing=False)
    spec, targets = _range(size["diagnose_targets"])
    out = os.path.join(work, "diagnose.csv")
    argv = ["diagnose", *_base(inputs), "--targets", spec, "--seed", str(seed), "--out", out]
    diagnose = Command("diagnose", argv, [out], targets=targets)
    # gkw refuses categorical columns, so it gets an all-numeric CSV of its own
    numeric = gen_numeric(seed, size["gkw"], os.path.join(work, "numeric.csv"))
    inputs.facts["gkw_csv"] = numeric.facts
    gkw = _attribute(numeric, work, "gkw", "gkw", size["gkw_targets"], timing=False)
    gkw.expect = _expect(numeric)
    return [exact, uniq, _evaluate(inputs, work, "exact-abc", [exact, uniq]), diagnose, gkw]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object  # (seed, size, path) -> Inputs
    size_key: str
    commands: object  # (inputs, work, seed, sizes) -> list[Command]
    probe_threads: bool = False  # measure attribute at --threads 2 in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-igcs",
            "paper headline path: attribute igcs on 20 targets of a wide 0/1 CSV, then evaluate; "
            "load and build_profile dominate",
            gen_sparse, "sparse", sparse_igcs, probe_threads=True,
        ),
        Workload(
            "sparse-compare",
            "equal-budget compare igcs vs cs-mc on the wide 0/1 CSV; the permutation loop and "
            "Fisher-Yates dominate",
            gen_sparse, "sparse", sparse_compare,
        ),
        Workload(
            "exact-lowd",
            "tall mixed d=20 CSV: cs-exact, uniqueness, evaluate, diagnose, plus gkw on a numeric "
            "d=10 CSV; 2^d lattice work, control for load/profile changes",
            gen_mixed, "mixed", exact_lowd,
        ),
    )
}


def build(name: str, seed: int, scale: str, work: str) -> tuple[Inputs, list]:
    """Generate the workload's CSV under ``work`` and return its commands."""
    workload = WORKLOADS[name]
    sizes = SIZES[scale]
    inputs = workload.generate(seed, sizes[workload.size_key], os.path.join(work, "data.csv"))
    return inputs, workload.commands(inputs, work, seed, sizes)
