"""Output-correctness gate: every check is one attempted operation.

The checks read the files the CLI wrote and compare them with what the
generator knows (the response vector, n, d and the requested targets).  A
check that raises counts as failed, so no failure is dropped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

ATTRIBUTION_SCHEMA = "cohortexplain.attribution/1"
EXACT_METHODS = ("cs-exact", "gkw", "uniqueness")
EXACT_TOL = 1e-9  # |efficiency_gap| for exact engines, scaled (see _scale)
MC_TOL = 1e-12  # cs-mc: the identity telescopes per permutation, so only rounding is left
MEAN_TOL = 1e-12  # nu_empty against the generator's grand mean, relative


def digest(path: str, command: str) -> str:
    """SHA-256 of an output file.

    compare's ``seconds_per_target`` column is measured wall-clock, which
    FORMATS.md exempts from the byte-identical rule; it is blanked first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if command == "compare":
        lines = data.split(b"\n")
        data = b"\n".join(lines[:2] + [line.rsplit(b",", 1)[0] for line in lines[2:]])
    return hashlib.sha256(data).hexdigest()


def _scale(record: dict) -> float:
    return max(abs(record["nu_full"] - record["nu_empty"]), 1.0)


def _read_attribution(path: str) -> tuple[dict, list]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    header = json.loads(lines[0])
    if header.get("schema") != ATTRIBUTION_SCHEMA:
        raise ValueError(f"schema {header.get('schema')!r}")
    return header, [json.loads(line) for line in lines[1:]]


def _read_table(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config: "):
            raise ValueError("missing '# config:' line")
        return list(csv.DictReader(fh))


def _fail(messages: list) -> str:
    return "; ".join(messages[:3]) + (f" (+{len(messages) - 3} more)" if len(messages) > 3 else "")


def check_attribution(cmd, grand_mean: float, n: int, d: int) -> list:
    """[(name, error or None)] for one attribute command's output."""
    _, records = _read_attribution(cmd.outputs[0])
    results = []

    def check(name, bad):
        results.append((f"{cmd.method}:{name}", _fail(bad) if bad else None))

    check("targets", [] if [r["target_index"] for r in records] == cmd.targets
          else [f"targets {[r['target_index'] for r in records][:5]}... != requested"])
    check("columns", [f"target {r['target_index']}: {len(r['values'])} values"
                      for r in records if len(r["values"]) != d])
    check("finite", [f"target {r['target_index']}" for r in records
                     if not all(math.isfinite(v) for v in r["values"].values())])
    # the reported gap must be the one the written values give
    check("gap_consistent", [
        f"target {r['target_index']}"
        for r in records
        if not abs((r["nu_full"] - r["nu_empty"]) - sum(r["values"].values()) - r["efficiency_gap"])
        <= EXACT_TOL * _scale(r)
    ])
    if cmd.method == "uniqueness":
        anchor, what = -math.log2(n), "-log2(n)"
    else:
        anchor, what = grand_mean, "grand mean of y"
    check("nu_empty", [f"target {r['target_index']}: {r['nu_empty']!r} != {what} {anchor!r}"
                       for r in records
                       if not math.isclose(r["nu_empty"], anchor, rel_tol=MEAN_TOL, abs_tol=MEAN_TOL)])
    tol = EXACT_TOL if cmd.method in EXACT_METHODS else MC_TOL if cmd.method == "cs-mc" else None
    if tol is not None:
        check("efficiency", [f"target {r['target_index']}: gap {r['efficiency_gap']!r}"
                             for r in records if not abs(r["efficiency_gap"]) <= tol * _scale(r)])
    if cmd.method == "cs-mc":
        check("stderr", [f"target {r['target_index']}" for r in records
                         if len(r.get("stderr", {})) != d])
    return results


def check_evaluate(cmd) -> list:
    rows = _read_table(cmd.outputs[0])
    bad = []
    for source in cmd.sources:
        mine = [r for r in rows if r["source"] == source.outputs[0]]
        targets = [int(r["target_index"]) for r in mine if r["row"] == "target"]
        if targets != source.targets:
            bad.append(f"{source.method}: target rows {targets[:5]}... != {source.targets[:5]}...")
        if sorted(r["row"] for r in mine if r["row"] != "target") != ["mean", "stderr"]:
            bad.append(f"{source.method}: summary rows missing")
    bad += [f"row {i}: non-finite ABC" for i, r in enumerate(rows)
            if not all(math.isfinite(float(r[k])) for k in ("abc_insertion", "abc_deletion"))]
    return [("evaluate:rows", _fail(bad) if bad else None)]


def check_compare(cmd) -> list:
    rows = _read_table(cmd.outputs[0])
    bad = []
    if [(r["method"], r["param"]) for r in rows] != [("igcs", "steps=50"), ("cs-mc", "samples=50")]:
        bad.append(f"variants {[(r['method'], r['param']) for r in rows]}")
    for r in rows:
        if int(r["targets"]) != len(cmd.targets):
            bad.append(f"{r['method']}: targets {r['targets']}")
        values = [float(r[k]) for k in r if k.startswith(("mean_", "se_"))]
        if not all(math.isfinite(v) for v in values) or not float(r["seconds_per_target"]) > 0:
            bad.append(f"{r['method']}: non-finite or non-positive entries")
    return [("compare:rows", _fail(bad) if bad else None)]


def check_diagnose(cmd, d: int) -> list:
    rows = _read_table(cmd.outputs[0])
    bad = []
    if [int(r["target_index"]) for r in rows] != cmd.targets:
        bad.append("target rows differ from the request")
    for r in rows:
        mass = float(r["mass_estimate"])
        if not 0.0 <= mass <= 1.0:
            bad.append(f"target {r['target_index']}: mass {mass}")
        if d <= 20 and (r["corner_fraction"] == "" or float(r["corner_fraction"]) > float(r["corner_bound"])):
            bad.append(f"target {r['target_index']}: corner census missing or above its bound")
    return [("diagnose:rows", _fail(bad) if bad else None)]


def check_outputs(commands: list, response: np.ndarray, n: int, d: int) -> list:
    """Run every content check; an exception inside a check is its failure."""
    grand_mean = float(np.mean(response))
    results = []
    for cmd in commands:
        try:
            if cmd.command == "attribute":
                expect = cmd.expect or {"grand_mean": grand_mean, "n": n, "d": d}
                results += check_attribution(cmd, expect["grand_mean"], expect["n"], expect["d"])
            elif cmd.command == "evaluate":
                results += check_evaluate(cmd)
            elif cmd.command == "compare":
                results += check_compare(cmd)
            elif cmd.command == "diagnose":
                results += check_diagnose(cmd, d)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results.append((f"{cmd.command}:readable", f"{type(exc).__name__}: {exc}"))
    return results
