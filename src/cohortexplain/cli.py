"""Command-line surface: attribute, evaluate, compare, diagnose, similarity.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 computation
error.  Output files are byte-identical across repeated runs for the same
configuration and seed; wall-clock timings therefore go to stderr (and to
the compare table, whose timing column is inherently non-deterministic).
File formats are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .data import (
    ColumnKind,
    Dataset,
    RelativeRange,
    SimilaritySpec,
    dataset_summary,
    load_dataset,
    make_similarity_spec,
    parse_rule,
    parse_similarity_config,
)
from .diagnostics import CORNER_DIMENSION_CAP, corner_convergence, heps_mass
from .errors import (
    ComputationError,
    ConfigError,
    DataError,
    DimensionMismatch,
)
from .evaluation import abc_report
from .igcs import QuadratureSpec, SoftValue, igcs_attribution
from .sampling import fisher_yates, rng_from
from .shapley import DEFAULT_DIMENSION_CAP, Attribution, _finish, exact_shapley, mc_shapley
from .similarity import SimilarityProfile, build_profile
from .values import DEFAULT_SIGMA, CohortValue, GkwValue, UniquenessValue

ATTRIBUTION_SCHEMA = "cohortexplain.attribution/1"
DEFAULTS = {"steps": QuadratureSpec.steps, "samples": 1000, "sigma": DEFAULT_SIGMA, "seed": 0,
            "cap": DEFAULT_DIMENSION_CAP}


# ---------------------------------------------------------------------------
# Method registry
#
# Every ``run`` looks the engines up in this module's globals when it is
# called, so a wrapper installed over e.g. ``cli.igcs_attribution`` sees the
# calls of ``attribute`` and ``compare`` alike.

@dataclass(frozen=True)
class TargetContext:
    """One target's profile and cohort value, built on first use and then
    read by both the attribution engine and the ABC report (``gkw`` reads
    neither)."""

    ds: Dataset
    spec: SimilaritySpec
    target: int

    @cached_property
    def profile(self) -> SimilarityProfile:
        return build_profile(self.ds, self.spec, self.target)

    @cached_property
    def value(self) -> CohortValue:
        return CohortValue(self.profile, self.ds.responses)


@dataclass(frozen=True)
class Method:
    """The options a method reads (and writes into the attribution header),
    how it attributes one target, and the count option that ``compare``
    sweeps as a comma list."""

    options: tuple[str, ...]
    run: Callable[[TargetContext, dict], Attribution]
    sweep: Optional[str] = None


def _cs_mc(t: TargetContext, p: dict) -> Attribution:
    attr = mc_shapley(t.value, p["samples"], seed=rng_from(p["seed"], t.target))
    attr.meta["seed"] = p["seed"]
    return attr


def _gkw(t: TargetContext, p: dict) -> Attribution:
    attr = exact_shapley(GkwValue(t.ds, t.target, sigma=p["sigma"]), cap=p["cap"])
    attr.meta["sigma"] = p["sigma"]
    return attr


def _random(t: TargetContext, p: dict) -> Attribution:
    """Ordering carrier: a seeded permutation encoded as ranks d..1."""
    d, nu = t.profile.d, t.value
    values = np.empty(d)
    values[fisher_yates(rng_from(p["seed"], t.target), d)] = np.arange(d, 0, -1, dtype=float)
    return _finish(values, nu.evaluate(()), nu.evaluate(tuple(range(d))), t.target, seed=p["seed"])


METHODS = {
    "cs-exact": Method(("cap",), lambda t, p: exact_shapley(t.value, cap=p["cap"])),
    "igcs": Method(
        ("steps",),
        lambda t, p: igcs_attribution(SoftValue(t.profile, t.ds.responses), QuadratureSpec(p["steps"])),
        sweep="steps",
    ),
    "cs-mc": Method(("samples", "seed"), _cs_mc, sweep="samples"),
    "gkw": Method(("cap", "sigma"), _gkw),
    "uniqueness": Method(("cap",), lambda t, p: exact_shapley(UniquenessValue(t.profile), cap=p["cap"])),
    "random": Method(("seed",), _random),
}


def _method_params(args, names: list[str]) -> dict:
    """DEFAULTS overridden by the options given; an option that none of
    ``names`` reads is an error (``--cap`` is accepted with any method)."""
    given = {k for k in DEFAULTS if getattr(args, k) is not None}
    stray = given - {"cap"} - {o for name in names for o in METHODS[name].options}
    if stray:
        raise ConfigError(
            f"option(s) {sorted('--' + s for s in stray)} not valid with method(s) {', '.join(names)}"
        )
    return {k: getattr(args, k) if k in given else v for k, v in DEFAULTS.items()}


def _attribute_one(ds, spec, name: str, params: dict, target: int):
    """(context, attribution, seconds) for one target."""
    start = time.perf_counter()
    ctx = TargetContext(ds, spec, target)
    attr = METHODS[name].run(ctx, params)
    return ctx, attr, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Argument plumbing

def _parse_targets(text: str, n: int) -> list[int]:
    if text.strip() == "all":
        return list(range(n))
    out: list[int] = []
    seen = set()
    for token in text.split(","):
        token = token.strip()
        try:
            if "-" in token and not token.startswith("-"):
                lo_s, hi_s = token.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(token)
        except ValueError:
            raise ConfigError(f"bad target token {token!r}") from None
        if lo > hi:
            raise ConfigError(f"bad target range {token!r}: {lo} > {hi}")
        for t in range(lo, hi + 1):
            if not 0 <= t < n:
                raise ConfigError(f"target {t} outside [0, {n})")
            if t not in seen:
                seen.add(t)
                out.append(t)
    if not out:
        raise ConfigError("no targets selected")
    return sorted(out)  # outputs are written in target-index order


def _setup(args) -> tuple[Dataset, SimilaritySpec, dict]:
    """The dataset, its similarity spec and the output header's common
    fields.  Similarity rules: the config file first, CLI flags override."""
    schema = {}
    for item in args.schema or []:
        name, sep, kind = item.partition("=")
        if not sep or kind not in ("numeric", "categorical"):
            raise ConfigError(f"bad schema override {item!r}; expected COL=numeric|categorical")
        schema[name] = ColumnKind(kind)
    ds = load_dataset(args.data, args.response, args.response_mode, schema or None)
    default, overrides = None, {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
        default, overrides = parse_similarity_config(text)
    if args.delta is not None:
        default = RelativeRange(args.delta)
    if default is None:
        default = RelativeRange()
    for item in args.similarity or []:
        name, sep, rule = item.partition("=")
        if not sep:
            raise ConfigError(f"bad similarity override {item!r}; expected COL=RULE")
        overrides[name] = parse_rule(rule)
    spec = make_similarity_spec(ds, default=default, overrides=overrides)
    config = {
        "schema": ATTRIBUTION_SCHEMA,
        "command": args.command,
        "data": str(args.data),
        "response": args.response,
        "response_mode": args.response_mode,
        "schema_overrides": {k: v.value for k, v in schema.items()},
        "similarity_default": default.token(),
        "similarity_overrides": {k: v.token() for k, v in sorted(overrides.items())},
        "n": ds.n,
        "d": ds.d,
    }
    return ds, spec, config


def _map_ordered(fn, items, threads: int) -> list:
    """Apply fn across items, preserving input order regardless of scheduling."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_csv(path, config: dict, header: list, rows) -> None:
    """A ``# config:`` line, then a CSV header and the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# attribute

def _cmd_attribute(args) -> int:
    method = METHODS[args.method]
    params = _method_params(args, [args.method])
    ds, spec, config = _setup(args)
    targets = _parse_targets(args.targets, ds.n)
    config.update({"method": args.method, "targets": args.targets})
    config.update({k: params[k] for k in method.options})

    def one(t):  # keeps only the record, so no target's profile outlives its worker
        ctx, attr, seconds = _attribute_one(ds, spec, args.method, params, t)
        return _record(ctx, args.method, attr), seconds

    results = _map_ordered(one, targets, args.threads)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(config, sort_keys=True) + "\n")
        for record, _ in results:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    seconds = [s for _, s in results]
    if args.timing_out:
        with open(args.timing_out, "w", encoding="utf-8") as fh:
            json.dump(
                {"seconds_per_target": {str(t): s for t, s in zip(targets, seconds)}},
                fh, sort_keys=True, indent=2,
            )
            fh.write("\n")
    sys.stderr.write(  # last, so that a failed run prints nothing but its error line
        f"attributed {len(targets)} target(s) with {args.method}; "
        f"mean {np.mean(seconds):.4f} s/target\n"
    )
    return 0


def _record(ctx: TargetContext, method: str, attr: Attribution) -> dict:
    names = ctx.ds.column_names
    record = {
        "target_index": ctx.target,
        "method": method,
        "values": {name: float(v) for name, v in zip(names, attr.values)},
        "nu_empty": attr.nu_empty,
        "nu_full": attr.nu_full,
        "efficiency_gap": attr.efficiency_gap,
        "params": {k: v for k, v in attr.meta.items() if v is not None},
    }
    if attr.stderr is not None:
        record["stderr"] = {name: float(v) for name, v in zip(names, attr.stderr)}
    return record


# ---------------------------------------------------------------------------
# evaluate

def _json_object(text: str, where: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise DataError(f"{where}: not valid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _read_attribution_file(path) -> tuple[dict, list[tuple[str, dict]]]:
    """Header and (location, record) pairs; the location is PATH:LINE."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")  # whole, so that a bad byte's offset is the file's
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    lines = [(f"{path}:{no}", line) for no, line in enumerate(text, start=1) if line.strip()]
    if not lines:
        raise DataError(f"{path}: empty attribution file")
    where, line = lines[0]
    header = _json_object(line, where)
    if header.get("schema") != ATTRIBUTION_SCHEMA:
        raise DataError(f"{where}: unsupported schema {header.get('schema')!r}")
    return header, [(where, _json_object(line, where)) for where, line in lines[1:]]


def _record_values(record: dict, ds, where: str) -> tuple[str, int, np.ndarray]:
    method = record.get("method", "?")
    if not isinstance(method, str):
        raise DataError(f"{where}: method must be a string, got {method!r}")
    values = record.get("values", {})
    if not isinstance(values, dict):
        raise DataError(f"{where}: values must be a JSON object, got {type(values).__name__}")
    if set(values) != set(ds.column_names):
        raise DimensionMismatch(
            f"{where}: attribution columns do not match the dataset ({len(values)} vs d={ds.d})"
        )
    for name, v in values.items():
        if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
            raise DataError(f"{where}: value of {name!r} must be a finite number, got {v!r}")
    if "target_index" not in record:
        raise DataError(f"{where}: record has no target_index")
    target = record["target_index"]
    if type(target) is not int:
        raise DataError(f"{where}: target_index must be an integer, got {target!r}")
    if not 0 <= target < ds.n:
        raise DimensionMismatch(f"{where}: target {target} outside the dataset's [0, {ds.n})")
    return method, target, np.array([values[name] for name in ds.column_names], dtype=float)


def _cmd_evaluate(args) -> int:
    ds, spec, config = _setup(args)
    config["attributions"] = [str(p) for p in args.attributions]

    records = []  # (source, method, target, values) in file order
    for path in args.attributions:
        _, lines = _read_attribution_file(path)
        records.extend((str(path), *_record_values(record, ds, where)) for where, record in lines)
    by_target: dict[int, list[int]] = {}
    for i, (_, _, target, _) in enumerate(records):
        by_target.setdefault(target, []).append(i)
    reports = [None] * len(records)
    for target, indices in by_target.items():  # one cohort value per target, across files
        value = TargetContext(ds, spec, target).value
        for i in indices:
            reports[i] = abc_report(value, records[i][3])

    rows = []
    curve_rows = []
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for (source, method, target, _), report in zip(records, reports):
        rows.append([source, method, "target", target, repr(report.abc_insertion), repr(report.abc_deletion)])
        groups.setdefault((source, method), []).append((report.abc_insertion, report.abc_deletion))
        if args.plot_data:
            for curve, points in (("insertion", report.insertion_curve), ("deletion", report.deletion_curve)):
                curve_rows.extend([source, method, target, curve, k, repr(float(v))] for k, v in enumerate(points))
    for (source, method), scores in groups.items():
        mean, se = _mean_se(scores)
        rows.append([source, method, "mean", "", repr(mean[0]), repr(mean[1])])
        rows.append([source, method, "stderr", "", repr(se[0]), repr(se[1])])

    _write_csv(args.out, config, ["source", "method", "row", "target_index", "abc_insertion", "abc_deletion"], rows)
    if args.plot_data:
        _write_csv(args.plot_data, config, ["source", "method", "target_index", "curve", "k", "value"], curve_rows)
    return 0


def _mean_se(scores) -> tuple[list[float], list[float]]:
    """Column means and standard errors (zero for one row) of (insertion, deletion) pairs."""
    arr = np.asarray(scores)
    se = arr.std(axis=0, ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else np.zeros(2)
    return arr.mean(axis=0).tolist(), se.tolist()


# ---------------------------------------------------------------------------
# compare

def _compare_variants(names: list[str], params: dict) -> list[tuple[str, str, dict]]:
    """(method, param label, params) per table row: one row per value of the
    method's sweep option (the parsed comma list, or the one default), one
    row for a method without one."""
    variants = []
    for name in names:
        opt = METHODS[name].sweep
        if opt is None:
            variants.append((name, "", params))
            continue
        values = params[opt] if isinstance(params[opt], list) else [params[opt]]
        variants.extend((name, f"{opt}={v}", {**params, opt: v}) for v in values)
    return variants


def _cmd_compare(args) -> int:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names:
        raise ConfigError("--methods must name at least one method")
    for m in names:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    params = _method_params(args, names)
    variants = _compare_variants(names, params)
    ds, spec, config = _setup(args)
    targets = _parse_targets(args.targets, ds.n)
    config.update({"methods": args.methods, "targets": args.targets, "seed": params["seed"]})

    def one(name, variant, t):
        ctx, attr, seconds = _attribute_one(ds, spec, name, variant, t)
        report = abc_report(ctx.value, attr.values)
        return (report.abc_insertion, report.abc_deletion), seconds

    rows = []
    for name, label, variant in variants:
        results = _map_ordered(lambda t: one(name, variant, t), targets, args.threads)
        mean, se = _mean_se([scores for scores, _ in results])
        secs = float(np.mean([s for _, s in results]))
        rows.append([name, label, len(targets), repr(mean[0]), repr(se[0]), repr(mean[1]), repr(se[1]), f"{secs:.6f}"])
    _write_csv(args.out, config, [
        "method", "param", "targets",
        "mean_abc_insertion", "se_abc_insertion",
        "mean_abc_deletion", "se_abc_deletion",
        "seconds_per_target",
    ], rows)
    return 0


# ---------------------------------------------------------------------------
# diagnose

def _cmd_diagnose(args) -> int:
    ds, spec, config = _setup(args)
    targets = _parse_targets(args.targets, ds.n)
    config.update({"targets": args.targets, "eps": args.eps, "samples": args.samples, "seed": args.seed})

    def one(t):
        profile = build_profile(ds, spec, t)
        report = heps_mass(profile, args.eps, args.samples, args.seed)
        corner = corner_convergence(profile) if ds.d <= CORNER_DIMENSION_CAP else None
        return [
            report.target_index, repr(report.eps), repr(report.a), repr(report.A),
            report.duplicates, report.rows_used,
            repr(report.mass_estimate), repr(report.mass_se), repr(report.theorem_bound),
            report.samples, report.seed,
            repr(corner.fraction) if corner else "",
            repr(corner.bound) if corner else "",
        ]

    rows = _map_ordered(one, targets, args.threads)
    _write_csv(args.out, config, [
        "target_index", "eps", "a", "A", "duplicates", "rows_used",
        "mass_estimate", "mass_se", "theorem_bound", "samples", "seed",
        "corner_fraction", "corner_bound",
    ], rows)
    return 0


# ---------------------------------------------------------------------------
# similarity

def _cmd_similarity(args) -> int:
    ds, spec, config = _setup(args)
    profile = build_profile(ds, spec, args.target)
    if args.describe:
        sys.stderr.write(dataset_summary(ds) + "\n")
    config["target"] = args.target
    _write_csv(args.out, config, ds.column_names, profile.indicators.astype(int).tolist())
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigError`` for a bad flag, so that it exits 2 with the
    same JSON line as every other configuration error."""

    def error(self, message):
        raise ConfigError(message)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_count, _seed = _int_at_least(1), _int_at_least(0)


def _counts(text: str) -> list[int]:
    """A comma list of counts: ``compare`` makes one row per value."""
    return [_count(v) for v in text.split(",")]


def _add_dataset_options(parser):
    parser.add_argument("--data", required=True, help="CSV file with a header row")
    parser.add_argument("--response", required=True, help="response column name")
    parser.add_argument(
        "--response-mode", default="raw",
        help="raw | residual:COL | abs-residual:COL | squared-residual:COL",
    )
    parser.add_argument(
        "--schema", action="append", metavar="COL=KIND",
        help="override column type inference (numeric|categorical); repeatable",
    )
    parser.add_argument("--config", help="similarity config file (see FORMATS.md)")
    parser.add_argument(
        "--delta", type=float,
        help=f"default relative-range delta for numeric columns (default {RelativeRange().delta})",
    )
    parser.add_argument(
        "--similarity", action="append", metavar="COL=RULE",
        help="per-column rule: equality | relative:D | absolute:W; repeatable",
    )
    parser.add_argument(
        "--threads", type=_count, default=os.cpu_count() or 1,
        help="target-level parallelism (default: all cores)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohortexplain",
        description="Model-free variable importance from observed data alone",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attribute", help="per-feature attribution of each target's response")
    _add_dataset_options(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--targets", default="all", help='e.g. "all", "3", "0-99", "1,4,7"')
    p.add_argument("--steps", type=_count, help="quadrature steps (igcs)")
    p.add_argument("--samples", type=_count, help="permutation samples (cs-mc)")
    p.add_argument("--sigma", type=float, help="kernel bandwidth (gkw)")
    p.add_argument("--seed", type=_seed, help="random seed (cs-mc, random)")
    p.add_argument("--cap", type=_count, help=f"dimension cap for exact methods (default {DEFAULTS['cap']})")
    p.add_argument("--out", required=True, help="output attribution file (JSON lines)")
    p.add_argument("--timing-out", help="optional JSON sidecar with per-target seconds")
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("evaluate", help="insertion/deletion ABC scores for attribution files")
    _add_dataset_options(p)
    p.add_argument("--attributions", required=True, nargs="+", help="attribution file(s)")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--plot-data", help="optional CSV of insertion/deletion curve points")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="ABC and timing table across methods")
    _add_dataset_options(p)
    p.add_argument("--methods", required=True, help="comma-separated method list")
    p.add_argument("--targets", default="all")
    p.add_argument("--steps", type=_counts, help="comma-separated quadrature steps for igcs rows")
    p.add_argument("--samples", type=_counts, help="comma-separated sample budgets for cs-mc rows")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--cap", type=_count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("diagnose", help="convergence-region diagnostics per target")
    _add_dataset_options(p)
    p.add_argument("--targets", default="all")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--samples", type=_count, default=2000)
    p.add_argument("--seed", type=_seed, default=DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("similarity", help="dump the 0/1 similarity indicator matrix")
    _add_dataset_options(p)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--describe", action="store_true", help="print a dataset summary to stderr")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_similarity)
    return parser


def _fail(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; a bad flag raises ConfigError
        return int(exc.code or 0)
    except ConfigError as exc:
        _fail(exc)
        return 2
    except (DataError, OSError) as exc:
        _fail(exc)
        return 3
    except ComputationError as exc:
        _fail(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
