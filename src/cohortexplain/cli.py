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
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import (
    AbsoluteRange,
    AbsResidual,
    ColumnKind,
    Equality,
    Raw,
    RelativeRange,
    Residual,
    SquaredResidual,
    dataset_summary,
    load_dataset,
    make_similarity_spec,
    parse_rule,
    parse_similarity_config,
)
from .diagnostics import corner_convergence, heps_mass
from .errors import (
    ComputationError,
    ConfigError,
    DataError,
    DimensionMismatch,
)
from .evaluation import abc_report
from .igcs import QuadratureSpec, SoftValue, igcs_attribution
from .sampling import fisher_yates, rng_from
from .shapley import DEFAULT_DIMENSION_CAP, Attribution, exact_shapley, mc_shapley
from .similarity import build_profile
from .values import CohortValue, GkwValue, UniquenessValue

ATTRIBUTION_SCHEMA = "cohortexplain.attribution/1"
THREADS_ENV = "COHORTEXPLAIN_THREADS"
METHODS = ("cs-exact", "igcs", "cs-mc", "gkw", "uniqueness", "random")
_METHOD_PARAMS = {
    "cs-exact": frozenset(),
    "igcs": frozenset({"steps"}),
    "cs-mc": frozenset({"samples", "seed"}),
    "gkw": frozenset({"sigma"}),
    "uniqueness": frozenset(),
    "random": frozenset({"seed"}),
}


# ---------------------------------------------------------------------------
# Argument plumbing

def _parse_response_mode(text: str):
    if text == "raw":
        return Raw()
    kind, sep, column = text.partition(":")
    if sep and column:
        if kind == "residual":
            return Residual(column)
        if kind == "abs-residual":
            return AbsResidual(column)
        if kind == "squared-residual":
            return SquaredResidual(column)
    raise ConfigError(
        f"bad response mode {text!r}; expected raw, residual:COL, abs-residual:COL or squared-residual:COL"
    )


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
                span = range(int(lo_s), int(hi_s) + 1)
            else:
                span = [int(token)]
        except ValueError:
            raise ConfigError(f"bad target token {token!r}") from None
        for t in span:
            if not 0 <= t < n:
                raise ConfigError(f"target {t} outside [0, {n})")
            if t not in seen:
                seen.add(t)
                out.append(t)
    if not out:
        raise ConfigError("no targets selected")
    return sorted(out)  # outputs are written in target-index order


def _schema_overrides(args) -> dict[str, ColumnKind]:
    overrides = {}
    for item in args.schema or []:
        name, sep, kind = item.partition("=")
        if not sep or kind not in ("numeric", "categorical"):
            raise ConfigError(f"bad schema override {item!r}; expected COL=numeric|categorical")
        overrides[name] = ColumnKind(kind)
    return overrides


def _load(args):
    mode = _parse_response_mode(args.response_mode)
    return load_dataset(args.data, args.response, mode, _schema_overrides(args) or None)


def _similarity_from_args(args, ds):
    """Per-column rules: config file first, CLI flags override."""
    default = None
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            default, overrides = parse_similarity_config(fh.read())
    if args.delta is not None:
        default = RelativeRange(args.delta)
    if default is None:
        default = RelativeRange(0.1)
    for item in args.similarity or []:
        name, sep, rule = item.partition("=")
        if not sep:
            raise ConfigError(f"bad similarity override {item!r}; expected COL=RULE")
        overrides[name] = parse_rule(rule)
    return make_similarity_spec(ds, default=default, overrides=overrides), default, overrides


def _rule_str(rule) -> str:
    if isinstance(rule, Equality):
        return "equality"
    if isinstance(rule, RelativeRange):
        return f"relative:{rule.delta!r}"
    if isinstance(rule, AbsoluteRange):
        return f"absolute:{rule.width!r}"
    raise ConfigError(f"unknown rule {rule!r}")


def _thread_count(args) -> int:
    if getattr(args, "threads", None) is not None:
        count = args.threads
    else:
        env = os.environ.get(THREADS_ENV)
        try:
            count = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ConfigError(f"bad {THREADS_ENV} value {env!r}") from None
    if count < 1:
        raise ConfigError(f"thread count must be >= 1, got {count}")
    return count


def _map_ordered(fn, items, threads: int) -> list:
    """Apply fn across items, preserving input order regardless of scheduling."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _base_config(args, command: str, ds, default, overrides) -> dict:
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "command": command,
        "data": str(args.data),
        "response": args.response,
        "response_mode": args.response_mode,
        "schema_overrides": {k: v.value for k, v in _schema_overrides(args).items()},
        "similarity_default": _rule_str(default),
        "similarity_overrides": {k: _rule_str(v) for k, v in sorted(overrides.items())},
        "n": ds.n,
        "d": ds.d,
    }


# ---------------------------------------------------------------------------
# attribute

def _validate_method_params(args):
    given = {name for name in ("steps", "samples", "sigma", "seed") if getattr(args, name) is not None}
    allowed = _METHOD_PARAMS[args.method]
    stray = given - allowed
    if stray:
        raise ConfigError(
            f"option(s) {sorted('--' + s for s in stray)} not valid with method {args.method!r}"
        )


def _random_attribution(profile, responses, seed: int) -> Attribution:
    """Ordering carrier: a seeded permutation encoded as ranks d..1."""
    d = profile.d
    perm = fisher_yates(rng_from(seed, profile.target_index), d)
    values = np.empty(d)
    values[perm] = np.arange(d, 0, -1, dtype=float)
    cv = CohortValue(profile, responses)
    nu_empty = cv.evaluate(())
    nu_full = cv.evaluate(tuple(range(d)))
    return Attribution(
        method="random",
        values=values,
        nu_empty=nu_empty,
        nu_full=nu_full,
        efficiency_gap=(nu_full - nu_empty) - float(values.sum()),
        target_index=profile.target_index,
        meta={"seed": seed},
    )


def _attribute_one(ds, spec, method: str, target: int, params: dict) -> tuple[dict, float]:
    start = time.perf_counter()
    profile = build_profile(ds, spec, target)
    if method == "cs-exact":
        attr = exact_shapley(CohortValue(profile, ds.responses), cap=params["cap"])
    elif method == "igcs":
        attr = igcs_attribution(SoftValue(profile, ds.responses), QuadratureSpec(params["steps"]))
    elif method == "cs-mc":
        attr = mc_shapley(
            CohortValue(profile, ds.responses),
            params["samples"],
            seed=rng_from(params["seed"], target),
        )
        attr.meta["seed"] = params["seed"]
    elif method == "gkw":
        attr = exact_shapley(GkwValue(ds, target, sigma=params["sigma"]), cap=params["cap"])
        attr.meta["sigma"] = params["sigma"]
    elif method == "uniqueness":
        attr = exact_shapley(UniquenessValue(profile), cap=params["cap"])
    elif method == "random":
        attr = _random_attribution(profile, ds.responses, params["seed"])
    else:
        raise ConfigError(f"unknown method {method!r}")
    seconds = time.perf_counter() - start

    record = {
        "target_index": target,
        "method": method,
        "values": {name: float(v) for name, v in zip(ds.column_names, attr.values)},
        "nu_empty": attr.nu_empty,
        "nu_full": attr.nu_full,
        "efficiency_gap": attr.efficiency_gap,
        "params": {k: v for k, v in attr.meta.items() if v is not None},
    }
    if attr.stderr is not None:
        record["stderr"] = {name: float(v) for name, v in zip(ds.column_names, attr.stderr)}
    return record, seconds


def _cmd_attribute(args) -> int:
    _validate_method_params(args)
    ds = _load(args)
    spec, default, overrides = _similarity_from_args(args, ds)
    targets = _parse_targets(args.targets, ds.n)
    params = {
        "steps": args.steps if args.steps is not None else 50,
        "samples": args.samples if args.samples is not None else 1000,
        "sigma": args.sigma if args.sigma is not None else 0.1,
        "seed": args.seed if args.seed is not None else 0,
        "cap": args.cap,
    }
    if params["samples"] < 1:
        raise ConfigError(f"--samples must be >= 1, got {params['samples']}")
    config = _base_config(args, "attribute", ds, default, overrides)
    config.update({"method": args.method, "targets": args.targets})
    for name in sorted(_METHOD_PARAMS[args.method] | ({"cap"} if args.method in ("cs-exact", "gkw", "uniqueness") else set())):
        config[name] = params[name]

    results = _map_ordered(
        lambda t: _attribute_one(ds, spec, args.method, t, params), targets, _thread_count(args)
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(config, sort_keys=True) + "\n")
        for record, _ in results:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    seconds = [s for _, s in results]
    sys.stderr.write(
        f"attributed {len(targets)} target(s) with {args.method}; "
        f"mean {np.mean(seconds):.4f} s/target\n"
    )
    if args.timing_out:
        with open(args.timing_out, "w", encoding="utf-8") as fh:
            json.dump(
                {"seconds_per_target": {str(t): s for t, s in zip(targets, seconds)}},
                fh, sort_keys=True, indent=2,
            )
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _json_object(text: str, where: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: not valid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _read_attribution_file(path) -> tuple[dict, list[tuple[str, dict]]]:
    """Header and (location, record) pairs; the location is PATH:LINE."""
    with open(path, encoding="utf-8") as fh:
        lines = [(f"{path}:{no}", line) for no, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise DataError(f"{path}: empty attribution file")
    where, line = lines[0]
    header = _json_object(line, where)
    if header.get("schema") != ATTRIBUTION_SCHEMA:
        raise DataError(f"{where}: unsupported schema {header.get('schema')!r}")
    return header, [(where, _json_object(line, where)) for where, line in lines[1:]]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _record_values(record: dict, ds, where: str) -> tuple[int, np.ndarray]:
    values = record.get("values", {})
    if not isinstance(values, dict):
        raise DataError(f"{where}: values must be a JSON object, got {type(values).__name__}")
    if set(values) != set(ds.column_names):
        raise DimensionMismatch(
            f"{where}: attribution columns do not match the dataset ({len(values)} vs d={ds.d})"
        )
    for name, v in values.items():
        if not (_is_int(v) or isinstance(v, float)):
            raise DataError(f"{where}: value of {name!r} must be a number, got {v!r}")
    if "target_index" not in record:
        raise DataError(f"{where}: record has no target_index")
    target = record["target_index"]
    if not _is_int(target):
        raise DataError(f"{where}: target_index must be an integer, got {target!r}")
    if not 0 <= target < ds.n:
        raise DimensionMismatch(f"{where}: target {target} outside the dataset's [0, {ds.n})")
    return target, np.array([values[name] for name in ds.column_names], dtype=float)


def _cmd_evaluate(args) -> int:
    ds = _load(args)
    spec, default, overrides = _similarity_from_args(args, ds)
    config = _base_config(args, "evaluate", ds, default, overrides)
    config["attributions"] = [str(p) for p in args.attributions]

    rows = []
    curve_rows = []
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for path in args.attributions:
        _, records = _read_attribution_file(path)
        for where, record in records:
            target, values = _record_values(record, ds, where)
            profile = build_profile(ds, spec, target)
            report = abc_report(CohortValue(profile, ds.responses), values)
            method = record.get("method", "?")
            rows.append((str(path), method, "target", target, report.abc_insertion, report.abc_deletion))
            groups.setdefault((str(path), method), []).append((report.abc_insertion, report.abc_deletion))
            if args.plot_data:
                for k, value in enumerate(report.insertion_curve):
                    curve_rows.append((str(path), method, target, "insertion", k, value))
                for k, value in enumerate(report.deletion_curve):
                    curve_rows.append((str(path), method, target, "deletion", k, value))

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "method", "row", "target_index", "abc_insertion", "abc_deletion"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], row[3], repr(row[4]), repr(row[5])])
        for (source, method), scores in groups.items():
            arr = np.asarray(scores)
            mean = arr.mean(axis=0)
            se = arr.std(axis=0, ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else np.zeros(2)
            writer.writerow([source, method, "mean", "", repr(float(mean[0])), repr(float(mean[1]))])
            writer.writerow([source, method, "stderr", "", repr(float(se[0])), repr(float(se[1]))])

    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8", newline="") as fh:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["source", "method", "target_index", "curve", "k", "value"])
            for row in curve_rows:
                writer.writerow([row[0], row[1], row[2], row[3], row[4], repr(float(row[5]))])
    return 0


# ---------------------------------------------------------------------------
# compare

def _compare_variants(args) -> list[tuple[str, dict]]:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods must name at least one method")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    try:
        steps_list = [int(s) for s in (args.steps or "50").split(",")]
        samples_list = [int(s) for s in (args.samples or "1000").split(",")]
    except ValueError:
        raise ConfigError("--steps and --samples take comma-separated integers") from None
    if any(s < 1 for s in steps_list) or any(m < 1 for m in samples_list):
        raise ConfigError("--steps and --samples values must be >= 1")
    variants = []
    for method in methods:
        if method == "igcs":
            variants.extend((method, {"steps": r}) for r in steps_list)
        elif method == "cs-mc":
            variants.extend((method, {"samples": m}) for m in samples_list)
        else:
            variants.append((method, {}))
    return variants


def _cmd_compare(args) -> int:
    ds = _load(args)
    spec, default, overrides = _similarity_from_args(args, ds)
    targets = _parse_targets(args.targets, ds.n)
    variants = _compare_variants(args)
    seed = args.seed if args.seed is not None else 0
    sigma = args.sigma if args.sigma is not None else 0.1
    threads = _thread_count(args)

    config = _base_config(args, "compare", ds, default, overrides)
    config.update({"methods": args.methods, "targets": args.targets, "seed": seed})

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "method", "param", "targets",
            "mean_abc_insertion", "se_abc_insertion",
            "mean_abc_deletion", "se_abc_deletion",
            "seconds_per_target",
        ])
        for method, extra in variants:
            params = {
                "steps": extra.get("steps", 50),
                "samples": extra.get("samples", 1000),
                "sigma": sigma,
                "seed": seed,
                "cap": args.cap,
            }

            def one(t):
                record, seconds = _attribute_one(ds, spec, method, t, params)
                values = np.array([record["values"][name] for name in ds.column_names])
                profile = build_profile(ds, spec, t)
                report = abc_report(CohortValue(profile, ds.responses), values)
                return report.abc_insertion, report.abc_deletion, seconds

            results = _map_ordered(one, targets, threads)
            arr = np.asarray([(i, d_) for i, d_, _ in results])
            secs = float(np.mean([s for _, _, s in results]))
            mean = arr.mean(axis=0)
            se = arr.std(axis=0, ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else np.zeros(2)
            param = ("steps=" + str(params["steps"])) if method == "igcs" else (
                ("samples=" + str(params["samples"])) if method == "cs-mc" else ""
            )
            writer.writerow([
                method, param, len(targets),
                repr(float(mean[0])), repr(float(se[0])),
                repr(float(mean[1])), repr(float(se[1])),
                f"{secs:.6f}",
            ])
    return 0


# ---------------------------------------------------------------------------
# diagnose

def _cmd_diagnose(args) -> int:
    ds = _load(args)
    spec, default, overrides = _similarity_from_args(args, ds)
    targets = _parse_targets(args.targets, ds.n)
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    seed = args.seed if args.seed is not None else 0
    config = _base_config(args, "diagnose", ds, default, overrides)
    config.update({"targets": args.targets, "eps": args.eps, "samples": args.samples, "seed": seed})

    def one(t):
        profile = build_profile(ds, spec, t)
        report = heps_mass(profile, args.eps, args.samples, seed)
        corner = corner_convergence(profile) if ds.d <= 20 else None
        return report, corner

    results = _map_ordered(one, targets, _thread_count(args))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "target_index", "eps", "a", "A", "duplicates", "rows_used",
            "mass_estimate", "mass_se", "theorem_bound", "samples", "seed",
            "corner_fraction", "corner_bound",
        ])
        for report, corner in results:
            writer.writerow([
                report.target_index, repr(report.eps), repr(report.a), repr(report.A),
                report.duplicates, report.rows_used,
                repr(report.mass_estimate), repr(report.mass_se), repr(report.theorem_bound),
                report.samples, report.seed,
                repr(corner.fraction) if corner else "",
                repr(corner.bound) if corner else "",
            ])
    return 0


# ---------------------------------------------------------------------------
# similarity

def _cmd_similarity(args) -> int:
    ds = _load(args)
    spec, default, overrides = _similarity_from_args(args, ds)
    if args.describe:
        sys.stderr.write(dataset_summary(ds) + "\n")
    profile = build_profile(ds, spec, args.target)
    config = _base_config(args, "similarity", ds, default, overrides)
    config["target"] = args.target
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ds.column_names)
        for row in profile.indicators.astype(int):
            writer.writerow(row.tolist())
    return 0


# ---------------------------------------------------------------------------
# parser

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
        help="default relative-range delta for numeric columns (default 0.1)",
    )
    parser.add_argument(
        "--similarity", action="append", metavar="COL=RULE",
        help="per-column rule: equality | relative:D | absolute:W; repeatable",
    )
    parser.add_argument(
        "--threads", type=int,
        help=f"target-level parallelism (default: ${THREADS_ENV} or all cores)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortexplain",
        description="Model-free variable importance from observed data alone",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attribute", help="per-feature attribution of each target's response")
    _add_dataset_options(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--targets", default="all", help='e.g. "all", "3", "0-99", "1,4,7"')
    p.add_argument("--steps", type=int, help="quadrature steps (igcs)")
    p.add_argument("--samples", type=int, help="permutation samples (cs-mc)")
    p.add_argument("--sigma", type=float, help="kernel bandwidth (gkw)")
    p.add_argument("--seed", type=int, help="random seed (cs-mc, random)")
    p.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP,
                   help="dimension cap for exact methods")
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
    p.add_argument("--steps", help="comma-separated quadrature steps for igcs rows")
    p.add_argument("--samples", help="comma-separated sample budgets for cs-mc rows")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("diagnose", help="convergence-region diagnostics per target")
    _add_dataset_options(p)
    p.add_argument("--targets", default="all")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        _fail(exc)
        return 2
    except DataError as exc:
        _fail(exc)
        return 3
    except OSError as exc:
        _fail(exc)
        return 3
    except ComputationError as exc:
        _fail(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
