"""Seeded end-to-end benchmark of the cohortexplain CLI.

    python3 bench/run.py --workload sparse-igcs --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

Run from the repository root.  For each workload this script generates the
seeded CSV, times the set-up in a few fresh processes (``child.py``), and
starts one more that runs the workload's commands through ``cohortexplain.cli.main(argv)``
with ``--threads 1`` and a one-thread BLAS pool: a closed loop, one command
after another, repeated while the measuring time lasts.  It checks every
output (``gate.py``), prints one line per metric, then one JSON object as the
last line of standard output.  ``--trace 1`` runs the commands once untraced
and once with timing wrappers around each layer (``tracing.py``) and reports
the per-layer split instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gate
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3  # set-ups per run, each in its own fresh process
RUN_BUDGET_S = 170.0  # every child is killed once the run has used this much

# End-to-end metrics in the last line (every workload has them) ...
GATED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# ... and the full end-to-end set, printed where the command runs.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "attribute_s": "s", "evaluate_s": "s", "compare_s": "s",
    "diagnose_s": "s", "target_ms_p50": "ms", "target_ms_p90": "ms", "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
PER_LAYER = {
    "data.load_calls": "count", "data.load_s": "s", "data.load_mb_per_s": "MB/s",
    "similarity.build_profile_calls": "count", "similarity.build_profile_s": "s",
    "similarity.build_profile_ms_p50": "ms",
    "values.permutation_calls": "count", "values.permutation_s": "s", "values.permutation_ms_p50": "ms",
    "values.all_values_calls": "count", "values.all_values_s": "s",
    "values.gkw_weights_calls": "count", "values.gkw_weights_s": "s", "values.gkw_subset_reuse_ratio": "ratio",
    "igcs.softvalue_s": "s", "igcs.attribution_s": "s", "igcs.nodes": "count",
    "igcs.max_abs_efficiency_gap": "y-units",
    "shapley.exact_self_s": "s", "shapley.exact_evaluations": "count",
    "shapley.mc_self_s": "s", "shapley.mc_permutations": "count",
    "sampling.fisher_yates_calls": "count", "sampling.fisher_yates_s": "s",
    "evaluation.abc_report_calls": "count", "evaluation.abc_report_s": "s", "evaluation.abc_ms_p50": "ms",
    "diagnostics.heps_mass_s": "s", "diagnostics.heps_samples": "count", "diagnostics.corner_s": "s",
    "cli.attribute.self_s": "s", "cli.evaluate.self_s": "s", "cli.compare.self_s": "s",
    "cli.diagnose.self_s": "s", "cli.output_bytes": "bytes", "cli.threads2_speedup": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class ChildFailed(RuntimeError):
    pass


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu_model": model}


def source_digest() -> str:
    """Hash of the program and benchmark sources: runs with equal digests
    and seeds must write byte-identical outputs."""
    h = hashlib.sha256()
    for top in (SRC, BENCH):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")) and d != "results")
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COHORTEXPLAIN_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # set-up always includes compiling the program's modules, and nothing
    # is written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(spec: dict, work: str, deadline: float) -> dict:
    """Run child.py in a fresh process; its stdout/stderr go to a log file."""
    spec_path, result_path, log_path = (os.path.join(work, f"child.{ext}") for ext in ("spec", "result", "log"))
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(BENCH, "child.py"), spec_path, result_path]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child killed after the run budget of {RUN_BUDGET_S} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def repeat_checks(result: dict, history_key: str, clean: bool) -> list:
    """Byte-identical outputs across passes, thread counts and earlier runs
    with the same sources and seed.  Only a clean run becomes the reference
    for later ones."""
    checks = []
    passes = result["passes"]
    first = passes[0]["digests"]
    for k, later in enumerate(passes[1:], start=1):
        for out, sha in first.items():
            checks.append((f"repeat:pass{k}:{os.path.basename(out)}",
                           None if later["digests"].get(out) == sha else "output differs from pass 0"))
    if "threads2" in result:
        t2 = result["threads2"]
        checks.append(("repeat:threads2", None if t2["digest"] == t2["reference"]
                       else "--threads 2 output differs from --threads 1"))
    history_path = os.path.join(BENCH, "results", "history.json")
    history = {}
    if os.path.exists(history_path):
        with open(history_path, encoding="utf-8") as fh:
            history = json.load(fh)
    earlier = history.get(history_key)
    if earlier is not None:
        for out, sha in first.items():
            if out in earlier:
                checks.append((f"repeat:earlier-run:{os.path.basename(out)}",
                               None if earlier[out] == sha else "output differs from an earlier run"))
    elif clean and not any(error for _, error in checks):
        history[history_key] = first
        tmp = history_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1, sort_keys=True)
        os.replace(tmp, history_path)
    return checks


def _median_of(passes: list, commands: list, kind: str):
    sums = [sum(s for s, c in zip(p["command_s"], commands) if c.command == kind) for p in passes]
    return statistics.median(sums) if any(c.command == kind for c in commands) else None


def end_to_end(result: dict, setups: list, commands: list) -> dict:
    passes = result["passes"][1:] or result["passes"]  # the first pass is the warm-up
    out = {"setup_s": statistics.median(setups), "wall_s": statistics.median(p["wall_s"] for p in passes)}
    for kind in ("attribute", "evaluate", "compare", "diagnose"):
        value = _median_of(passes, commands, kind)
        if value is not None:
            out[f"{kind}_s"] = value
    samples = [s for p in passes for s in p["target_s"]]
    if samples:
        out["target_ms_p50"] = 1e3 * float(np.percentile(samples, 50))
        out["target_ms_p90"] = 1e3 * float(np.percentile(samples, 90))
    out["peak_rss_mb"] = result["peak_rss_mb"]
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool, scale: str = "full") -> dict:
    """Generate, run, check and measure one workload; returns the run record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    # fixed, relative paths: the outputs' config headers name the input, and
    # runs with the same seed are compared byte for byte
    work = os.path.join("bench", ".work", f"{name}-s{seed}-{scale}")
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
              "why": workloads.WORKLOADS[name].why, "machine": machine()}
    checks: list = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        inputs, commands = workloads.build(name, seed, scale, work)
        record["facts"] = inputs.facts
        record["commands"] = [c.argv for c in commands]
        spec = {
            "src": SRC, "csv": inputs.csv, "delta": workloads.DELTA, "workload": name,
            "commands": [vars(c) | {"sources": []} for c in commands], "seconds": seconds,
            "trace": int(trace), "probe_threads": workloads.WORKLOADS[name].probe_threads,
            "spans_out": os.path.join(BENCH, "results", f"{name}-s{seed}-{scale}-spans.jsonl"),
        }
        setups = [] if trace else [spawn(spec | {"setup_only": True}, work, deadline)["setup_s"]
                                   for _ in range(SETUP_REPS)]
        result = spawn(spec, work, deadline)
        record["libraries"] = result["libraries"]
        record["settings"] = {"cli_threads": sorted({e["threads"] for e in result["log"]}),
                              "blas_threads": result["libraries"]["blas_threads"]}
        checks += [(f"run:{e['command']}:{e['method']}", e["error"]) for e in result["log"]]
        checks += gate.check_outputs(commands, inputs.response, inputs.facts["n"], inputs.facts["d"])
        checks += repeat_checks(result, f"{scale}:{name}:{seed}:{source_digest()}",
                                clean=not any(error for _, error in checks))
        record["passes"] = len(result["passes"])
        record["pass_wall_s"] = [p["wall_s"] for p in result["passes"]]
        record["outputs_sha256"] = {os.path.basename(k): v for k, v in result["passes"][0]["digests"].items()}
        if trace:
            record["metrics"] = {k: result["layers"][k] for k in PER_LAYER}
        else:
            record["metrics"] = end_to_end(result, setups, commands)
            record["setup_s_samples"] = setups
            record["target_samples"] = sum(len(p["target_s"]) for p in result["passes"][1:])
    except ChildFailed as exc:
        checks.append(("child", str(exc)))
    finally:
        os.chdir(cwd)
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    failed = [(n, e) for n, e in checks if e]
    record.update(attempted=len(checks), failed=len(failed), failures=failed)
    if not trace and "metrics" in record:
        record["metrics"]["error_rate"] = len(failed) / len(checks)
    with open(os.path.join(BENCH, "results", f"{name}-s{seed}-{scale}-t{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric with its unit, facts and settings."""
    units = PER_LAYER if record["trace"] else END_TO_END
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record.get('passes', 0)} settings={json.dumps(record.get('settings'))}")
    for name, value in record.get("metrics", {}).items():
        print(f"{record['workload']:<15} {name:<34} {value:>16.6f} {units[name]}")
    print(f"# facts {json.dumps(record.get('facts'), sort_keys=True)}")
    print(f"# machine {json.dumps(record['machine'] | record.get('libraries', {}), sort_keys=True)}")
    for name, error in record["failures"]:
        print(f"# FAILED {name}: {error}", file=sys.stderr)


def summary(records: list, prefix: bool) -> dict:
    metrics = {}
    for record in records:
        units = PER_LAYER if record["trace"] else GATED
        for name, unit in units.items():
            if name in record.get("metrics", {}):
                key = f"{record['workload']}.{name}" if prefix else name
                metrics[key] = {"value": record["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10, help="measuring time per run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cohortexplain", "cli.py")):
        print(f"error: no program source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        report(records[-1])
    print(json.dumps(summary(records, prefix=args.workload == "all"), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
