"""Smoke self-test of the benchmark harness (about 15 s).

    python3 bench/selftest.py

Runs every workload at tiny sizes, untraced and traced, through the same
code path as the real benchmark; requires the correctness gate to pass and
every metric name to be reported, so that a change to the program cannot
silently break the benchmark.  It also checks that the gate rejects a
corrupted output, that the generators are seeded, that the sparse generator
reproduces the acceptance tests' fixture, and that BENCHMARK.json names the
metrics run.py prints.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

import gate
import run
import workloads

# sha256 of the acceptance tests' sparse_benchmark fixture (seed 2024,
# n=2000, d=1024, k=20): X as uint8 bytes followed by y as float64 bytes.
SPARSE_FIXTURE_SHA256 = "40ba037192ffdf3ee8b48beb85ba0775f00753f5153f617ab2c46d4fcf02d26c"

# the end-to-end metrics each workload must report, by the commands it runs
EXPECTED = {
    "sparse-igcs": {"attribute_s", "evaluate_s", "target_ms_p50", "target_ms_p90"},
    "sparse-compare": {"attribute_s", "compare_s"},
    "exact-lowd": {"attribute_s", "evaluate_s", "diagnose_s", "target_ms_p50", "target_ms_p90"},
}
ALWAYS = {"setup_s", "wall_s", "peak_rss_mb", "error_rate"}

# per-layer metrics that must be non-zero on a workload, where its layer runs
ACTIVE = {
    "sparse-igcs": ["data.load_calls", "similarity.build_profile_calls", "igcs.softvalue_s",
                    "igcs.attribution_s", "igcs.nodes", "evaluation.abc_report_calls",
                    "cli.attribute.self_s", "cli.evaluate.self_s", "cli.threads2_speedup"],
    "sparse-compare": ["values.permutation_calls", "shapley.mc_self_s", "shapley.mc_permutations",
                       "sampling.fisher_yates_calls", "evaluation.abc_report_calls", "cli.compare.self_s"],
    "exact-lowd": ["values.all_values_calls", "shapley.exact_self_s", "shapley.exact_evaluations",
                   "diagnostics.heps_mass_s", "diagnostics.heps_samples", "diagnostics.corner_s",
                   "cli.diagnose.self_s", "values.gkw_weights_calls", "values.gkw_weights_s"],
}


def scratch_dir():
    """A temporary directory inside the checkout, like every file the benchmark writes."""
    os.makedirs(os.path.join(run.BENCH, ".work"), exist_ok=True)
    return tempfile.TemporaryDirectory(dir=os.path.join(run.BENCH, ".work"))


def check(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def harness(problems: list) -> None:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(name, seed=7, seconds=1, trace=trace, scale="tiny")
            tag = f"{name} trace={int(trace)}"
            check(problems, record["failed"] == 0, f"{tag}: gate failures {record['failures']}")
            check(problems, record["attempted"] > 0, f"{tag}: nothing attempted")
            metrics = record.get("metrics", {})
            expected = set(run.PER_LAYER) if trace else ALWAYS | EXPECTED[name]
            check(problems, set(metrics) == expected,
                  f"{tag}: metrics {sorted(set(metrics) ^ expected)} missing or unexpected")
            check(problems, all(np.isfinite(v) for v in metrics.values()), f"{tag}: non-finite metric")
            if trace:
                idle = [m for m in ACTIVE[name] if not metrics.get(m)]
                check(problems, not idle, f"{tag}: layer metrics read 0: {idle}")
            else:
                check(problems, metrics.get("error_rate") == 0.0, f"{tag}: error_rate != 0")
                check(problems, record["settings"]["cli_threads"] == [1], f"{tag}: not --threads 1")
                check(problems, set(record["settings"]["blas_threads"].values()) <= {1},
                      f"{tag}: BLAS pool not pinned to 1: {record['settings']['blas_threads']}")
            for key in ("csv_bytes", "n", "d", "dissimilar_pair_density", "first_target_dissim_buckets"):
                check(problems, key in record.get("facts", {}), f"{tag}: fact {key} not recorded")


def gate_rejects_bad_output(problems: list) -> None:
    """A record whose values do not add up must fail the efficiency check."""
    with scratch_dir() as tmp:
        path = os.path.join(tmp, "bad.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": gate.ATTRIBUTION_SCHEMA}) + "\n")
            fh.write(json.dumps({"target_index": 0, "method": "cs-exact", "values": {"a": 0.5, "b": 0.25},
                                 "nu_empty": 1.0, "nu_full": 2.0, "efficiency_gap": 0.25}) + "\n")
        cmd = workloads.Command("attribute", [], [path], method="cs-exact", targets=[0])
        results = dict(gate.check_attribution(cmd, grand_mean=1.0, n=4, d=2))
        check(problems, results["cs-exact:efficiency"] is not None, "gate missed an efficiency gap of 0.25")
        check(problems, results["cs-exact:nu_empty"] is None, "gate rejected a correct nu_empty")
        results = dict(gate.check_attribution(cmd, grand_mean=1.5, n=4, d=2))
        check(problems, results["cs-exact:nu_empty"] is not None, "gate missed a wrong nu_empty")


def generators(problems: list) -> None:
    X, y = workloads.sparse_binary(2024, 2000, 1024, 20)
    sha = hashlib.sha256(X.astype(np.uint8).tobytes() + y.tobytes()).hexdigest()
    check(problems, sha == SPARSE_FIXTURE_SHA256, "sparse generator no longer reproduces the fixture draws")
    with scratch_dir() as tmp:
        generate = {w.name: (w.generate, w.size_key) for w in workloads.WORKLOADS.values()}
        generate["gkw"] = (workloads.gen_numeric, "gkw")
        for name, (gen, size_key) in generate.items():
            size = workloads.SIZES["tiny"][size_key]
            paths = [os.path.join(tmp, f"{name}-{k}.csv") for k in range(3)]
            gen(3, size, paths[0])
            gen(3, size, paths[1])
            gen(4, size, paths[2])
            data = [open(p, "rb").read() for p in paths]
            check(problems, data[0] == data[1], f"{name}: same seed, different CSV")
            check(problems, data[0] != data[2], f"{name}: different seeds, same CSV")


def benchmark_json(problems: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check(problems, {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    check(problems, {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.GATED,
          "BENCHMARK.json end_to_end differs from run.GATED")
    check(problems, {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer differs from run.PER_LAYER")


def main() -> int:
    problems: list = []
    for step in (benchmark_json, generators, gate_rejects_bad_output, harness):
        step(problems)
        print(f"{step.__name__}: {'ok' if not problems else 'FAILED'}", flush=True)
        if problems:
            break
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
