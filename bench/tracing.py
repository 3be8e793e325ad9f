"""Timing wrappers installed from outside the program, and the per-layer
metrics computed from the spans they record.

The wrappers replace names in the program's modules for the length of the
traced pass and put the originals back afterwards; nothing under ``src/`` is
edited.  Spans are kept in memory as ``[name, start, end, parent, command]``
and written out once the run is over.  Traced commands run with
``--threads 1``, so one stack of open spans is enough to find each parent.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import weakref

# (module, attribute or "Class.method", span name).  The cli-bound functions
# are wrapped where the commands look them up.
TARGETS = [
    ("cohortexplain.cli", "load_dataset", "data.load_dataset"),
    ("cohortexplain.cli", "make_similarity_spec", "data.make_similarity_spec"),
    ("cohortexplain.cli", "build_profile", "similarity.build_profile"),
    ("cohortexplain.cli", "exact_shapley", "shapley.exact_shapley"),
    ("cohortexplain.cli", "mc_shapley", "shapley.mc_shapley"),
    ("cohortexplain.cli", "igcs_attribution", "igcs.igcs_attribution"),
    ("cohortexplain.cli", "abc_report", "evaluation.abc_report"),
    ("cohortexplain.cli", "heps_mass", "diagnostics.heps_mass"),
    ("cohortexplain.cli", "corner_convergence", "diagnostics.corner_convergence"),
    ("cohortexplain.shapley", "fisher_yates", "sampling.fisher_yates"),
    ("cohortexplain.values", "CohortValue.permutation_increments", "values.CohortValue.permutation_increments"),
    ("cohortexplain.values", "CohortValue.all_values", "values.CohortValue.all_values"),
    ("cohortexplain.values", "UniquenessValue.all_values", "values.UniquenessValue.all_values"),
    ("cohortexplain.values", "GkwValue.weights", "values.GkwValue.weights"),
    ("cohortexplain.igcs", "SoftValue.__init__", "igcs.SoftValue.__init__"),
]


class Tracer:
    """Records spans and the counters that only a call's arguments or
    result can give (bytes loaded, lattice evaluations, reused subsets)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.command = ""
        self.counters = {
            "load_bytes": 0,
            "igcs_nodes": 0,
            "max_abs_gap": 0.0,
            "exact_evaluations": 0,
            "mc_permutations": 0,
            "heps_samples": 0,
            "gkw_repeats": 0,
        }
        self._gkw_seen = weakref.WeakKeyDictionary()
        self._saved: list = []

    def _observe(self, name, args, result):
        c = self.counters
        if name == "data.load_dataset":
            c["load_bytes"] += os.path.getsize(args[0])
        elif name == "igcs.igcs_attribution":
            c["igcs_nodes"] += int(result.meta["steps"])
            c["max_abs_gap"] = max(c["max_abs_gap"], abs(result.efficiency_gap))
        elif name == "shapley.exact_shapley":
            c["exact_evaluations"] += int(result.meta["evaluations"])
        elif name == "shapley.mc_shapley":
            c["mc_permutations"] += int(result.meta["samples"])
        elif name == "diagnostics.heps_mass":
            c["heps_samples"] += int(result.samples)
        elif name == "values.GkwValue.weights":
            seen = self._gkw_seen.setdefault(args[0], set())
            key = tuple(sorted({int(j) for j in args[1]}))
            c["gkw_repeats"] += key in seen
            seen.add(key)

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.command]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.span(name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "workload": workload,
                                     "command": command}) + "\n")


def _self_times(spans: list) -> list:
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (name -> value) from one traced pass."""
    spans = tracer.spans
    own = _self_times(spans)
    durations: dict = {}
    self_time: dict = {}
    for (name, start, end, _, _), mine in zip(spans, own):
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + mine

    def calls(name):
        return len(durations.get(name, ()))

    def total(*names):
        return sum(sum(durations.get(n, ())) for n in names)

    def p50_ms(name):
        return 1e3 * statistics.median(durations[name]) if name in durations else 0.0

    c = tracer.counters
    load_s = total("data.load_dataset")
    gkw_calls = calls("values.GkwValue.weights")
    out = {
        "data.load_calls": calls("data.load_dataset"),
        "data.load_s": load_s,
        "data.load_mb_per_s": c["load_bytes"] / 1e6 / load_s if load_s else 0.0,
        "similarity.build_profile_calls": calls("similarity.build_profile"),
        "similarity.build_profile_s": total("similarity.build_profile"),
        "similarity.build_profile_ms_p50": p50_ms("similarity.build_profile"),
        "values.permutation_calls": calls("values.CohortValue.permutation_increments"),
        "values.permutation_s": total("values.CohortValue.permutation_increments"),
        "values.permutation_ms_p50": p50_ms("values.CohortValue.permutation_increments"),
        "values.all_values_calls": calls("values.CohortValue.all_values")
        + calls("values.UniquenessValue.all_values"),
        "values.all_values_s": total("values.CohortValue.all_values", "values.UniquenessValue.all_values"),
        "values.gkw_weights_calls": gkw_calls,
        "values.gkw_weights_s": total("values.GkwValue.weights"),
        "values.gkw_subset_reuse_ratio": c["gkw_repeats"] / gkw_calls if gkw_calls else 0.0,
        "igcs.softvalue_s": total("igcs.SoftValue.__init__"),
        "igcs.attribution_s": total("igcs.igcs_attribution"),
        "igcs.nodes": c["igcs_nodes"],
        "igcs.max_abs_efficiency_gap": c["max_abs_gap"],
        "shapley.exact_self_s": self_time.get("shapley.exact_shapley", 0.0),
        "shapley.exact_evaluations": c["exact_evaluations"],
        "shapley.mc_self_s": self_time.get("shapley.mc_shapley", 0.0),
        "shapley.mc_permutations": c["mc_permutations"],
        "sampling.fisher_yates_calls": calls("sampling.fisher_yates"),
        "sampling.fisher_yates_s": total("sampling.fisher_yates"),
        "evaluation.abc_report_calls": calls("evaluation.abc_report"),
        "evaluation.abc_report_s": total("evaluation.abc_report"),
        "evaluation.abc_ms_p50": p50_ms("evaluation.abc_report"),
        "diagnostics.heps_mass_s": total("diagnostics.heps_mass"),
        "diagnostics.heps_samples": c["heps_samples"],
        "diagnostics.corner_s": total("diagnostics.corner_convergence"),
    }
    for command in ("attribute", "evaluate", "compare", "diagnose"):
        out[f"cli.{command}.self_s"] = self_time.get(f"cli.{command}", 0.0)
    out["trace.spans"] = len(spans)
    return out
