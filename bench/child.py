"""One fresh process per workload run, started by run.py.

    python3 bench/child.py SPEC.json RESULT.json

With ``setup_only`` in the spec it times one set-up: the cold
``import cohortexplain.cli`` plus one load and similarity spec of the
workload CSV.  Otherwise it runs the workload's CLI commands in-process
through ``cohortexplain.cli.main(argv)``; with tracing it runs them once
untraced and once traced instead.  The parent
pins the BLAS pool through the environment before this process imports
numpy, and nothing here imports numpy before the import is timed.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback


def _import_program(src: str):
    import cohortexplain
    import cohortexplain.cli

    origin = os.path.realpath(cohortexplain.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cohortexplain imported from {origin}, not from {src}")
    return cohortexplain.cli


def blas_info() -> dict:
    """Library versions and the thread-pool size of every OpenBLAS bundled
    with numpy and scipy, as this process sees them."""
    import numpy
    import scipy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": {}, "blas_threads": {}}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            key = f"{package.__name__}:{os.path.basename(path)}"
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and config is not None:
                        threads.restype = ctypes.c_int
                        config.restype = ctypes.c_char_p
                        info["blas_threads"][key] = threads()
                        info["openblas"][key] = config().decode()
    return info


def setup(spec: dict) -> float:
    """Seconds of one load and similarity spec of the workload CSV."""
    from cohortexplain.data import RelativeRange, load_dataset, make_similarity_spec

    start = time.perf_counter()
    ds = load_dataset(spec["csv"], "y")
    make_similarity_spec(ds, default=RelativeRange(spec["delta"]))
    return time.perf_counter() - start


def _run(main, cmd: Command, argv: list, log: list) -> float:
    """Run one command; a non-zero exit or an exception is logged as a failure."""
    start = time.perf_counter()
    try:
        code = main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception:  # the benchmark keeps going and counts the failure
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    log.append({"command": cmd.command, "method": cmd.method, "seconds": seconds,
                "threads": int(argv[argv.index("--threads") + 1]), "error": error})
    return seconds


def _pass(cli, commands: list, log: list, tracer=None) -> dict:
    """One run of the whole command sequence: timings and output digests."""
    from gate import digest

    seconds = []
    for cmd in commands:
        main = cli.main
        if tracer is not None:
            tracer.command = cmd.command
            main = tracer.span(f"cli.{cmd.command}", cli.main)
        seconds.append(_run(main, cmd, cmd.argv, log))
    timings = {}
    if commands[0].timing and os.path.exists(commands[0].timing):
        with open(commands[0].timing, encoding="utf-8") as fh:
            timings = json.load(fh)["seconds_per_target"]
    return {
        "wall_s": sum(seconds),
        "command_s": seconds,
        "target_s": list(timings.values()),
        "digests": {out: digest(out, cmd.command) for cmd in commands for out in cmd.outputs
                    if os.path.exists(out)},
        "output_bytes": sum(os.path.getsize(out) for cmd in commands for out in cmd.outputs
                            if os.path.exists(out)),
    }


def workload(spec: dict) -> dict:
    start = time.perf_counter()
    cli = _import_program(spec["src"])
    import_s = time.perf_counter() - start
    if spec.get("setup_only"):
        return {"setup_s": import_s + setup(spec)}
    from gate import digest
    from workloads import Command

    commands = [Command(**c) for c in spec["commands"]]
    log: list = []
    result = {"libraries": blas_info(), "log": log}
    if not spec["trace"]:
        # one warm-up pass (checked, not timed), then a closed loop: each
        # pass starts when the last one ends, until the measuring time is
        # used up (at least one timed pass)
        passes = [_pass(cli, commands, log)]
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < spec["seconds"]:
            if any(entry["error"] for entry in log):
                break
            passes.append(_pass(cli, commands, log))
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    from tracing import Tracer, layer_metrics

    warm = _pass(cli, commands, log)  # so that the overhead compares two warm passes
    untraced = _pass(cli, commands, log)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _pass(cli, commands, log, tracer)
    finally:
        tracer.uninstall()
    result["passes"] = [warm, untraced, traced]
    result["layers"] = layer_metrics(tracer)
    result["layers"]["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    result["layers"]["cli.output_bytes"] = traced["output_bytes"]
    speedup = 0.0  # 0 marks a workload without the probe
    if spec["probe_threads"]:
        first = commands[0]
        out = first.outputs[0] + ".threads2"
        argv = list(first.argv)
        argv[argv.index("--threads") + 1] = "2"
        argv[argv.index("--out") + 1] = out
        argv[argv.index("--timing-out") + 1] = first.timing + ".threads2"
        speedup = untraced["command_s"][0] / _run(cli.main, first, argv, log)
        result["threads2"] = {"digest": digest(out, first.command),
                              "reference": untraced["digests"][first.outputs[0]]}
    result["layers"]["cli.threads2_speedup"] = speedup
    tracer.write(spec["spans_out"], spec["workload"])
    return result


def main(argv: list) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = workload(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
