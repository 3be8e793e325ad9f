"""The benchmark's timing wrappers (bench/tracing.py) replace names in the
program's modules; each must be defined where the wrapper looks it up, in
its own module or class body, or a traced bench run fails."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()


def _owner(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@pytest.mark.parametrize("module_name, attr, span", tracing.TARGETS, ids=[t[2] for t in tracing.TARGETS])
def test_trace_target_defined_in_its_owner(module_name, attr, span):
    owner, leaf = _owner(module_name, attr)
    assert leaf in owner.__dict__, f"{module_name}.{attr} is inherited or missing; the tracer needs its own definition"
    assert callable(owner.__dict__[leaf])

