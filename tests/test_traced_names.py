"""The benchmark's tracer wraps library functions by name: every name it
lists must resolve in gaussmink, so a rename fails here instead of in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("metric,modname,path", [
    (metric, modname, path)
    for metric, (modname, paths) in _layers().items() for path in paths])
def test_traced_name_resolves(metric, modname, path):
    obj = importlib.import_module(f"gaussmink.{modname}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:  # a method, wrapped on the class that defines it
        obj = getattr(obj, owner_name)
        assert attr in vars(obj), f"{metric}: {modname}.{path} is not defined"
    assert callable(getattr(obj, attr, None)), f"{metric}: {modname}.{path} is missing"
