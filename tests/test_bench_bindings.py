"""The benchmark's traced run rebinds names inside the package; every one
of them must still exist, or a refactor silently drops a layer from the
trace."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module_name,attr,span", _traced())
def test_traced_name_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    # the tracer reads the binding from the owner's own namespace
    assert attr in owner.__dict__, f"{module_name}: {attr}"
