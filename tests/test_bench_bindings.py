"""The benchmark's traced run rebinds names inside the package; every one
of them must still exist, or a refactor silently drops a layer from the
trace.  The benchmark child's calls into the package must still bind to
their signatures, or a refactor shows only as a failed benchmark run."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


CHILD_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "child.py"

# the package callables the benchmark child calls, by the name it calls
CALLED = {
    "make_region_events": ("vwbound.ode", "make_region_events"),
    "integrate": ("vwbound.ode", "integrate"),
    "ShootingConfig": ("vwbound.shooting", "ShootingConfig"),
    "find_trapped_start": ("vwbound.shooting", "find_trapped_start"),
    "QuadraticProblem": ("vwbound.quadratic", "QuadraticProblem"),
}


def _child_calls():
    """``(name, n_positional, keywords)`` of every call the benchmark
    child makes to one of :data:`CALLED`, read from its source."""
    tree = ast.parse(CHILD_PATH.read_text(encoding="utf-8"))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in CALLED:
            calls.append((name, len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return calls


def test_child_calls_are_found():
    # make_region_events with six positional arguments, integrate with
    # tol and events, ShootingConfig(integrator_tol=...), the trapped-start
    # search with and without a config, and run_disk2's problem
    assert set(_child_calls()) >= {
        ("make_region_events", 6, ()),
        ("integrate", 4, ("tol", "events")),
        ("ShootingConfig", 0, ("integrator_tol",)),
        ("find_trapped_start", 5, ()),
        ("find_trapped_start", 4, ()),
        ("QuadraticProblem", 0, ("a", "f0", "b", "c", "window", "v0",
                                 "w_minus", "w_plus", "v_star")),
    }


@pytest.mark.parametrize("name,n_args,keywords", _child_calls())
def test_child_call_binds(name, n_args, keywords):
    # binding the call's shape to the signature runs nothing
    module_name, attr = CALLED[name]
    fn = getattr(importlib.import_module(module_name), attr)
    inspect.signature(fn).bind(*range(n_args), **dict.fromkeys(keywords))


def test_child_reads_horizon_span():
    from vwbound.shooting import ShootingConfig

    assert "horizon_span" in {f.name for f in dataclasses.fields(
        ShootingConfig)}
