"""The traced benchmark rebinds library functions in module namespaces.

``bench/workloads.py`` wraps ``geodiscord.bloch.coefficient_tensor`` and
the layer functions that ``geodiscord.cli`` imports.  A rebinding only
shows up in the spans if the library still looks those names up in the
same namespace, so a refactor that moves a call elsewhere would silently
empty a layer of a ``--trace 1`` run.  The bench files are loaded without
writing anything next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import geodiscord
import geodiscord.bloch
import geodiscord.cli
from geodiscord.states import ghz

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = {}
    # workloads imports reference by its bare name
    for name in ("reference", "tracer", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules


def test_cli_layers_are_bound_in_the_cli_module(bench):
    layers = bench["workloads"].Cli.cli_layers
    missing = [name for name in layers if not hasattr(geodiscord.cli, name)]
    assert not missing


def test_decompose_sees_the_rebound_coefficient_tensor(bench, tmp_path):
    tracer = bench["tracer"].Tracer()
    workload = bench["workloads"].Qubits(0, str(tmp_path))
    lib = {"geodiscord": geodiscord, "geodiscord.bloch": geodiscord.bloch}
    with workload.rebinding(lib, tracer):
        geodiscord.bloch_decompose(ghz())
    assert [span[0] for span in tracer.spans] == ["bloch.coefficient_tensor"]
    assert geodiscord.bloch.coefficient_tensor is geodiscord.coefficient_tensor
