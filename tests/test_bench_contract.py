"""The benchmark's hold on the library, checked without running it.

``bench/tracer.py`` wraps the library functions named in ``TRACED``, and
``BENCHMARK.json`` names workloads that ``bench/workloads.py`` must define.
A rename or deletion on either side would otherwise show only in the
minutes-long ``bench/selftest.py``. The files are read, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    tracer = load_bench_module("tracer", monkeypatch)
    missing = [f"{home.__name__}.{name}"
               for home, names in tracer.TRACED.items()
               for name in names if not callable(getattr(home, name, None))]
    assert not missing


def test_declared_workloads_are_defined(monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert declared
    for workload in declared:
        assert workload["name"] in workloads.WORKLOADS
