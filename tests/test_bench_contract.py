"""The benchmark's hold on the library, checked without the harness.

``bench/tracer.py`` wraps the library functions named in ``TRACED``, and
``BENCHMARK.json`` names workloads that ``bench/workloads.py`` must define.
A rename or deletion on either side would otherwise show only in the
minutes-long ``bench/selftest.py``. One seed-7 cycle of each workload must
give the benchmark's ``sha256_first_cycle``, so a change to any emitted
digit shows here too. The files are read, never changed.
"""

import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
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


def test_traced_rank1_update_records_one_roots_span(monkeypatch):
    # t > 0 is solved by reflection inside secular_roots, not by a second
    # call that the tracer would record as its own span with its roots.
    from eigenrecon import core, secular
    tracer = load_bench_module("tracer", monkeypatch).Tracer()
    m = np.random.default_rng(12).uniform(-1, 1, (6, 6))
    basis = core.eigh(core.SymmetricMatrix.from_array((m + m.T) / 2))
    tracer.install()
    try:
        for t in (-0.4, 0.4):
            tracer.begin_op()
            secular.rank1_update(basis, np.arange(1.0, 7.0), t)
            op = tracer.end_op()
            assert op.calls["secular.secular_roots"] == 1 and op.roots == 6
    finally:
        tracer.restore()


def test_declared_workloads_are_defined(monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert declared
    for workload in declared:
        assert workload["name"] in workloads.WORKLOADS


# sha256_first_cycle of each workload at seed 7. The digests hash raw
# float bytes, so they hold on the numpy version and machine they were
# pinned on; elsewhere the last bits of a libm or BLAS call may differ.
PINNED_NUMPY = "2.4.6"
PINNED_MACHINE = "x86_64"
SEED7_DIGESTS = {
    "reconstruct": "eabb98b99e6e81d0131e5db69cecc6e91a0d3a62e745806c156a6873c7d33ad2",
    "rank1_stream": "223dfa90b84505615d253d59be28e0796bcdea889796238a084d380cabc22ed6",
    "pair_verify": "36658066cc43302e82980aa25345a50571236034ec5cbca9ff80604b5832205f",
    "cli_oneshot": "dc20ecd0125355d4ea275b7989a4aaffb48d7456000290758aa2d5252c86724a",
}


@pytest.mark.parametrize("name", SEED7_DIGESTS)
def test_first_cycle_digests_are_unchanged(monkeypatch, tmp_path, name):
    found = (np.__version__, platform.machine())
    if found != (PINNED_NUMPY, PINNED_MACHINE):
        pytest.skip(f"digests pinned on numpy {PINNED_NUMPY} / {PINNED_MACHINE}, "
                    f"found numpy {found[0]} / {found[1]}")
    workloads = load_bench_module("workloads", monkeypatch)
    wl = workloads.WORKLOADS[name]
    items = wl.build(np.random.default_rng(7), tmp_path)
    # The CLI in this process: its stdout, the digested part, is the same as
    # a child process's.
    run = workloads.run_cli_in_process if name == "cli_oneshot" else wl.run
    assert workloads.cycle_digest(wl, items, [run(item) for item in items]) == SEED7_DIGESTS[name]
