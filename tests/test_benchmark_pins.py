"""The package calls that the benchmark under ``perfbench/`` makes, run in-process.

The benchmark wraps three methods by name when tracing, builds its models
through ``operators.sigma_minus`` / ``sigma_z`` / ``embed_site`` and their
``.mat``, and builds a model in its worker as ``SLHModel.factored(S, theta,
sigma_minus(), c * sigma_z())``.  Renaming or deleting any of these breaks the
benchmark only when it runs; this test breaks first.  It imports the
benchmark's modules from their directory and writes nothing there.
"""

import importlib
import os
import sys

import pytest

import photon_slh

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = ("cases", "checks", "tracing", "worker")


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's modules, imported without bytecode and removed afterwards;
    the directory must list the same files after the test as before the import."""
    if not os.path.isdir(PERFBENCH):
        pytest.skip("no perfbench/ beside tests/")
    assert not any(name in sys.modules for name in MODULES)
    before = sorted(os.listdir(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "argv", ["worker.py", ROOT])  # the worker reads its root here
    monkeypatch.syspath_prepend(PERFBENCH)  # sys.path is restored afterwards
    try:
        yield tuple(importlib.import_module(name) for name in MODULES)
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)
    assert sorted(os.listdir(PERFBENCH)) == before


def test_benchmark_calls_resolve(perfbench, tmp_path):
    cases, checks, tracing, worker = perfbench
    tracer = tracing.Tracer(photon_slh)  # looks the traced methods up by name
    per_workload = {w: cases.cycle(w, 7, 0, str(tmp_path)) for w in cases.WORKLOADS}
    assert all(per_workload.values())
    assert {"single.json", "site0.json", "site1.json"} <= set(os.listdir(tmp_path / "c0"))
    for name in ("single.json", "site1.json"):
        photon_slh.load_model(tmp_path / "c0" / name)

    case = per_workload["ode-oracle"][0]
    assert case["spec"]["kind"] == "lib" and case["spec"]["ode"]
    materialize = photon_slh.PulseSpec.materialize
    tracer.install()
    try:
        result = worker._lib_op(case["spec"])
    finally:
        tracer.uninstall()
    assert photon_slh.PulseSpec.materialize is materialize
    cause, l2 = checks.check(case, result)
    assert cause is None and l2 <= 1e-4
    names = {span[2] for span in tracer.spans}
    assert {"transfer.from_model", "pulses.materialize", "pulses.shape_fft",
            "pulses.shape_ode"} <= names
    assert all(span[6] is None for span in tracer.spans)  # no span raised
