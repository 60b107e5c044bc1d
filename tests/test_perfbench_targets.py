"""The benchmark's span targets name functions that exist in the library,
and its workloads run on the library as it stands.

`perfbench/spans.py` traces library functions by module and qualified name;
a rename in `src/qpencil` would otherwise drop a per-layer metric silently.
`perfbench/workloads.py` calls library names and reads the shapes of their
results; a change to one would otherwise fail only in a benchmark run.
"""

import importlib
import importlib.util
import sys

from qpencil.fields import QQ, PrimeField
from qpencil.pencil import diagonal_pencil, smoothness

from conftest import REPO


def _perfbench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = _perfbench_module(monkeypatch, "spans")
    for module, qual, _ in spans.TARGETS:
        owner = importlib.import_module(f"qpencil.{module}")
        *classes, attr = qual.split(".")
        for name in classes:
            owner = getattr(owner, name)
        # methods are replaced on the class itself, so they must be defined there
        assert callable(vars(owner).get(attr)), f"qpencil.{module}.{qual}"
    for field in (QQ, PrimeField(7)):
        recorder = spans.Recorder()
        with recorder.installed():
            smoothness(diagonal_pencil(field, 3))
        assert recorder.summary()["matrices.det_poly"]["calls"] == 1, field


def test_one_tiny_cycle_of_each_library_workload_passes_its_checks(monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    for name in ("fq-torsor", "q-analyze", "amer-audit"):
        workload = workloads.build(name, seed=1, tiny=True, root=REPO, in_process=True)
        for op in workload.cycle(0):
            for what, got, expected in op.checks(op.run()):
                assert got == expected, (name, op.label, what)
