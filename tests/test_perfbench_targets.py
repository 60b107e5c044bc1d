"""The benchmark's span targets name functions that exist in the library.

`perfbench/spans.py` traces library functions by module and qualified name;
a rename in `src/qpencil` would otherwise drop a per-layer metric silently.
"""

import importlib
import importlib.util
import sys

from qpencil.fields import QQ
from qpencil.pencil import diagonal_pencil, smoothness

from conftest import REPO


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = _spans_module(monkeypatch)
    for module, qual, _ in spans.TARGETS:
        owner = importlib.import_module(f"qpencil.{module}")
        *classes, attr = qual.split(".")
        for name in classes:
            owner = getattr(owner, name)
        # methods are replaced on the class itself, so they must be defined there
        assert callable(vars(owner).get(attr)), f"qpencil.{module}.{qual}"
    recorder = spans.Recorder()
    with recorder.installed():
        smoothness(diagonal_pencil(QQ, 3))
    assert recorder.summary()["matrices.det_poly"]["calls"] == 1
