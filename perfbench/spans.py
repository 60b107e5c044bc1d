"""Spans recorded from outside the library, around calls into its modules.

`Recorder.installed()` replaces each traced function, in every loaded
``qpencil`` module that binds it, by a wrapper that records one span per
call: name, start, end, parent span, op id, size class and error.  Class
methods are replaced on the class, so calls the library makes internally are
recorded too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

from qpencil.errors import InternalCheckError, PrecondError


def _points_scanned(args: tuple, result: Any) -> dict[str, int]:
    pencil = args[0]
    q = pencil.field.p
    return {"points": int(result), "points_scanned": (q ** (pencil.n + 1) - 1) // (q - 1)}


# (module, function or Class.method, counter taken from the call's arguments and result)
TARGETS: tuple[tuple[str, str, Callable[[tuple, Any], dict[str, int]] | None], ...] = (
    ("fqgeom", "enumerate_lines", lambda args, r: {"lines": len(r)}),
    ("fqgeom", "count_points", _points_scanned),
    ("fqgeom", "projective_points", None),
    ("toric", "toric_line_census", None),
    ("toric", "toric_singular_points", None),
    ("curvecounts", "curve_data", None),
    ("pencil", "discriminant_cover", None),
    ("pencil", "smoothness", None),
    ("pencil", "Pencil.discriminant_form", None),
    ("matrices", "det_poly", None),
    ("matrices", "signature_pair", None),
    ("univariate", "gcd_poly", None),
    ("univariate", "isolate_real_roots", None),
    ("circle", "index_circle", None),
    ("circle", "real_verdict", None),
    ("isotropy", "amer_harness", lambda args, r: {"candidates": r.candidates}),
    ("linalg", "invert", None),
    ("io", "load_pencil", None),
    ("projections", "project_from_line", None),
    ("projections", "double_projection", None),
    ("bundlecalc", "hpt_check", None),
    ("latticegroups", "torus_rationality", None),
)

SPAN_NAMES = tuple(f"{module}.{qual.split('.')[-1]}" for module, qual, _ in TARGETS)

# modules whose spans are counted in `<module>.errors`
ERROR_MODULES = tuple(dict.fromkeys([m for m, _, _ in TARGETS] + ["cli"]))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    size_class: str | None
    error: str | None
    counts: dict[str, int]


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op: tuple[int, str] | None = None

    @contextlib.contextmanager
    def span(self, name: str, op: tuple[int, str] | None = None) -> Iterator[dict[str, Any]]:
        """Record a span around the block.  The block may set ``error`` and
        ``counts`` on the yielded dict; an op span (``op`` given) becomes the
        op id and size class of every span inside it."""
        if op is not None:
            self._op = op
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        info: dict[str, Any] = {"error": None, "counts": {}}
        start = time.perf_counter()
        try:
            yield info
        except (PrecondError, InternalCheckError) as exc:
            info["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            op_id, size_class = self._op if self._op else (None, None)
            self.spans[idx] = Span(name, start, end, parent, op_id, size_class, info["error"], info["counts"])
            if op is not None:
                self._op = None

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if counter is not None:
                    info["counts"] = counter(args, result)
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Trace every target for the duration of the block."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for (module, qual, counter), name in zip(TARGETS, SPAN_NAMES):
                mod = importlib.import_module(f"qpencil.{module}")
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, counter))
                    continue
                original = getattr(mod, qual)
                wrapper = self._wrap(name, original, counter)
                for loaded in [m for k, m in sys.modules.items() if k == "qpencil" or k.startswith("qpencil.")]:
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            undo.append((loaded, attr, original))
                            setattr(loaded, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, errors and
        summed counts.  Self time is the span's duration minus the time its
        child spans cover."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time[idx]
            row["errors"] += s.error is not None
            for key, value in s.counts.items():
                row[key] += value
        return {name: dict(row) for name, row in out.items()}

    def write(self, path: str) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                if s is not None:
                    fh.write(json.dumps({"id": idx, **asdict(s)}) + "\n")
