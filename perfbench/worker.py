"""One benchmark run of one workload, in its own interpreter.

Started by run.py.  Sets up (import, inputs from the seed, warm-up), then
either times the workload's cycles for the given seconds (``--trace 0``) or
runs a fixed number of cycles with spans recorded and again without
(``--trace 1``).  Every op is checked by its oracle after the timed region.
The last line of stdout is a JSON object; see run.py for the fields.

Times are reported at the reference speed (see `Calibration`).  The raw
times and the reference slices are kept in the run record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

# the max_n ladder over Q: rungs n = 8..LADDER_CAP, each within LADDER_BUDGET_S
LADDER_FIRST = 8
LADDER_CAP = 11
LADDER_BUDGET_S = 2.0
PROBES = 5  # interpreter and import probes per traced run

SUBCOMMANDS = (
    "analyze", "lines", "zeta", "torsor", "project-line", "double-project",
    "toric", "torus", "amer", "hpt", "classes",
)


def arithmetic_slice() -> float:
    """Seconds taken by a fixed slice of pure-Python integer and `Fraction`
    arithmetic that never calls the library.  The collector is off, so the
    size of the heap the run has built does not change the slice's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        x = Fraction(1)
        for i in range(1, 1500):
            x = x * Fraction(i + 1, i) + Fraction(1, i * i)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Calibration:
    """The machine's speed, from reference slices timed between ops.

    On a shared host one core's speed drifts by 20-45 % within a minute, and
    the timings of a run move with it: q-analyze's throughput varied by 25 %
    (interquartile range over median) over ten runs.  A run multiplies its
    times by ``speed`` = REFERENCE_S / (median slice time), which reports them
    at the speed at which a slice takes REFERENCE_S, about its median over
    the runs that set the baseline.  Library changes cannot move the slice.
    """

    REFERENCE_S = 0.0245
    INTERVAL_S = 0.5

    def __init__(self, initial: int = 3) -> None:
        self.slices = [arithmetic_slice() for _ in range(initial)]
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a slice if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.slices.append(arithmetic_slice())
            self._last = time.perf_counter()

    @property
    def speed(self) -> float:
        return self.REFERENCE_S / statistics.median(self.slices)


def _import_library() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import qpencil.cli  # noqa: F401  (the import every workload pays)

    where = Path(qpencil.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"qpencil was imported from {where}, not from this checkout")


def environment() -> dict[str, Any]:
    def first(path: str, key: str) -> str:
        try:
            with open(path, encoding="ascii", errors="replace") as fh:
                return next(line.split(":", 1)[1].strip() for line in fh if line.startswith(key))
        except (OSError, StopIteration):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "memory": first("/proc/meminfo", "MemTotal"),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "QPENCIL_THREADS": os.environ.get("QPENCIL_THREADS", "unset"),
        "load": "closed loop, one benchmark process, one op in flight",
    }


def run_ops(
    ops: list, calibration: Calibration | None = None, recorder: Any = None, first_id: int = 0
) -> list[dict[str, Any]]:
    """Run ops one at a time; a raised op is kept with its error."""
    done = []
    for k, op in enumerate(ops):
        if calibration is not None:
            calibration.tick()
        start = time.perf_counter()
        try:
            if recorder is None:
                result, error = op.run(), None
            else:
                with recorder.span(f"op {op.label}", op=(first_id + k, op.size_class)):
                    result, error = op.run(), None
        except Exception as exc:  # the loop keeps running; the op counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        done.append({"op": op, "result": result, "error": error, "seconds": time.perf_counter() - start})
    return done


def check(done: list[dict[str, Any]], plant: bool) -> list[str]:
    """Compare every op with its oracle; return one message per failed op."""
    failures = []
    for k, rec in enumerate(done):
        op = rec["op"]
        if rec["error"] is not None:
            rec["ok"] = False
            failures.append(f"op {k} [{op.size_class}] {op.label}: raised {rec['error']}")
            continue
        try:
            triples = op.checks(rec["result"])
        except Exception as exc:  # an oracle that cannot run fails the op
            triples = [("oracle", f"{type(exc).__name__}: {exc}", "an oracle verdict")]
        if plant and k == 0:
            what, got, expected = triples[0]
            triples[0] = (what, got, ("planted wrong value", expected))
        bad = [(what, got, expected) for what, got, expected in triples if got != expected]
        rec["ok"] = not bad
        for what, got, expected in bad:
            failures.append(
                f"op {k} [{op.size_class}] {op.label}: {what}\n  got:      {_show(got)}\n  expected: {_show(expected)}"
            )
    return failures


def _show(value: Any) -> str:
    text = value.decode("utf-8", "replace") if isinstance(value, bytes) else repr(value)
    return text if len(text) <= 400 else text[:400] + f"... ({len(text)} chars)"


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def class_at(done: list[dict[str, Any]], p: int) -> dict[str, Any]:
    """The size classes of the ops ranked within 2.5 points of percentile p.
    The percentile sits on a boundary between classes when latency more than
    doubles across that window, so a small shift in rank moves it a lot."""
    ranked = sorted(done, key=lambda r: r["seconds"])
    last = len(ranked) - 1
    window = ranked[round(max(0, p - 2.5) / 100 * last) : round(min(100, p + 2.5) / 100 * last) + 1]
    step = window[-1]["seconds"] / max(window[0]["seconds"], 1e-9)
    classes = sorted({r["op"].size_class for r in window})
    return {"percentile": p, "classes": classes, "step": step, "on_boundary": step > 2}


def probe(code: str, env: dict[str, str]) -> list[tuple[float, str]]:
    """Wall time and stdout of PROBES fresh interpreters running `code`."""
    samples = []
    for _ in range(PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=60
        )
        samples.append((time.perf_counter() - start, done.stdout))
    return samples


def timed_run(workload: Any, seconds: float, calibration: Calibration) -> list[dict[str, Any]]:
    """Whole cycles until `seconds` of wall time have passed."""
    done: list[dict[str, Any]] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        done += run_ops(workload.cycle(index), calibration)
        index += 1
    return done


def traced_run(workload: Any, seconds: float, calibration: Calibration) -> tuple[list[dict[str, Any]], dict, dict]:
    """A fixed number of cycles with spans, then the same cycles without.
    Returns the traced ops, the per-layer metrics (raw times) and the trace record."""
    from spans import ERROR_MODULES, SPAN_NAMES, Recorder
    from workloads import child_env

    cycles = max(1, round(seconds / 2 / workload.nominal_cycle_s))
    recorder = Recorder()
    done: list[dict[str, Any]] = []
    with recorder.installed():
        for index in range(cycles):
            done += run_ops(workload.cycle(index), calibration, recorder, len(done))
    plain: list[dict[str, Any]] = []
    for index in range(cycles):
        plain += run_ops(workload.cycle(index), calibration)
    traced_s = sum(rec["seconds"] for rec in done)
    plain_s = sum(rec["seconds"] for rec in plain)

    rows = recorder.summary()

    def row(name: str) -> dict[str, float]:
        return rows.get(name, {})

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = (row(name).get("total_s", 0.0), "s")
        metrics[f"{name}.self_s"] = (row(name).get("self_s", 0.0), "s")
    metrics["pencil.discriminant_form.calls"] = (row("pencil.discriminant_form").get("calls", 0), "count")
    lines, points = row("fqgeom.enumerate_lines"), row("fqgeom.count_points")
    amer = row("isotropy.amer_harness")
    metrics["fqgeom.lines"] = (lines.get("lines", 0), "count")
    metrics["fqgeom.points"] = (points.get("points", 0), "count")
    metrics["fqgeom.points_scanned_per_s"] = (_rate(points.get("points_scanned", 0), points.get("total_s", 0)), "1/s")
    metrics["isotropy.candidates"] = (amer.get("candidates", 0), "count")
    metrics["isotropy.candidates_per_s"] = (_rate(amer.get("candidates", 0), amer.get("total_s", 0)), "1/s")

    env = child_env(ROOT)
    import_code = "import time; t = time.perf_counter(); import qpencil.cli; print(time.perf_counter() - t)"
    metrics["python.start_s"] = (statistics.median(wall for wall, _ in probe("pass", env)), "s")
    metrics["cli.import_s"] = (statistics.median(float(out) for _, out in probe(import_code, env)), "s")

    cli_ms: dict[str, list[float]] = {}
    errors = {module: 0 for module in ERROR_MODULES}
    if workload.name == "cli-goldens":
        for rec in done:
            cli_ms.setdefault(rec["op"].size_class, []).append(rec["seconds"] * 1000)
            errors["cli"] += rec["result"] is not None and rec["result"][0] in (2, 3)
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_ms"] = (statistics.median(cli_ms[sub]) if sub in cli_ms else 0.0, "ms")
    for name, r in rows.items():
        module = name.split(".", 1)[0]
        if module in errors:
            errors[module] += int(r.get("errors", 0))
    for module, count in errors.items():
        metrics[f"{module}.errors"] = (count, "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(str(OUT_DIR / f"{workload.name}-spans.jsonl"))
    record = {"cycles": cycles, "traced_op_s": traced_s, "untraced_op_s": plain_s, "layers": rows}
    return done, metrics, record


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def at_reference_speed(metrics: dict[str, tuple[float, str]], speed: float) -> dict[str, tuple[float, str]]:
    """Scale times by `speed` and rates by its inverse; counts and ratios stay."""
    scale = {"s": speed, "ms": speed, "1/s": 1 / speed}
    return {name: (value * scale.get(unit, 1), unit) for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() when run.py started this process")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up (a set-up probe)")
    ap.add_argument("--tiny", action="store_true", help="the self-test's small configuration")
    ap.add_argument("--plant", action="store_true", help="plant a wrong expected value in the first op")
    args = ap.parse_args(argv)

    os.environ.pop("QPENCIL_THREADS", None)
    os.chdir(ROOT)
    _import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.build(args.workload, args.seed, args.tiny, ROOT, in_process=bool(args.trace))
    run_ops(workload.warmup())
    setup_raw_s = time.monotonic() - args.started
    # slices taken right after set-up give the speed at which set-up ran
    calibration = Calibration()
    setup_s = setup_raw_s * calibration.speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        done, raw_metrics, traced = traced_run(workload, args.seconds, calibration)
    else:
        done = timed_run(workload, args.seconds, calibration)
    failures = check(done, args.plant)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    ok = sum(rec["ok"] for rec in done)
    tail = workload.tail_percentile
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-goldens" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_s,
        "speed": calibration.speed,
        "reference_slices_s": calibration.slices,
        "size_class_shares": workload.shares(),
        "tail_percentile": tail,
        "percentile_classes": [class_at(done, 50), class_at(done, tail)],
        "ops": [[k, r["op"].size_class, r["op"].label, r["seconds"] * 1000, r["ok"]] for k, r in enumerate(done)],
        "failures": failures,
    }
    if args.trace:
        record["traced"] = traced
    else:
        # the ladder runs after the timed loop, outside its figures
        max_n, record["max_n_reason"] = workloads.max_n_ladder(LADDER_FIRST, LADDER_CAP, LADDER_BUDGET_S)
        latencies = [rec["seconds"] for rec in done]
        raw_metrics = {
            "verdicts_per_s": (ok / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_tail_ms": (percentile(latencies, tail) * 1000, "ms"),
            "ok_frac": (ok / len(done), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "max_n": (max_n, "n"),
        }
        for info in record["percentile_classes"]:
            if info["on_boundary"]:
                print(f"warning: p{info['percentile']} sits on a class boundary {info['classes']}", file=sys.stderr)
    record["raw_metrics"] = raw_metrics
    metrics = at_reference_speed(raw_metrics, calibration.speed)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(done),
                "failed": len(done) - ok,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
                "setup_s": setup_s,
                "max_n_reason": record.get("max_n_reason"),
                "tail_percentile": tail,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
