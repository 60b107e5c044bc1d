"""qpencil benchmark: one workload (or all four) for one seed.

    python3 perfbench/run.py --workload fq-torsor --seed 1 --seconds 20 --trace 0

Run from the root of a qpencil checkout; the library is imported from its
``src``.  With ``--trace 0`` the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (setup_s, verdicts_per_s, latency_p50_ms,
latency_tail_ms, ok_frac, peak_rss_mb, max_n); with ``--trace 1`` it carries
the per-layer metrics instead.  A wrong verdict is printed with both sides on
stderr and the exit code is 1.  Each run also writes its record (environment,
size class of every op, percentile classes, spans) to ``.perfbench_out/``.
See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fq-torsor", "q-analyze", "amer-audit", "cli-goldens")
SETUP_SAMPLES = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170


def _child(args: argparse.Namespace, workload: str, deadline: float, *extra: str) -> tuple[int, dict | None]:
    """Run one worker process; return its exit code and its JSON line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--started", repr(time.monotonic()), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant:
        cmd.append("--plant")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1, None
    lines = out.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def run_one(args: argparse.Namespace, workload: str) -> tuple[int, dict | None]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, probe = _child(args, workload, deadline, "--setup-only")
            if code or probe is None:
                return code or 1, None
            setups.append(probe["setup_s"])
    code, result = _child(args, workload, deadline)
    if result is None:
        return code or 1, None
    if not args.trace:
        setups.append(result["setup_s"])
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **result["metrics"]}
    note = f"# {workload} seed {args.seed}: tail = p{result['tail_percentile']}"
    print(note + (f", max_n reason: {result['max_n_reason']}" if result["max_n_reason"] else ""))
    return code, {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    ap = argparse.ArgumentParser(description="qpencil benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    ap.add_argument("--tiny", action="store_true", help="small inputs (the self-test)")
    ap.add_argument("--plant", action="store_true", help="plant a wrong expected value (the self-test)")
    args = ap.parse_args()

    missing = [p for p in ("src/qpencil/__init__.py", "tests/test_cli.py", "tests/golden", "inputs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a qpencil checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, result = run_one(args, args.workload)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # every workload in turn; metric names carry the workload as a prefix
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(args, workload)
        if result is None:
            return code or 1
        worst = max(worst, code)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:12} {name:40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
