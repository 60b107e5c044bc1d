"""Self-test of the benchmark on a tiny configuration of all four workloads.

    python3 perfbench/selftest.py

For each workload: a clean run (untraced and traced) must pass every oracle,
report exactly the metrics BENCHMARK.json names and exit 0, and a run with a
wrong expected value planted in its first op must report that op as failed,
print both sides and exit non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fq-torsor", "q-analyze", "amer-audit", "cli-goldens")


def run(workload: str, *flags: str) -> tuple[int, dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.5", "--tiny", *flags],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1]), done.stderr


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {trace: [m["name"] for m in spec[key]] for trace, key in (("0", "end_to_end"), ("1", "per_layer"))}
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, res, err = run(workload, "--trace", trace)
            if code or not res["correct"] or res["failed"]:
                problems.append(f"{workload} --trace {trace}: clean run failed (exit {code})\n{err}")
            if sorted(res["metrics"]) != sorted(names[trace]):
                problems.append(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json")
        code, res, err = run(workload, "--plant")
        if code == 0 or res["correct"] or res["failed"] < 1 or "planted wrong value" not in err:
            problems.append(f"{workload}: the planted wrong value was not reported (exit {code}, {res})")
        print(f"{workload}: ok" if not problems else f"{workload}: see below", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
