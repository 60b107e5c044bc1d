"""Smoke test: each script under scripts/ runs to exit 0 at its smallest
arguments, as a subprocess with PYTHONPATH=src."""

import os
import subprocess
import sys

import pytest

from conftest import REPO

SCRIPT_CASES = [
    (["torsor_experiment.py", "--q", "3", "--trials", "2"], "2/2 agreements"),
    (["real_classes_report.py"], "rational"),
    (["toric_census_report.py", "--qs", "3"], "all checks passed"),
    (["analyze_ladder.py", "--ns", "8"], "det_s"),
]


@pytest.mark.parametrize("argv, expected", SCRIPT_CASES, ids=[c[0][0] for c in SCRIPT_CASES])
def test_script_runs(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    argv = [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]]
    done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
