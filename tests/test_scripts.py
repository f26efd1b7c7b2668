"""Smoke test: each experiment script runs to completion on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARGS = {
    "adaptive_lp_profile.py": ["--sizes", "30", "--trials", "5"],
    "fractional_distance_report.py": ["--codes", "spc:3,3"],
    "fer_comparison.py": ["--points", "0.05", "--errors", "2", "--max-frames", "20"],
    "search_timing.py": ["--n", "12", "--frames", "2"],
}


@pytest.mark.parametrize("script", sorted(ARGS))
def test_script_runs(script, tmp_path):
    # started from a foreign directory with no PYTHONPATH, the script must
    # still find the package next to it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *ARGS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_mpdec(tmp_path):
    # the CLI runs as a module without an install: only src/ on the path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["decode", "--code", "spc:3,3", "--llr", "1,1,1,1,-1,1,1,1,1",
            "--decoder", "adaptive_lp"]
    proc = subprocess.run([sys.executable, "-m", "mpdec", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("status=ml_certified value=0 ")
