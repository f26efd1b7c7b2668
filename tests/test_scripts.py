"""Smoke test: each script runs to completion on tiny inputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARGS = {
    # relative to the working directory, which is tmp_path
    "bench.py": ["--quick", "--out", "bench.json"],
}


@pytest.mark.parametrize("script", sorted(ARGS))
def test_script_runs(script, tmp_path):
    # started from a foreign directory with no PYTHONPATH, the script must
    # still find the package next to it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *ARGS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script == "bench.py":
        record = json.loads((tmp_path / "bench.json").read_text())
        env = record["environment"]
        assert env["python"] and env["numpy"] and env["cpu_model"] and env["nproc"]
        assert record["seeds"]["scratch"] == "trial_rng(520, 0, 0)"
        scratch = record["runs"][0]
        assert scratch["run"] == "scratch_n120" and scratch["final_lp_rows"] == 1920
        assert scratch["ms_per_pivot"] > 0 and scratch["pivots_per_frame"] > 0
        runs = {run["run"]: run for run in record["runs"]}
        assert {"lp@60", "lp@120", "lp@spc:3,3,3", "adaptive_lp_drop@60",
                "branch_and_bound@48"} <= set(runs)
        assert all("branch_nodes_per_frame" in run for run in runs.values())
        assert all(re.fullmatch("[0-9a-f]{64}", run["answers"]) for run in runs.values())
        assert all(run["peak_rss_mb"] > 0 for run in runs.values())
        search = runs["branch_and_bound@48"]
        assert search["decoder"] == "branch_and_bound" and search["frames"] == 8
        assert search["branch_nodes_per_frame"] > 0  # frame t = 7 branches


def test_python_dash_m_mpdec(tmp_path):
    # the CLI runs as a module without an install: only src/ on the path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["decode", "--code", "spc:3,3", "--llr", "1,1,1,1,-1,1,1,1,1",
            "--decoder", "adaptive_lp"]
    proc = subprocess.run([sys.executable, "-m", "mpdec", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("status=ml_certified value=0 ")
