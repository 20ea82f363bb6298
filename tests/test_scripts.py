"""Smoke runs of the scripts/ entry points, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_verify_grid_smoke():
    done = run_script("verify_grid.py", "--sizes", "6")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("\n0 violations\n")
    assert done.stderr.startswith("total ")
    again = run_script("verify_grid.py", "--sizes", "6")
    assert again.stdout == done.stdout


def test_gap_demo_smoke():
    done = run_script(
        "gap_demo.py", "--n-increasing", "8", "--n-decreasing", "14", "--alpha", "4",
        "--beta", "1", "--epsilon-increasing", "1/4", "--epsilon-decreasing", "1/2",
        "--m", "1000", "--trials", "2",
    )
    assert done.returncode == 0, done.stderr
    assert "increasing family: n=8" in done.stdout
    assert "decreasing family: n=14" in done.stdout
