"""Smoke runs of the scripts/ entry points, each in a fresh interpreter."""

import importlib.util
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


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_still_applies():
    # each mutant's old text occurs exactly once in its file, and its test
    # files exist, so the list in scripts/mutants.py cannot rot unnoticed
    mutants = load_mutants()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 8
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        assert m.old != m.new and m.tests, m.name
        assert all((ROOT / path).is_file() for path in m.tests), m.name


def test_an_old_text_that_begins_with_a_space_matches_only_at_a_line_start():
    # a line moved one indent deeper stops matching instead of matching its tail
    mutants = load_mutants()
    mutant = mutants.Mutant("m", "x.py", "    x = 1\n", "    x = 2\n", ("t.py",))
    text = "    x = 1\n        x = 1\n"
    assert mutants.mutate(text, mutant) == "    x = 2\n        x = 1\n"
    assert mutants.mutate(text[10:], mutant) == text[10:]
