#!/usr/bin/env python3
"""Mutation check: every named mutant must make its own test files fail.

A mutant is one exact text replacement in one file, with the test files
that must catch it.  For each mutant the runner copies src/, tests/ and
pyproject.toml into a fresh temporary directory, applies the replacement
there and runs `python -m pytest -x` on the named test files, one
subprocess at a time.  The tests first run once on an unmutated copy, so
a failing suite cannot pass for a kill.

    python scripts/mutants.py

Exit status: 0 when every mutant is killed, 1 when one survives or its
old text no longer occurs exactly once, 2 when the unmutated tests fail.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in path
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "best-of-first-tying-class",
        "src/ratiolab/optimize.py",
        "winners = {i for i in distinct if classes[i][2] == card and sign * classes[i][0] * q == p * classes[i][1]}",
        "winners = {next(i for i in distinct if classes[i][2] == card and sign * classes[i][0] * q == p * classes[i][1])}",
        ("tests/test_search_reference.py",),
    ),
    Mutant(
        "favorable-plants-t-lo-off-by-one",
        "src/ratiolab/game.py",
        "t_lo = max(s - min(alpha, s) + beta + 1, 0, alpha - (n - s))",
        "t_lo = max(s - min(alpha, s) + beta, 0, alpha - (n - s))",
        ("tests/test_game.py",),
    ),
    Mutant(
        "query-batch-ignores-f-transcript",
        "src/ratiolab/oracles.py",
        "if partner is f_oracle and f_oracle.transcript is None and size == n:",
        "if partner is f_oracle and size == n:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "supermodular-scan-ge",
        "src/ratiolab/verify.py",
        "if gain + table[base | bit_j] > table[top | bit_j]:",
        "if gain + table[base | bit_j] >= table[top | bit_j]:",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "first-difference-loses-index-0",
        "src/ratiolab/game.py",
        "if a[idx] != b[idx]:",
        "if idx and a[idx] != b[idx]:",
        ("tests/test_game.py",),
    ),
    Mutant(
        "queries-read-after-scoring",
        "src/ratiolab/game.py",
        "        queries = f_oracle.count + g_oracle.count\n"
        "        value = ratio(result.argset, f_oracle, g_oracle)\n",
        "        value = ratio(result.argset, f_oracle, g_oracle)\n"
        "        queries = f_oracle.count + g_oracle.count\n",
        ("tests/test_game.py",),
    ),
    Mutant(
        "first-difference-skips-returned-set",
        "src/ratiolab/game.py",
        "a, b = g_a(transcript.entries), g_b(transcript.entries)",
        "a, b = g_a(transcript.entries[:-1]), g_b(transcript.entries[:-1])",
        ("tests/test_game.py",),
    ),
    Mutant(
        "exhaustion-index-last-visit",
        "src/ratiolab/game.py",
        "return transcript.entries.index(last), Fraction(1)",
        "return len(transcript.entries) - 1 - transcript.entries[::-1].index(last), Fraction(1)",
        ("tests/test_game.py",),
    ),
]


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.old)


def run_tests(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[int, float]:
    """(pytest's exit status, seconds) for `tests` on a fresh copy, with `mutant` applied if given."""
    with tempfile.TemporaryDirectory(prefix="ratiolab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            target = work / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return done.returncode, time.perf_counter() - started


def main() -> int:
    tests = tuple(sorted({path for m in MUTANTS for path in m.tests}))
    status, seconds = run_tests(None, tests)
    if status:
        print(f"unmutated tests fail (pytest exit {status}): {' '.join(tests)}")
        return 2
    print(f"unmutated: pass in {seconds:.1f} s")
    survivors = 0
    for mutant in MUTANTS:
        found = occurrences(mutant)
        if found != 1:
            print(f"{mutant.name}: old text occurs {found} times in {mutant.path}")
            survivors += 1
            continue
        status, seconds = run_tests(mutant, mutant.tests)
        # pytest exits 1 when a test failed; anything else (0 included) is not a kill
        verdict = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
        survivors += status != 1
        print(f"{mutant.name}: {verdict} in {seconds:.1f} s by {' '.join(mutant.tests)}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
