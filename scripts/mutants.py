#!/usr/bin/env python3
"""Mutation check: every named mutant must make its own test files fail.

A mutant is one exact text replacement in one file, with the test files
that must catch it.  For each mutant the runner copies src/, tests/,
scripts/ and pyproject.toml into a fresh temporary directory, applies the replacement
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
        "best-of-last-winning-byte",
        "src/ratiolab/optimize.py",
        "chunk[min(map(ids.find, winners))]",
        "chunk[min(map(ids.rfind, winners))]",
        ("tests/test_optimize.py",),
    ),
    Mutant(
        "best-of-presence-scan-skips-last-class",
        "src/ratiolab/optimize.py",
        "[i for i in range(len(classes)) if i in ids]",
        "[i for i in range(len(classes) - 1) if i in ids]",
        ("tests/test_optimize.py",),
    ),
    Mutant(
        "query-batch-skips-g-zero",
        "src/ratiolab/oracles.py",
        "if classes[0] is not None or 0 not in ids:",
        "if classes[0] is not None or ids:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "favorable-plants-t-lo-off-by-one",
        "src/ratiolab/game.py",
        "t_lo = max(_threshold(alpha, beta, s), alpha - (n - s))",
        "t_lo = max(_threshold(alpha, beta, s) - 1, alpha - (n - s))",
        ("tests/test_game.py",),
    ),
    Mutant(
        "threshold-off-by-one",
        "src/ratiolab/game.py",
        "return s - min(alpha, s) + beta + 1",
        "return s - min(alpha, s) + beta + 2",
        ("tests/test_game_scoring.py", "tests/test_oracles.py"),
    ),
    Mutant(
        "query-batch-ignores-f-transcript",
        "src/ratiolab/oracles.py",
        "if partner is f_oracle and f_oracle.transcript is None and size == n:",
        "if partner is f_oracle and size == n:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "verify-block-ends-one-short",
        "src/ratiolab/verify.py",
        "masks = range(start, min(start + BLOCK, 1 << n))",
        "masks = range(start, min(start + BLOCK - 1, 1 << n))",
        ("tests/test_verify_blocks.py",),
    ),
    Mutant(
        "verify-replays-read-at-the-complement-cardinality",
        "src/ratiolab/verify.py",
        "zip(subsets, map(repeats.__getitem__, cards))",
        "zip(subsets, map(repeats.__getitem__, cards[::-1]))",
        ("tests/test_verify_blocks.py", "tests/test_verify.py"),
    ),
    Mutant(
        "record-appends-no-card",
        "src/ratiolab/oracles.py",
        "        self.entries.append(mask)\n        self.cards.append(mask.bit_count())\n",
        "        self.entries.append(mask)\n",
        ("tests/test_game_scoring.py",),
    ),
    Mutant(
        "supermodular-scan-ge",
        "src/ratiolab/verify.py",
        "_first_bases(gt, _split(gain",
        "_first_bases(lambda a, b: a >= b, _split(gain",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "unsqueeze-drops-a-place",
        "src/ratiolab/verify.py",
        "(k >> i << (i + 1))",
        "(k >> i << i)",
        ("tests/test_verify.py", "tests/test_verify_reference.py"),
    ),
    Mutant(
        "monotone-comparison-swapped",
        "src/ratiolab/verify.py",
        'wrong_sign = gt if direction == "nondecreasing" else lt',
        'wrong_sign = lt if direction == "nondecreasing" else gt',
        ("tests/test_verify.py", "tests/test_verify_reference.py"),
    ),
    Mutant(
        "supermodular-pair-cap-one-short",
        "src/ratiolab/verify.py",
        "_split(gain, 1 << (j - 1)), cap)",
        "_split(gain, 1 << (j - 1)), cap - 1)",
        ("tests/test_verify.py", "tests/test_verify_reference.py"),
    ),
    Mutant(
        "supermodular-records-unsorted",
        "src/ratiolab/verify.py",
        "    found.sort()\n    return [\n        ViolationRecord(",
        "    return [\n        ViolationRecord(",
        ("tests/test_verify.py", "tests/test_verify_reference.py"),
    ),
    Mutant(
        "monotone-records-unsorted",
        "src/ratiolab/verify.py",
        "    found.sort()\n    return [(Subset(base, n), i,",
        "    return [(Subset(base, n), i,",
        ("tests/test_verify.py", "tests/test_verify_reference.py"),
    ),
    Mutant(
        "queries-read-after-scoring",
        "src/ratiolab/game.py",
        "    queries = f_oracle.count + g_oracle.count\n"
        "    value = ratio(result.argset, f_oracle, g_oracle)\n",
        "    value = ratio(result.argset, f_oracle, g_oracle)\n"
        "    queries = f_oracle.count + g_oracle.count\n",
        ("tests/test_game.py",),
    ),
    Mutant(
        "exhaustion-index-last-visit",
        "src/ratiolab/game.py",
        "return transcript.entries.index(last), Fraction(1)",
        "return len(transcript.entries) - 1 - transcript.entries[::-1].index(last), Fraction(1)",
        ("tests/test_game.py",),
    ),
    # Brute force's block path: a step-1 range inside one aligned block answered as bytes.
    Mutant(
        "block-without-plant-patch",
        "src/ratiolab/oracles.py",
        "if start <= plant < stop:",
        "if start <= plant < stop and False:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "block-without-edge-check",
        "src/ratiolab/oracles.py",
        "if not 0 <= start < stop <= min(high + BLOCK, 1 << n):",
        "if not 0 <= start < stop <= 1 << n:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "block-high-counts-swapped",
        "src/ratiolab/oracles.py",
        "out_high, card_high = counts = (high & out).bit_count(), high.bit_count()",
        "card_high, out_high = counts = (high & out).bit_count(), high.bit_count()",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "block-without-256-class-guard",
        "src/ratiolab/oracles.py",
        "if len(classes) > 256:",
        "if len(classes) > 256 and False:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "block-low-state-mask-wrong",
        "src/ratiolab/oracles.py",
        "_low_states(out & (BLOCK - 1))",
        "_low_states(out & (BLOCK - 2))",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "range-charged-one-short",
        "src/ratiolab/oracles.py",
        "            f_oracle.count += len(masks)\n",
        "            f_oracle.count += len(masks) - (type(masks) is range)\n",
        ("tests/test_oracles.py", "tests/test_optimize.py"),
    ),
    Mutant(
        "brute-cuts-one-past-each-block",
        "src/ratiolab/optimize.py",
        "cuts = [1, *range(BLOCK, 1 << n, BLOCK), 1 << n]",
        "cuts = [1, *range(BLOCK + 1, 1 << n, BLOCK), 1 << n]",
        ("tests/test_optimize.py",),
    ),
    # The stream's bulk cut: a batch of words spread into slots, cut at the first word >= bound.
    Mutant(
        "batch-without-bound-test",
        "src/ratiolab/sampling.py",
        "    if over:\n",
        "    if over and False:\n",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "spread-step-one-bit-far",
        "src/ratiolab/sampling.py",
        "half * (slot - k)))",
        "half * (slot - k) + 1))",
        ("tests/test_sampling.py",),
    ),
    # Refill blocks hashed from copies of the key's SHA-256 state.
    Mutant(
        "block-hashing-updates-the-key-state-in-place",
        "src/ratiolab/sampling.py",
        "block = keyed.copy()",
        "block = keyed",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "stream-hash-from-openssl",
        "src/ratiolab/sampling.py",
        'sha256 = import_module("_sha256").sha256',
        'sha256 = import_module("hashlib").sha256',
        ("tests/test_sampling.py",),
    ),
    # Random search's lists and the list winner.
    Mutant(
        "mask-lists-drop-last-partial",
        "src/ratiolab/sampling.py",
        "for done in range(0, count, BLOCK))",
        "for done in range(0, count - BLOCK + 1, BLOCK))",
        ("tests/test_optimize.py", "tests/test_search_reference.py"),
    ),
    Mutant(
        "list-winner-first-drawn",
        "src/ratiolab/optimize.py",
        "mask = min(compress(chunk, ids.translate(selector)))",
        "mask = next(compress(chunk, ids.translate(selector)))",
        ("tests/test_search_reference.py",),
    ),
    # Local search's swaps, each a drop-one mask plus an added element.
    Mutant(
        "swap-built-from-the-add-one-mask",
        "src/ratiolab/optimize.py",
        "[d | a for d in drops for a in adds]",
        "[current | a for d in drops for a in adds]",
        ("tests/test_search_reference.py",),
    ),
    # One trial flow: the unplanted run first, a separated decreasing trial run again and reported from that run.
    Mutant(
        "rerun-prefix-check-disabled",
        "src/ratiolab/game.py",
        "if transcript.entries[:first_idx + 1] != prefix:",
        "if False:",
        ("tests/test_game.py",),
    ),
    Mutant(
        "separated-trial-reported-from-unplanted-run",
        "src/ratiolab/game.py",
        "            transcript, queries, value = _run(algorithm, planted, trial_seed)\n",
        "            _run(algorithm, planted, trial_seed)\n",
        ("tests/test_game.py",),
    ),
    # The decreasing game scored from masks alone, on the band t(s) <= min(alpha, s), which is beta < s < 2 alpha - beta.
    Mutant(
        "live-band-starts-at-beta-plus-two",
        "src/ratiolab/game.py",
        "t[s] <= min(alpha, s) for s",
        "t[s] <= min(alpha, s - 1) for s",
        ("tests/test_game_scoring.py",),
    ),
    Mutant(
        "live-band-ends-one-cardinality-early",
        "src/ratiolab/game.py",
        "t[s] <= min(alpha, s) for s",
        "t[s] <= min(alpha - 1, s) for s",
        ("tests/test_game_scoring.py",),
    ),
    Mutant(
        "band-scan-resumes-two-past-a-quiet-hit",
        "src/ratiolab/game.py",
        "i = flags.find(1, i + 1)",
        "i = flags.find(1, i + 2)",
        ("tests/test_game_scoring.py",),
    ),
    # The |S| a table chunk records: read off its ids' classes, from the chunk's first entry.  On
    # every unplanted pair a class id is |S|, so only a planted pair tells the raw ids apart.
    Mutant(
        "run-start-off-by-one",
        "src/ratiolab/oracles.py",
        "transcript.cards += ids.translate(card_of) if",
        "transcript.cards += (b\"\\0\" + ids.translate(card_of))[:-1] if",
        ("tests/test_game_scoring.py",),
    ),
    Mutant(
        "cards-from-raw-class-ids",
        "src/ratiolab/oracles.py",
        "transcript.cards += ids.translate(card_of) if",
        "transcript.cards += ids if",
        ("tests/test_oracles.py",),
    ),
    # The increasing game rechecked at every entry: the planted pair's ids against the unplanted pair's ids at |S|.
    Mutant(
        "recheck-compares-recorded-ids-with-themselves",
        "src/ratiolab/game.py",
        "if planted(transcript.entries) != transcript.cards.translate(by_card):",
        "if transcript.cards.translate(by_card) != transcript.cards.translate(by_card):",
        ("tests/test_game.py",),
    ),
    Mutant(
        "recheck-ids-by-cardinality-from-the-planted-pair",
        "src/ratiolab/game.py",
        "by_card = class_lookup(unplanted)[0]([(1 << c) - 1 for c in range(n + 1)])",
        "by_card = planted([(1 << c) - 1 for c in range(n + 1)])",
        ("tests/test_game.py",),
    ),
    Mutant(
        "recheck-ids-by-cardinality-drop-the-full-set",
        "src/ratiolab/game.py",
        "by_card = class_lookup(unplanted)[0]([(1 << c) - 1 for c in range(n + 1)])",
        "by_card = class_lookup(unplanted)[0]([(1 << c) - 1 for c in range(n)])",
        ("tests/test_game.py",),
    ),
    Mutant(
        "listed-ids-ignore-the-plant",
        "src/ratiolab/oracles.py",
        "if rule == _BY_GRID or rule == _BY_PLANT and plant in masks:",
        "if rule == _BY_GRID:",
        ("tests/test_oracles.py",),
    ),
    # Type checks that come before any field of the instance is read.
    Mutant(
        "side-reads-n-before-the-type-check",
        "src/ratiolab/oracles.py",
        "    if not isinstance(inst, Instance):\n"
        "        raise ParameterError(f\"unknown instance type: {type(inst).__name__}\")\n"
        "    n = inst.n\n",
        "    n = inst.n\n"
        "    if not isinstance(inst, Instance):\n"
        "        raise ParameterError(f\"unknown instance type: {type(inst).__name__}\")\n",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "difference-criterion-takes-any-instance",
        "src/ratiolab/game.py",
        "if not isinstance(inst, DecreasingInstance):",
        "if not isinstance(inst, (DecreasingInstance, IncreasingInstance)):",
        ("tests/test_oracles.py",),
    ),
    # Hand-run in earlier changes and kept here.
    Mutant(
        "evaluator-grid-row-by-cardinality",
        "src/ratiolab/oracles.py",
        "return _t[(mask & _o).bit_count()][mask.bit_count()]",
        "return _t[mask.bit_count()][mask.bit_count()]",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "kernel-grid-row-by-cardinality",
        "src/ratiolab/oracles.py",
        "rows[(mask & out).bit_count()][mask.bit_count()]",
        "rows[mask.bit_count()][mask.bit_count()]",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "dec-grid-tail-repeats-first-row",
        "src/ratiolab/oracles.py",
        "rows + rows[-1:] * tail",
        "rows + rows[:1] * tail",
        ("tests/test_oracles.py",),
    ),
    # The stream's state: the pool holds only its unread bits, and a list draw
    # refuses bad arguments when it is called, before any list is asked for.
    Mutant(
        "pool-unmasked-at-write-back",
        "src/ratiolab/sampling.py",
        "self._pool, self._pool_bits, self._counter = pool & ((1 << bits) - 1), bits, counter",
        "self._pool, self._pool_bits, self._counter = pool, bits, counter",
        ("tests/test_sampling.py", "tests/test_draw_lists.py"),
    ),
    Mutant(
        "list-draw-checks-its-arguments-lazily",
        "src/ratiolab/sampling.py",
        "        check_count(n, 1, \"ground size\")\n        check_count(count, 0, \"draw count\")\n"
        "        return (self._words(n, (1 << n) - 1, 1, min(BLOCK, count - done)) for done in range(0, count, BLOCK))\n",
        "        def lists():\n            check_count(n, 1, \"ground size\")\n            check_count(count, 0, \"draw count\")\n"
        "            yield from (self._words(n, (1 << n) - 1, 1, min(BLOCK, count - done)) for done in range(0, count, BLOCK))\n"
        "\n        return lists()\n",
        ("tests/test_sampling.py", "tests/test_draw_lists.py"),
    ),
    Mutant(
        "refill-hashes-a-full-pool",
        "src/ratiolab/sampling.py",
        "blocks = min(most, (k * count - bits + 255) >> 8)",
        "blocks = most",
        ("tests/test_sampling.py",),
    ),
    # The memoised parser keeping set_defaults(func=cmd_*) took two edits, the
    # defaults in build_parser and dispatch through args.func; its one-edit
    # form binds a handler when the table is built, just as set_defaults did.
    Mutant(
        "command-table-binds-its-handler-early",
        "src/ratiolab/cli.py",
        '"prob": lambda args: cmd_prob(args),',
        '"prob": cmd_prob,',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "union-bound-without-count",
        "src/ratiolab/game.py",
        "favorable += times * _favorable_plants(n, alpha, beta, s)",
        "favorable += _favorable_plants(n, alpha, beta, s)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "union-bound-without-empty-sequence-guard",
        "src/ratiolab/game.py",
        "    _check_query(n, alpha, beta, 0)\n    favorable = 0\n",
        "    favorable = 0\n",
        ("tests/test_game.py",),
    ),
    Mutant(
        "stream-rejection-le",
        "src/ratiolab/sampling.py",
        "if word < bound:",
        "if word <= bound:",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "query-batch-without-n-check",
        "src/ratiolab/oracles.py",
        "if partner is f_oracle and f_oracle.transcript is None and size == n:",
        "if partner is f_oracle and f_oracle.transcript is None:",
        ("tests/test_oracles.py",),
    ),
    Mutant(
        "union-bound-without-cap",
        "src/ratiolab/game.py",
        "return Fraction(1) if favorable >= plants else Fraction(favorable, plants)",
        "return Fraction(favorable, plants)",
        ("tests/test_game.py",),
    ),
]


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.old)


def run_tests(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[int, float]:
    """(pytest's exit status, seconds) for `tests` on a fresh copy, with `mutant` applied if given."""
    with tempfile.TemporaryDirectory(prefix="ratiolab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "scripts"):
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
