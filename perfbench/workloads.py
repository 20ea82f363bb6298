"""The four benchmark workloads: their inputs, their units and their output checks.

A workload is built for one variant (the run's seed modulo VARIANTS).  Each
repeat runs the same fixed list of operations.  An operation is one call
into ratiolab's public API; `unit` operations are the ones whose times make
up the unit percentiles (one game trial, one check_* call, one cli.main
call).  Every operation returns a raw result that `observe` turns into the
JSON form pinned in golden/<workload>.json, captured from the seed code.
An operation's uid names its inputs, so one uid has one expected output
whichever variant runs it.

Package functions are always looked up through their module at call time
(`m.game.run_game_increasing`, never a local alias) so that the traced run's
rebinding reaches every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

VARIANTS = 16


@dataclass
class Op:
    uid: str
    fn: Callable[[], object]
    observe: Callable[[object], object]
    unit: bool = True
    # For operations with no pinned output: returns a failure reason or None.
    invariant: Callable[[object], str | None] | None = None


def load():
    """Import the package: the first half of set-up."""
    import ratiolab
    import ratiolab.cli
    import ratiolab.game
    import ratiolab.instances
    import ratiolab.optimize
    import ratiolab.oracles
    import ratiolab.sampling
    import ratiolab.verify

    return SimpleNamespace(
        ratiolab=ratiolab,
        cli=ratiolab.cli,
        game=ratiolab.game,
        instances=ratiolab.instances,
        optimize=ratiolab.optimize,
        oracles=ratiolab.oracles,
        sampling=ratiolab.sampling,
        verify=ratiolab.verify,
    )


def _report_rows(m, reports) -> list[list[str]]:
    return [[str(x) for x in m.game.game_report_row(r)] for r in reports]


class GameWorkload:
    """Single-trial game calls, random-search trials first, then local-search trials.

    Random trials cost the same on every seed (the budget is always spent);
    local trials stop at a local minimum, so their cost depends on the seed.
    Random trials are two thirds of the units, which keeps p50 and p90 inside
    the random-trial cluster instead of on the edge between the two.
    """

    random_trials: int
    local_trials: int
    min_repeats: int

    def instance(self, m):
        raise NotImplementedError

    def budget(self, n: int) -> int:
        raise NotImplementedError

    def runner(self, m):
        raise NotImplementedError

    @property
    def units_per_repeat(self) -> int:
        return self.random_trials + self.local_trials

    def build(self, m, variant: int, workdir: str) -> list[Op]:
        inst = self.instance(m)
        budget = self.budget(inst.n)
        ops: list[Op] = []
        for method, count, offset in (
            ("random", self.random_trials, 0),
            ("local", self.local_trials, 500),
        ):
            algorithm = m.optimize.make_algorithm(method, budget)
            reports: list = []
            for i in range(count):
                seed = 1000 * variant + offset + i
                ops.append(Op(
                    f"{method}/{seed}",
                    self._trial(m, algorithm, inst, seed, reports),
                    lambda r, m=m: _report_rows(m, r),
                ))
            ops.append(Op(
                f"{method}/summary/v{variant}",
                lambda reports=reports: m.game.summarize_games(reports),
                lambda s: s,
                unit=False,
            ))
        return ops

    def _trial(self, m, algorithm, inst, seed, sink):
        def run():
            reports = self.runner(m)(algorithm, inst, seed, 1)
            sink.extend(reports)
            return reports
        return run


class GameIncreasing(GameWorkload):
    name = "game-increasing"
    why = "criterion 7's increasing game at budget n^3: the per-query path plus plant search and recheck"
    random_trials = 4
    local_trials = 2
    min_repeats = 8

    def instance(self, m):
        return m.instances.IncreasingInstance(30, 10**6, Fraction(1, 1000))

    def budget(self, n: int) -> int:
        return n**3

    def runner(self, m):
        return m.game.run_game_increasing


class GameDecreasing(GameWorkload):
    name = "game-decreasing"
    why = "the decreasing game on 100-bit masks: plant draws, difference scan and exact union bound"
    random_trials = 12
    local_trials = 6
    min_repeats = 6

    def instance(self, m):
        return m.instances.DecreasingInstance(100, 10, 5, Fraction(1, 100))

    def budget(self, n: int) -> int:
        return n**2

    def runner(self, m):
        return m.game.run_game_decreasing


def _render_violations(kind: str, found) -> list:
    if kind == "supermodular":
        return [[v.base.hex_mask(), v.i, v.j, str(v.lhs_margin), str(v.rhs_margin)] for v in found]
    if kind == "monotone":
        return [[S.hex_mask(), i, str(margin)] for S, i, margin in found]
    return [[S.hex_mask(), str(value)] for S, value in found]


class VerifyGrid:
    """Criterion 1's structural grid: every check on every cell, cells in seeded order.

    The cells, plants and parameters are those of
    test_criterion_1_structural_grid, at n = 6, 8, 9 and 10; the seed only
    shuffles their order.  n = 12 alone would take 13 s per repeat.  n = 9
    is added because unit times cluster by n and check: without it the 90th
    percentile falls on the cheapest few n = 10 supermodularity scans, the
    edge of a cluster, where it jumps between runs.
    """

    name = "verify-grid"
    why = "criterion 1's exhaustive supermodular/monotone/non-negative scans; no ratio(), no transcript"
    sizes = (6, 8, 9, 10)
    min_repeats = 3

    @property
    def units_per_repeat(self) -> int:
        return 3 * 18 * len(self.sizes)

    def cells(self, m):
        inst = m.instances
        plant = m.sampling.random_k_subset
        out = []
        for n in self.sizes:
            for alpha in (3, 4):
                for eps in (Fraction(1, 4), Fraction(1, 2)):
                    out.append((f"dec-f/n{n}/a{alpha}/e{eps}",
                                inst.DecreasingInstance(n, alpha, 1, eps), "f", "nonincreasing"))
                    for beta in (1, 2):
                        planted = inst.DecreasingInstance(
                            n, alpha, beta, eps,
                            plant=plant(n, alpha, 100 * alpha + 10 * beta + n),
                        )
                        out.append((f"dec-g/n{n}/a{alpha}/b{beta}/e{eps}", planted, "g", "nonincreasing"))
            for mm in (1, 1000):
                out.append((f"inc-f/n{n}/m{mm}",
                            inst.IncreasingInstance(n, mm, Fraction(1, 4)), "f", "nondecreasing"))
            for eps in (Fraction(1, 4), Fraction(n, n + 2)):
                bare = inst.IncreasingInstance(n, 1000, eps)
                out.append((f"inc-g/n{n}/e{eps}", bare, "g", "nondecreasing"))
                out.append((f"inc-g-planted/n{n}/e{eps}",
                            bare.with_plant(plant(n, n // 2, n)), "g", "nondecreasing"))
        return out

    def build(self, m, variant: int, workdir: str) -> list[Op]:
        cells = self.cells(m)
        random.Random(variant).shuffle(cells)
        ops: list[Op] = []
        for label, instance, role, direction in cells:
            n = instance.n
            fn = m.oracles.instance_evaluator(instance, role)
            checks = (
                ("supermodular", lambda fn=fn, n=n: m.verify.check_supermodular(fn, n)),
                ("monotone", lambda fn=fn, n=n, d=direction: m.verify.check_monotone(fn, n, d)),
                ("nonnegative", lambda fn=fn, n=n: m.verify.check_nonnegative(fn, n)),
            )
            for kind, check in checks:
                ops.append(Op(f"{label}/{kind}", check, lambda found, kind=kind: _render_violations(kind, found)))
        return ops


# The criterion-9 commands of test_criterion_9_reproducibility, with the
# output flags each one writes.
CRITERION_9 = [
    (["verify", "--family", "increasing", "--n", "8", "--m", "100",
      "--epsilon", "1/2", "--plant-seed", "4"], ["--out-csv"]),
    (["solve", "--family", "decreasing", "--n", "10", "--alpha", "4", "--beta", "2",
      "--epsilon", "1/4", "--plant-seed", "6"], ["--out-csv"]),
    (["game", "--family", "decreasing", "--n", "14", "--alpha", "4", "--beta", "1",
      "--epsilon", "1/2", "--budget", "25", "--trials", "8", "--seed", "5"],
     ["--out-csv", "--out-json"]),
    (["game", "--family", "increasing", "--n", "12", "--m", "1000",
      "--epsilon", "1/100", "--method", "local", "--budget", "300", "--trials", "8",
      "--seed", "5"], ["--out-csv", "--out-json"]),
    (["prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6,6,6"], []),
]

# ROADMAP item 5's command.  At the seed it exits 2 because one trial covers
# every candidate plant; its correct output is defined by a later change, so
# only the exit code and the paper's invariants are checked.
EXHAUSTION = ["game", "--family", "increasing", "--n", "6", "--m", "10", "--epsilon", "1/4",
              "--method", "random", "--budget", "400", "--trials", "3"]
EXHAUSTION_TRIALS = 3
EXHAUSTION_GAP = min(1 / Fraction(1, 4), 2 * Fraction(10) / 6)  # min{1/eps, 2m/n}


def _read_csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _exhaustion_invariant(result) -> str | None:
    if result["code"] != 0:
        return f"exit code {result['code']}"
    rows = _read_csv_rows(result["files"].get("--out-csv", ""))
    trials = sorted(int(r["trial"]) for r in rows)
    if trials != list(range(EXHAUSTION_TRIALS)):
        return f"trials present {trials}"
    for r in rows:
        if r["distinguished"] == "false":
            if Fraction(int(r["ratio_p"]), int(r["ratio_q"])) < EXHAUSTION_GAP:
                return f"trial {r['trial']} ratio below the gap bound {EXHAUSTION_GAP}"
    return None


class CliSolve:
    """In-process cli.main runs of the user-facing commands.

    Per repeat: brute-force solves at n = 16 and 18 for both families (plant
    seeds from the variant), one prob call with a long --s list, the five
    criterion-9 commands run twice each with separate output files (the
    replay contract), and the exhaustion command.
    """

    name = "cli-solve"
    why = "the only workload running cli, serialize and brute force; pins stdout/CSV/JSON bytes"
    min_repeats = 4
    prob_list_length = 2000

    @property
    def units_per_repeat(self) -> int:
        return 4 + 1 + 2 * len(CRITERION_9) + 1

    def build(self, m, variant: int, workdir: str) -> list[Op]:
        m.cli.build_parser()
        rng = random.Random(variant)
        ops: list[Op] = []
        for n in (16, 18):
            for family, flags in (
                ("decreasing", ["--alpha", "4", "--beta", "2", "--epsilon", "1/4"]),
                ("increasing", ["--m", "1000", "--epsilon", "1/4"]),
            ):
                plant_seed = 1000 * variant + n
                argv = ["solve", "--family", family, "--n", str(n), *flags,
                        "--method", "brute", "--plant-seed", str(plant_seed)]
                ops.append(self._op(m, f"solve-brute/{family}/n{n}/plant{plant_seed}", argv, [], workdir))
        cards = ",".join(str(rng.randrange(101)) for _ in range(self.prob_list_length))
        ops.append(self._op(m, f"prob/long/v{variant}", ["prob", "--n", "100", "--alpha", "10", "--beta", "5",
                                               "--s", cards], [], workdir))
        for idx, (argv, out_flags) in enumerate(CRITERION_9):
            for run_id in ("a", "b"):
                ops.append(self._op(m, f"criterion9/{idx}/{argv[0]}/{run_id}", argv, out_flags,
                                    workdir, suffix=f"{idx}{run_id}"))
        op = self._op(m, "exhaustion/game", EXHAUSTION, ["--out-csv"], workdir, suffix="x")
        op.invariant = _exhaustion_invariant
        ops.append(op)
        return ops

    def _op(self, m, uid: str, argv: list[str], out_flags: list[str], workdir: str, suffix: str = "") -> Op:
        paths = {flag: os.path.join(workdir, f"cmd{suffix}{flag.removeprefix('--out-')}") for flag in out_flags}
        full = list(argv)
        for flag, path in paths.items():
            full += [flag, path]

        def run():
            for path in paths.values():
                if os.path.exists(path):
                    os.remove(path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = m.cli.main(full)
            files = {}
            for flag, path in paths.items():
                if os.path.exists(path):
                    with open(path, encoding="utf-8", newline="") as fh:
                        files[flag] = fh.read()
            return {"code": code, "stdout": out.getvalue(), "files": files}

        return Op(uid, run, lambda r: r)


WORKLOADS = {w.name: w for w in (GameIncreasing(), GameDecreasing(), VerifyGrid(), CliSolve())}


def unit_quantile(workload) -> float:
    """The percentile reported as unit_ref_p90.

    0.9 when at least ten units lie beyond it in the fewest units a run
    collects (min_repeats full repeats); otherwise the highest percentile
    with ten units beyond it.  Fixed per workload so that every run reports
    the same percentile.
    """
    units = workload.min_repeats * workload.units_per_repeat
    return min(0.9, 1 - 10 / units)
