"""Acceptance gate: nine exact desk-scale checks, one test per criterion.

Every numeric expectation is an exact rational; the only tolerances are
binomial 3-sigma bands around Monte Carlo estimates. Runtime budgets are
asserted, and each criterion prints one PASS/FAIL line (visible with -s).
"""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from ratiolab.cli import main
from ratiolab.game import (
    distinguish_probability,
    monte_carlo_distinguish,
    run_game_decreasing,
    run_game_increasing,
)
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.optimize import (
    brute_force_max_ratio,
    brute_force_min_ratio,
    make_algorithm,
)
from ratiolab.oracles import instance_evaluator, make_oracles, ratio
from ratiolab.sampling import SeededStream, random_k_subset
from ratiolab.sets import Subset, iter_k_subset_masks, unchecked_subset
from ratiolab.verify import (
    FunctionTable,
    all_pairs_supermodular,
    check_monotone,
    check_nonnegative,
    check_supermodular,
)


@contextmanager
def criterion(num: int, label: str, budget_seconds: float | None = None):
    start = time.monotonic()
    failed = True
    try:
        yield
        elapsed = time.monotonic() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, over the {budget_seconds}s budget"
            )
        failed = False
    finally:
        verdict = "FAIL" if failed else "PASS"
        print(f"criterion {num} [{label}]: {verdict} ({time.monotonic() - start:.1f}s)")


def clean(fn, n: int, direction: str) -> bool:
    return (
        check_supermodular(fn, n) == []
        and check_monotone(fn, n, direction) == []
        and check_nonnegative(fn, n) == []
    )


def test_criterion_1_structural_grid():
    with criterion(1, "structural verification grid", budget_seconds=30):
        for n in (6, 8, 10, 12):
            for alpha in (3, 4):
                for eps in (Fraction(1, 4), Fraction(1, 2)):
                    f = instance_evaluator(DecreasingInstance(n, alpha, 1, eps), "f")
                    assert clean(f, n, "nonincreasing"), ("dec f", n, alpha, eps)
                    for beta in (1, 2):
                        planted = DecreasingInstance(
                            n, alpha, beta, eps,
                            plant=random_k_subset(n, alpha, 100 * alpha + 10 * beta + n),
                        )
                        g = instance_evaluator(planted, "g")
                        assert clean(g, n, "nonincreasing"), ("dec g", n, alpha, beta, eps)
            for m in (1, 1000):
                f = instance_evaluator(IncreasingInstance(n, m, Fraction(1, 4)), "f")
                assert clean(f, n, "nondecreasing"), ("inc f", n, m)
            for eps in (Fraction(1, 4), Fraction(n, n + 2)):
                bare = IncreasingInstance(n, 1000, eps)
                assert clean(instance_evaluator(bare, "g"), n, "nondecreasing"), ("inc g", n, eps)
                planted = bare.with_plant(random_k_subset(n, n // 2, n))
                assert clean(instance_evaluator(planted, "g"), n, "nondecreasing"), (
                    "inc g planted", n, eps,
                )


def test_criterion_2_pairwise_vs_lattice():
    with criterion(2, "pairwise vs all-pairs agreement"):
        for n in (6, 8, 10):
            dec = DecreasingInstance(n, 3, 1, Fraction(1, 2), plant=random_k_subset(n, 3, 1))
            inc = IncreasingInstance(n, 100, Fraction(1, 4), plant=random_k_subset(n, n // 2, 1))
            bare = IncreasingInstance(n, 100, Fraction(1, 4))
            for inst, role in ((dec, "f"), (dec, "g"), (inc, "f"), (inc, "g"), (bare, "g")):
                fn = instance_evaluator(inst, role)
                pairwise = check_supermodular(fn, n) == []
                assert pairwise == all_pairs_supermodular(fn, n), (inst.family, role, n)
                assert pairwise, (inst.family, role, n)

        stream = SeededStream(2026, "acceptance", "tables")
        verdicts = set()
        for idx in range(20):
            n = 5 + idx % 2
            if idx < 12:
                values = [
                    Fraction(stream.randbelow(41) - 20, 1 + stream.randbelow(4))
                    for _ in range(1 << n)
                ]
            else:
                # convex cardinality profile: supermodular by construction
                increments = sorted(stream.randbelow(9) for _ in range(n))
                profile = [Fraction(stream.randbelow(5))]
                for d in increments:
                    profile.append(profile[-1] + d)
                values = [profile[mask.bit_count()] for mask in range(1 << n)]
            table = FunctionTable(n, values)
            pairwise = check_supermodular(table, n) == []
            assert pairwise == all_pairs_supermodular(table, n), idx
            verdicts.add(pairwise)
        assert verdicts == {True, False}, "tables should exercise both verdicts"


def test_criterion_3_planted_closed_forms():
    with criterion(3, "planted ratio closed forms"):
        stream = SeededStream(2026, "acceptance", "closed-forms")
        for _ in range(10):
            n = 2 + stream.randbelow(15)
            beta = stream.randbelow(min(n, 7))
            alpha = beta + 1 + stream.randbelow(n - beta)
            eps = Fraction(1 + stream.randbelow(40), 1 + stream.randbelow(40))
            inst = DecreasingInstance(
                n, alpha, beta, eps, plant=Subset(stream.sample_mask(n, alpha), n)
            )
            f, g = make_oracles(inst)
            value = ratio(inst.plant, f, g)
            assert value == eps / (alpha + eps - beta) == inst.planted_ratio()
        for _ in range(10):
            n = 2 + stream.randbelow(15)
            m = Fraction(1 + stream.randbelow(10**4), 1 + stream.randbelow(8))
            eps = Fraction(n, n + 2) / (1 + stream.randbelow(50))
            inst = IncreasingInstance(
                n, m, eps, plant=Subset(stream.sample_mask(n, n // 2), n)
            )
            f, g = make_oracles(inst)
            assert ratio(inst.plant, f, g) == n // 2 == inst.planted_ratio()


def test_criterion_4_ratio_floor():
    with criterion(4, "unplanted increasing ratio floor", budget_seconds=10):
        inst = IncreasingInstance(16, 10**4, Fraction(1, 100))
        f, g = make_oracles(inst)
        res = brute_force_min_ratio(f, g, 16)
        assert res.value == 800 == Fraction(16) / (2 * Fraction(1, 100))
        assert res.value == inst.min_ratio_floor()

        stream = SeededStream(2026, "acceptance", "floor")
        for _ in range(20):
            n = 2 + stream.randbelow(15)
            m = Fraction(1 + stream.randbelow(10**5), 1 + stream.randbelow(4))
            eps = Fraction(n, n + 2) / (1 + stream.randbelow(200))
            rand_inst = IncreasingInstance(n, m, eps)
            f, g = make_oracles(rand_inst)
            assert brute_force_min_ratio(f, g, n).value >= rand_inst.min_ratio_floor()


def test_criterion_5_difference_criterion():
    with criterion(5, "planted difference criterion"):
        stream = SeededStream(2026, "acceptance", "difference")
        for n in range(2, 13):
            configs = [(n, 0), (1, 0)]
            for _ in range(2):
                beta = stream.randbelow(min(n, 5))
                alpha = beta + 1 + stream.randbelow(n - beta)
                configs.append((alpha, beta))
            for alpha, beta in configs:
                plant = Subset(stream.sample_mask(n, alpha), n)
                inst = DecreasingInstance(n, alpha, beta, Fraction(1, 3), plant=plant)
                fe = instance_evaluator(inst, "f")
                ge = instance_evaluator(inst, "g")
                for mask in range(1 << n):
                    S = unchecked_subset(mask, n)
                    values_differ = fe(S) != ge(S)
                    formula = beta + (mask & ~plant.mask).bit_count() < min(alpha, mask.bit_count())
                    assert values_differ == formula, (n, alpha, beta, mask)


def test_criterion_6_hypergeometric_exactness():
    with criterion(6, "distinguishing probability exactness", budget_seconds=60):
        for n in range(0, 15):
            for alpha in range(0, n + 1):
                total = comb(n, alpha)
                for s in range(0, n + 1):
                    s_mask = (1 << s) - 1
                    hist = Counter()
                    for r_mask in iter_k_subset_masks(n, alpha):
                        hist[(s_mask & r_mask).bit_count()] += 1
                    threshold = min(alpha, s)
                    for beta in range(0, alpha + 2):
                        favorable = sum(
                            c for t, c in hist.items() if beta + (s - t) < threshold
                        )
                        assert distinguish_probability(n, alpha, beta, s) == Fraction(
                            favorable, total
                        ), (n, alpha, beta, s)
        assert distinguish_probability(14, 4, 1, 6) == Fraction(15, 1001)
        est = monte_carlo_distinguish(14, 4, 1, 6, trials=10**5, seed=20)
        assert abs(float(est.frequency) - float(Fraction(15, 1001))) <= 3 * est.standard_error


def test_criterion_7_gap_demonstration():
    with criterion(7, "unbounded-gap game at desk scale", budget_seconds=300):
        inc = IncreasingInstance(30, 10**6, Fraction(1, 1000))
        gap = inc.gap_bound()
        assert gap == 1000 == min(1 / inc.epsilon, 2 * inc.m / inc.n)
        for method, seed in (("random", 1), ("local", 2)):
            algorithm = make_algorithm(method, budget=30**3)
            reports = run_game_increasing(algorithm, inc, seed=seed, trials=100)
            assert len(reports) == 100  # a consistent plant was found every trial
            for r in reports:
                assert r.planted_optimum == 15
                assert r.empirical_ratio >= gap, (method, r.trial)

        dec = DecreasingInstance(100, 10, 5, Fraction(1, 100))
        hidden = dec.planted_ratio()
        assert 1 / hidden == 501 == (dec.alpha + dec.epsilon - dec.beta) / dec.epsilon
        algorithm = make_algorithm("random", budget=100**2)
        reports = run_game_decreasing(algorithm, dec, seed=3, trials=100)
        assert len(reports) == 100
        for r in reports:
            if not r.distinguished:
                assert r.empirical_ratio == 501
        hits = sum(1 for r in reports if r.distinguished)
        freq = hits / 100
        ub = float(max(r.union_bound for r in reports))
        sigma = math.sqrt(ub * (1 - ub) / 100)
        assert freq <= ub + 3 * sigma


def test_criterion_8_duality():
    with criterion(8, "min f/g equals max g/f"):
        for n in (6, 8, 10, 12):
            dec = DecreasingInstance(n, 3, 1, Fraction(1, 2), plant=random_k_subset(n, 3, 2))
            inc = IncreasingInstance(n, 100, Fraction(1, 4), plant=random_k_subset(n, n // 2, 2))
            bare = IncreasingInstance(n, 100, Fraction(1, 4))
            for inst in (dec, inc, bare):
                f1, g1 = make_oracles(inst)
                primal = brute_force_min_ratio(f1, g1, n)
                f2, g2 = make_oracles(inst)
                dual = brute_force_max_ratio(g2, f2, n)
                assert primal.argset == dual.argset, (inst.family, n)
                assert primal.value * dual.value == 1, (inst.family, n)


def test_criterion_9_reproducibility(tmp_path, capsys):
    with criterion(9, "byte-identical reruns"):
        # each entry: (base argv, output flags to attach); the command runs
        # twice with run-specific file names and must match byte for byte
        commands = [
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
        for cmd_idx, (base_argv, out_flags) in enumerate(commands):
            results = []
            for run_id in ("a", "b"):
                argv, paths = list(base_argv), []
                for flag in out_flags:
                    path = tmp_path / f"cmd{cmd_idx}-{run_id}{flag.removeprefix('--out-')}"
                    argv += [flag, str(path)]
                    paths.append(path)
                code = main(argv)
                stdout = capsys.readouterr().out
                assert code == 0, argv
                results.append((stdout, [p.read_bytes() for p in paths]))
            assert results[0] == results[1], base_argv[0]
