#!/usr/bin/env python3
"""Sweep the structural checks over a grid of instance parameterizations.

For each ground size and family variant, runs the exhaustive
supermodularity, monotonicity, and non-negativity checks on both oracle
sides and prints a one-line verdict.  Everything must come back clean;
a nonzero exit means some variant produced a counterexample.  Stdout is
the same on every run; the elapsed time goes to stderr.
"""

import argparse
import sys
import time
from fractions import Fraction

from ratiolab import (
    CountingOracle,
    DecreasingInstance,
    IncreasingInstance,
    check_monotone,
    check_nonnegative,
    check_supermodular,
    random_k_subset,
)


def variants(n: int):
    for alpha in (3, 4):
        for beta in (1, 2):
            for eps in (Fraction(1, 4), Fraction(1, 2)):
                plant = random_k_subset(n, alpha, seed=alpha * 100 + beta * 10)
                inst = DecreasingInstance(n, alpha, beta, eps, plant)
                yield f"dec a={alpha} b={beta} e={eps}", inst, "nonincreasing", ("f", "g")
    for m in (Fraction(1), Fraction(1000)):
        inst = IncreasingInstance(n, m, Fraction(1, 4))
        yield f"inc m={m}", inst, "nondecreasing", ("f", "g")
    for eps in (Fraction(1, 4), Fraction(n, n + 2)):
        plant = random_k_subset(n, n // 2, seed=7)
        inst = IncreasingInstance(n, Fraction(1000), eps, plant)
        yield f"inc planted e={eps}", inst, "nondecreasing", ("g",)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="6,8,10,12", help="comma list of ground sizes")
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]

    failures = 0
    t0 = time.perf_counter()
    for n in sizes:
        for label, inst, direction, sides in variants(n):
            for side in sides:
                oracle = CountingOracle.for_instance(inst, side)
                sup = check_supermodular(oracle, n)
                mono = check_monotone(oracle, n, direction)
                neg = check_nonnegative(oracle, n)
                bad = len(sup) + len(mono) + len(neg)
                failures += bad
                verdict = "ok" if bad == 0 else f"FAIL ({len(sup)}/{len(mono)}/{len(neg)})"
                print(f"n={n:2d} {label:24s} side={side} queries={oracle.count:7d} {verdict}")
    print(f"{failures} violations")
    print(f"total {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
