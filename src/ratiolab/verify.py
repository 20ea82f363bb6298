"""Exhaustive structural checks: supermodularity, monotonicity, non-negativity.

The primary supermodularity check uses the pairwise-marginal
characterization, O(2^n * n^2) evaluations, so n = 20 stays reachable;
an all-pairs O(4^n) checker over the lattice inequality itself serves as
an independent cross-validation oracle at tiny n.  Checks refuse to run
above the enumeration guard rather than silently sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ParameterError
from .serialize import frac_from_str, frac_to_str, render_csv
from .sets import Subset, check_guard, iter_masks, unchecked_subset, validate_ground_size

DEFAULT_VIOLATION_CAP = 100


@dataclass(frozen=True, slots=True)
class ViolationRecord:
    """A supermodularity failure: adding i helps less after j has been added.

    lhs_margin = f(base + i) - f(base), rhs_margin = f(base + i + j) -
    f(base + j); the record is genuine exactly when lhs_margin > rhs_margin.
    """

    base: Subset
    i: int
    j: int
    lhs_margin: Fraction
    rhs_margin: Fraction


def check_supermodular(oracle, n: int, cap: int = DEFAULT_VIOLATION_CAP) -> list[ViolationRecord]:
    """All pairwise-marginal violations of supermodularity, up to `cap`.

    Empty iff f(S u {i}) - f(S) <= f(S u {i,j}) - f(S u {j}) for every S and
    ordered pair i != j outside S, which is equivalent to the lattice
    inequality f(S) + f(T) <= f(S u T) + f(S n T).  Scanning stops once
    `cap` records have been collected.
    """
    validate_ground_size(n)
    check_guard(n, "supermodularity check")
    violations: list[ViolationRecord] = []
    outside_cache = list(range(n))
    for base_mask in iter_masks(n):
        f_base = oracle(unchecked_subset(base_mask, n))
        outside = [i for i in outside_cache if not base_mask >> i & 1]
        add_value = {i: oracle(unchecked_subset(base_mask | (1 << i), n)) for i in outside}
        for i in outside:
            lhs = add_value[i] - f_base
            for j in outside:
                if i == j:
                    continue
                f_pair = oracle(unchecked_subset(base_mask | (1 << i) | (1 << j), n))
                rhs = f_pair - add_value[j]
                if lhs > rhs:
                    violations.append(
                        ViolationRecord(Subset(base_mask, n), i, j, lhs, rhs)
                    )
                    if len(violations) >= cap:
                        return violations
    return violations


def all_pairs_supermodular(fn, n: int) -> bool:
    """Check f(S) + f(T) <= f(S u T) + f(S n T) over all 4^n ordered pairs.

    Independent cross-validation for check_supermodular; practical only at
    tiny n.  The value table is rescaled to integers so the quadratic loop
    compares machine-friendly ints instead of Fractions.
    """
    validate_ground_size(n)
    if n > 10:
        raise ParameterError(f"all-pairs check is quadratic in 2^n; n={n} > 10")
    values = [Fraction(fn(unchecked_subset(mask, n))) for mask in iter_masks(n)]
    scale = lcm(*(v.denominator for v in values))
    table = [int(v * scale) for v in values]
    size = 1 << n
    for s in range(size):
        vs = table[s]
        for t in range(size):
            if vs + table[t] > table[s | t] + table[s & t]:
                return False
    return True


def check_monotone(
    oracle, n: int, direction: str, cap: int = DEFAULT_VIOLATION_CAP
) -> list[tuple[Subset, int, Fraction]]:
    """Single-element marginals with the wrong sign, up to `cap`.

    direction "nondecreasing" flags negative marginals, "nonincreasing"
    flags positive ones.  Empty list means every marginal conforms.
    """
    validate_ground_size(n)
    check_guard(n, "monotonicity check")
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ParameterError(f"direction must be nondecreasing or nonincreasing, got {direction!r}")
    want_nonneg = direction == "nondecreasing"
    violations: list[tuple[Subset, int, Fraction]] = []
    for base_mask in iter_masks(n):
        f_base = oracle(unchecked_subset(base_mask, n))
        for i in range(n):
            if base_mask >> i & 1:
                continue
            margin = oracle(unchecked_subset(base_mask | (1 << i), n)) - f_base
            if (margin < 0) if want_nonneg else (margin > 0):
                violations.append((Subset(base_mask, n), i, margin))
                if len(violations) >= cap:
                    return violations
    return violations


def check_nonnegative(oracle, n: int, cap: int = DEFAULT_VIOLATION_CAP) -> list[tuple[Subset, Fraction]]:
    """Subsets with negative value, up to `cap`.  Empty list means all >= 0."""
    validate_ground_size(n)
    check_guard(n, "non-negativity check")
    violations: list[tuple[Subset, Fraction]] = []
    for mask in iter_masks(n):
        value = oracle(unchecked_subset(mask, n))
        if value < 0:
            violations.append((Subset(mask, n), value))
            if len(violations) >= cap:
                return violations
    return violations


class FunctionTable:
    """An explicit set function: one exact value per subset, ascending mask order.

    Lets the checkers run against third-party functions ingested from JSON,
    not just the bundled families.  Instances are callable like an oracle.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        validate_ground_size(n)
        values = [Fraction(v) for v in values]
        if len(values) != 1 << n:
            raise ParameterError(
                f"function table for n={n} needs {1 << n} values, got {len(values)}"
            )
        self.n = n
        self.values = values

    def __call__(self, S: Subset) -> Fraction:
        if S.n != self.n:
            raise ParameterError(f"subset ground size {S.n} differs from table n {self.n}")
        return self.values[S.mask]

    @classmethod
    def from_json(cls, payload) -> "FunctionTable":
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict) or set(payload) != {"n", "values"}:
            raise ParameterError('function table JSON must be {"n": ..., "values": [...]}')
        if not isinstance(payload["n"], int):
            raise ParameterError("function table n must be an integer")
        if not isinstance(payload["values"], list):
            raise ParameterError("function table values must be a list of 'p/q' strings")
        return cls(payload["n"], [frac_from_str(v) for v in payload["values"]])

    def to_json(self) -> dict:
        return {"n": self.n, "values": [frac_to_str(v) for v in self.values]}


VIOLATION_CSV_COLUMNS = ["base_mask_hex", "i", "j", "lhs", "rhs"]


def violation_row(v: ViolationRecord) -> tuple:
    """One ViolationRecord as a CSV row matching VIOLATION_CSV_COLUMNS."""
    return (v.base.hex_mask(), v.i, v.j, frac_to_str(v.lhs_margin), frac_to_str(v.rhs_margin))


def violations_to_csv(violations: list[ViolationRecord]) -> str:
    """CSV rendering of supermodularity violations: base_mask_hex, i, j, lhs, rhs."""
    return render_csv(VIOLATION_CSV_COLUMNS, [violation_row(v) for v in violations])
