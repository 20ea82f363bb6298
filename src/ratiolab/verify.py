"""Exhaustive structural checks: supermodularity, monotonicity, non-negativity.

The supermodularity and monotonicity checks tabulate the function once:
one query per set in ascending mask order, with the values put on one
common denominator as integers.  The marginal queries of the pairwise
characterization are then replayed against that table (each repeat must
return the tabulated value), so the query count stays exactly
2^n + n 2^(n-1) + n(n-1) 2^(n-2) for supermodularity and 2^n + n 2^(n-1)
for monotonicity.  The scans compare integers; the symmetric supermodular
inequality is tested once per unordered pair, and a failing pair yields
both ordered records.  Non-negativity needs no marginal, so its one pass
builds no table.  No check runs above the guard.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import NamedTuple

from .errors import ParameterError
from .serialize import frac_to_str
# Not called here; kept as verify attributes that perfbench/tracing.py rebinds.
from .serialize import frac_from_str, render_csv  # noqa: F401
from .sets import Subset, check_guard, is_int, unchecked_subset

DEFAULT_VIOLATION_CAP = 100
_EXACT_VALUES_ONLY = "oracle values must be int or Fraction"


class ViolationRecord(NamedTuple):
    """A supermodularity failure: adding i helps less after j has been added.

    lhs_margin = f(base + i) - f(base), rhs_margin = f(base + i + j) -
    f(base + j); the record is genuine exactly when lhs_margin > rhs_margin.
    """

    base: Subset
    i: int
    j: int
    lhs_margin: Fraction
    rhs_margin: Fraction


def _validate_cap(cap) -> None:
    if not is_int(cap) or cap < 1:
        raise ParameterError(f"violation cap must be a positive int, got {cap!r}")


def _tabulate(oracle, n: int, repeats) -> tuple[list, list[int]]:
    """Every value of f in ascending mask order, and the same values as integers.

    Each set T is queried once and then `repeats[|T|]` more times, which
    replays the marginal queries that land on T; every repeat must return
    the tabulated value (identity, then ==).  The integers are the values
    times the lcm of their denominators, so they compare like the values.
    """
    values = []
    denominators = set()
    for mask in range(1 << n):
        subset = unchecked_subset(mask, n)
        value = oracle(subset)
        try:
            denominators.add(value.denominator)
        except AttributeError:
            raise ParameterError(_EXACT_VALUES_ONLY) from None
        k = repeats[mask.bit_count()]
        if k and list(map(oracle, repeat(subset, k))).count(value) != k:
            raise ParameterError(f"oracle gave {subset!r} more than one value")
        values.append(value)
    scale = lcm(*denominators)
    return values, [v.numerator * (scale // v.denominator) for v in values]


def check_supermodular(oracle, n: int, cap: int = DEFAULT_VIOLATION_CAP) -> list[ViolationRecord]:
    """All pairwise-marginal violations of supermodularity, up to `cap`.

    Empty iff f(S u {i}) - f(S) <= f(S u {i,j}) - f(S u {j}) for every S and
    ordered pair i != j outside S, which is equivalent to the lattice
    inequality f(S) + f(T) <= f(S u T) + f(S n T).  Costs exactly
    2^n + n 2^(n-1) + n(n-1) 2^(n-2) queries, one per (base), (base, i) and
    (base, ordered i j), even when the cap is reached: the function is
    tabulated and the marginal queries replayed against the table.  The
    inequality is symmetric in i and j, so each unordered pair is scanned
    once in integers and a violating pair yields both records, (i, j) and
    (j, i); records come in (base, i, j) order with the exact margins,
    until `cap` records have been collected.
    """
    check_guard(n, "supermodularity check")
    _validate_cap(cap)
    values, table = _tabulate(oracle, n, [c * c for c in range(n + 1)])
    bits = [1 << i for i in range(n)]
    violations: list[ViolationRecord] = []
    for base, t_base in enumerate(table):
        outside = [bit for bit in bits if not base & bit]
        pairs = []
        for a, bit_i in enumerate(outside):
            top = base | bit_i
            gain = table[top] - t_base
            for bit_j in outside[a + 1:]:
                if gain + table[base | bit_j] > table[top | bit_j]:
                    pairs += ((bit_i, bit_j), (bit_j, bit_i))
        if not pairs:
            continue
        subset = Subset(base, n)
        for bit_i, bit_j in sorted(pairs):
            lhs = values[base | bit_i] - values[base]
            rhs = values[base | bit_i | bit_j] - values[base | bit_j]
            i, j = bit_i.bit_length() - 1, bit_j.bit_length() - 1
            violations.append(ViolationRecord(subset, i, j, lhs, rhs))
            if len(violations) >= cap:
                return violations
    return violations


def check_monotone(
    oracle, n: int, direction: str, cap: int = DEFAULT_VIOLATION_CAP
) -> list[tuple[Subset, int, Fraction]]:
    """Single-element marginals with the wrong sign, up to `cap`.

    direction "nondecreasing" flags negative marginals, "nonincreasing"
    flags positive ones.  Empty list means every marginal conforms.  Costs
    exactly 2^n + n 2^(n-1) queries, one per (base) and (base, i), even when
    the cap is reached; the signs are read off the integer table and
    records come in (base, i) order with the exact margin.
    """
    check_guard(n, "monotonicity check")
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ParameterError(f"direction must be nondecreasing or nonincreasing, got {direction!r}")
    _validate_cap(cap)
    values, table = _tabulate(oracle, n, range(n + 1))
    if direction == "nonincreasing":
        table = [-t for t in table]
    bits = list(enumerate(1 << i for i in range(n)))
    violations: list[tuple[Subset, int, Fraction]] = []
    for base, t_base in enumerate(table):
        for i, bit in bits:
            if not base & bit and table[base | bit] < t_base:
                violations.append((Subset(base, n), i, values[base | bit] - values[base]))
                if len(violations) >= cap:
                    return violations
    return violations


def check_nonnegative(oracle, n: int, cap: int = DEFAULT_VIOLATION_CAP) -> list[tuple[Subset, Fraction]]:
    """Subsets with negative value, up to `cap`.  Empty list means all >= 0."""
    check_guard(n, "non-negativity check")
    _validate_cap(cap)
    violations: list[tuple[Subset, Fraction]] = []
    for mask in range(1 << n):
        value = oracle(unchecked_subset(mask, n))
        try:
            negative = value.numerator < 0
        except AttributeError:
            raise ParameterError(_EXACT_VALUES_ONLY) from None
        if negative:
            violations.append((Subset(mask, n), value))
            if len(violations) >= cap:
                return violations
    return violations


VIOLATION_CSV_COLUMNS = ["base_mask_hex", "i", "j", "lhs", "rhs"]


def violation_row(v: ViolationRecord) -> tuple:
    """One ViolationRecord as a CSV row matching VIOLATION_CSV_COLUMNS."""
    return (v.base.hex_mask(), v.i, v.j, frac_to_str(v.lhs_margin), frac_to_str(v.rhs_margin))

