"""Exhaustive structural checks: supermodularity, monotonicity, non-negativity.

The supermodularity and monotonicity checks tabulate the function once:
one query per set in ascending mask order, with the values put on one
common denominator as integers.  The marginal queries of the pairwise
characterization are then replayed against that table (each repeat must
return the tabulated value), so the query count and order stay exactly
2^n + n 2^(n-1) + n(n-1) 2^(n-2) for supermodularity and 2^n + n 2^(n-1)
for monotonicity.  The scans then compare whole half-tables in C: `_split`
cuts a list at bit i into the entries without i and those with it, and
`map(gt/lt, lo, hi)` compares them pairwise, with no Python step per set.
Supermodularity splits each gain table f(S + i) - f(S) once more at j > i,
so each unordered pair is tested once and a failing pair yields both
ordered records.  A scan keeps the first `cap` violating bases of each
pair (of each i for monotonicity), which is exact: a record among the first
`cap` overall has fewer than `cap` records, so fewer than `cap` of its own
pair, before it.  The kept records are sorted and cut to `cap`, and only
they get exact margins.  Non-negativity needs no marginal, so its one pass
builds no table.  No check runs above the guard.

All three checks walk one enumeration: `_block(n, start)` is the Subsets of
BLOCK masks from `start`, ascending, with the bytes of their |S|, and its
`lru_cache` keeps 8 blocks.  Up to n = 15 checks at one n share every
Subset; past that a scan misses, one tuple per block.  The cache holds at
most 8 blocks, about 2.8 MB: peak RSS after an n = 16 check is 25.2 MB
against 22.1 MB before the cache (Python 3.11).  Replay counts, up to
c^2 = 576, are read from a list by |S|.  A `CountingOracle` gets a set's
replays in one `CountingOracle.answers` call, which runs its evaluator
through `map` and charges them in bulk; the first query of each set and
the non-negativity pass stay one call each.  Queries, counts and order
are as above.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, islice, repeat
from math import lcm
from operator import gt, lt, sub
from typing import NamedTuple

from .errors import ParameterError
from .oracles import CountingOracle
from .serialize import frac_to_str
# Not called here; kept as verify attributes that perfbench/tracing.py rebinds.
from .serialize import frac_from_str, render_csv  # noqa: F401
from .sets import BLOCK, Subset, check_count, check_guard, unchecked_subset

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


@lru_cache(maxsize=8)
def _block(n: int, start: int) -> tuple[tuple[Subset, ...], bytes]:
    """The Subsets of masks start, ..., start + BLOCK - 1 below 2^n, ascending, and their cardinalities."""
    masks = range(start, min(start + BLOCK, 1 << n))
    return tuple([unchecked_subset(mask, n) for mask in masks]), bytes(map(int.bit_count, masks))


def _blocks(n: int):
    """Every subset of an n-set in ascending mask order, as `_block`s: the checks share them."""
    return map(_block, repeat(n), range(0, 1 << n, BLOCK))


def _tabulate(oracle, n: int, repeats) -> tuple[list, list[int]]:
    """Every value of f in ascending mask order, and the same values as integers.

    Each set T is queried once and then `repeats[|T|]` more times, which
    replays the marginal queries that land on T; every repeat must return
    the tabulated value (identity, then ==).  A `CountingOracle` itself (not
    a subclass) takes a set's replays through `answers`, charged as the same
    calls; any other callable is called per replay by `map`.  The integers
    are the values times the lcm of their denominators, so they compare
    like the values.
    """
    values = []
    denominators = set()
    bulk = type(oracle) is CountingOracle
    for subsets, cards in _blocks(n):
        for subset, k in zip(subsets, map(repeats.__getitem__, cards)):
            value = oracle(subset)
            try:
                denominators.add(value.denominator)
            except AttributeError:
                raise ParameterError(_EXACT_VALUES_ONLY) from None
            if k:
                replays = oracle.answers(repeat(subset, k)) if bulk else list(map(oracle, repeat(subset, k)))
                if replays.count(value) != k:
                    raise ParameterError(f"oracle gave {subset!r} more than one value")
            values.append(value)
    scale = lcm(*denominators)
    return values, [v.numerator * (scale // v.denominator) for v in values]


def _split(seq: list, bit: int) -> tuple[list, list]:
    """The entries of `seq` at the indices without `bit`, and at those indices plus `bit`, each ascending.

    len(seq) is a power of two above `bit`.  Each half takes min(bit, len/(2 bit))
    slices, at most about sqrt(len): one extended-slice assignment per residue
    below `bit`, or one plain slice per block of 2 bit entries.  At bit 1 and
    when one block spans `seq`, each half is one slice, so the split holds
    nothing but its halves.
    """
    step = 2 * bit
    if bit == 1:
        return seq[0::2], seq[1::2]
    if step == len(seq):
        return seq[:bit], seq[bit:]
    if bit * step <= len(seq):
        lo = [None] * (len(seq) // 2)
        hi = lo.copy()
        for r in range(bit):
            lo[r::bit] = seq[r::step]
            hi[r::bit] = seq[r + bit::step]
        return lo, hi
    lo, hi = [], []
    for start in range(0, len(seq), step):
        lo += seq[start:start + bit]
        hi += seq[start + bit:start + step]
    return lo, hi


def _first_bases(wrong, halves: tuple[list, list], cap: int) -> list[int]:
    """The first `cap` positions k at which wrong(lo[k], hi[k]) holds, for halves (lo, hi); one C-level pass."""
    return list(islice(compress(count(), map(wrong, *halves)), cap))


def _unsqueeze(k: int, i: int) -> int:
    """The index with bit i clear whose other bits, in order, are those of k: the inverse of a `_split` position."""
    return (k >> i << (i + 1)) | (k & ((1 << i) - 1))


def check_supermodular(oracle, n: int, cap: int = DEFAULT_VIOLATION_CAP) -> list[ViolationRecord]:
    """All pairwise-marginal violations of supermodularity, up to `cap`.

    Empty iff f(S u {i}) - f(S) <= f(S u {i,j}) - f(S u {j}) for every S and
    ordered pair i != j outside S, which is equivalent to the lattice
    inequality f(S) + f(T) <= f(S u T) + f(S n T).  Costs exactly
    2^n + n 2^(n-1) + n(n-1) 2^(n-2) queries, one per (base), (base, i) and
    (base, ordered i j), in the same order even when the cap is reached: the
    function is tabulated and the marginal queries replayed against the
    table.  For each i the integer gains f(S + i) - f(S) form one list; for
    each j > i it is split at j and the halves compared by `map(gt, ...)`,
    so each unordered pair is scanned once and a violating base yields both
    records, (i, j) and (j, i).  Each pair keeps its first `cap` violating
    bases, enough for the first `cap` records overall; records come in
    (base, i, j) order with the exact margins, at most `cap` of them.
    """
    check_guard(n, "supermodularity check")
    check_count(cap, 1, "violation cap")
    values, table = _tabulate(oracle, n, [c * c for c in range(n + 1)])
    found = []
    for i in range(n):
        lo, hi = _split(table, 1 << i)
        gain = list(map(sub, hi, lo))
        del lo, hi  # one list's halves at a time: these go before gain is split
        for j in range(i + 1, n):
            # in gain's squeezed indices, j is bit j - 1
            for k in _first_bases(gt, _split(gain, 1 << (j - 1)), cap):
                base = _unsqueeze(_unsqueeze(k, j - 1), i)
                found += ((base, i, j), (base, j, i))
        del gain
    found.sort()
    return [
        ViolationRecord(
            Subset(base, n), i, j,
            values[base | 1 << i] - values[base],
            values[base | 1 << i | 1 << j] - values[base | 1 << j],
        )
        for base, i, j in found[:cap]
    ]


def check_monotone(
    oracle, n: int, direction: str, cap: int = DEFAULT_VIOLATION_CAP
) -> list[tuple[Subset, int, Fraction]]:
    """Single-element marginals with the wrong sign, up to `cap`.

    direction "nondecreasing" flags negative marginals, "nonincreasing"
    flags positive ones.  Empty list means every marginal conforms.  Costs
    exactly 2^n + n 2^(n-1) queries, one per (base) and (base, i), in the
    same order even when the cap is reached.  For each i the integer table
    is split at i and its halves compared by `map(gt, ...)` or
    `map(lt, ...)`; each i keeps its first `cap` violating bases, enough for
    the first `cap` records overall, and records come in (base, i) order
    with the exact margin, at most `cap` of them.
    """
    check_guard(n, "monotonicity check")
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ParameterError(f"direction must be nondecreasing or nonincreasing, got {direction!r}")
    check_count(cap, 1, "violation cap")
    values, table = _tabulate(oracle, n, range(n + 1))
    wrong_sign = gt if direction == "nondecreasing" else lt
    found = []
    for i in range(n):
        found += ((_unsqueeze(k, i), i) for k in _first_bases(wrong_sign, _split(table, 1 << i), cap))
    found.sort()
    return [(Subset(base, n), i, values[base | 1 << i] - values[base]) for base, i in found[:cap]]


def check_nonnegative(oracle, n: int, cap: int = DEFAULT_VIOLATION_CAP) -> list[tuple[Subset, Fraction]]:
    """Subsets with negative value, up to `cap`.  Empty list means all >= 0."""
    check_guard(n, "non-negativity check")
    check_count(cap, 1, "violation cap")
    violations: list[tuple[Subset, Fraction]] = []
    for subsets, _ in _blocks(n):
        for subset in subsets:
            value = oracle(subset)
            try:
                negative = value.numerator < 0
            except AttributeError:
                raise ParameterError(_EXACT_VALUES_ONLY) from None
            if negative:
                violations.append((subset, value))
                if len(violations) >= cap:
                    return violations
    return violations


VIOLATION_CSV_COLUMNS = ["base_mask_hex", "i", "j", "lhs", "rhs"]


def violation_row(v: ViolationRecord) -> tuple:
    """One ViolationRecord as a CSV row matching VIOLATION_CSV_COLUMNS."""
    return (v.base.hex_mask(), v.i, v.j, frac_to_str(v.lhs_margin), frac_to_str(v.rhs_margin))

