"""The table-backed structural checks against slow Fraction-margin reference loops.

The reference loops below query the oracle afresh for every (base),
(base, i) and (base, ordered i j), subtract exact values and compare the
margins directly, which is obviously correct and slow.  At small n the
package's checks must agree with them exactly: same records in the same
order, same i and j, equal margins of the same type, and the same
violation verdict.  The package always spends the full query plan; the
reference stops at the cap.
"""

from fractions import Fraction

import pytest

from ratiolab.oracles import CountingOracle
from ratiolab.sampling import SeededStream
from ratiolab.sets import Subset, unchecked_subset
from ratiolab.verify import FunctionTable, ViolationRecord, check_monotone, check_supermodular

SIZES = range(3, 8)
CAPS = (1, 3, 100, 10**9)


def ref_check_supermodular(oracle, n, cap):
    violations = []
    for base_mask in range(1 << n):
        f_base = oracle(unchecked_subset(base_mask, n))
        outside = [i for i in range(n) if not base_mask >> i & 1]
        add_value = {i: oracle(unchecked_subset(base_mask | (1 << i), n)) for i in outside}
        for i in outside:
            lhs = add_value[i] - f_base
            for j in outside:
                if i == j:
                    continue
                f_pair = oracle(unchecked_subset(base_mask | (1 << i) | (1 << j), n))
                rhs = f_pair - add_value[j]
                if lhs > rhs:
                    violations.append(ViolationRecord(Subset(base_mask, n), i, j, lhs, rhs))
                    if len(violations) >= cap:
                        return violations
    return violations


def ref_check_monotone(oracle, n, direction, cap):
    want_nonneg = direction == "nondecreasing"
    violations = []
    for base_mask in range(1 << n):
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


def supermodular_plan(n):
    return (1 << n) + n * (1 << (n - 1)) + n * (n - 1) * (1 << (n - 2))


def monotone_plan(n):
    return (1 << n) + n * (1 << (n - 1))


# ------------------------------------------------------------- functions


def random_table(n, seed):
    stream = SeededStream(seed, "verify-reference", n)
    return FunctionTable(
        n, [Fraction(stream.randbelow(41) - 20, 1 + stream.randbelow(4)) for _ in range(1 << n)]
    )


def capped_size(S):
    return Fraction(min(S.cardinality, 3))


def convex(n, bump_mask=None):
    """|S|^2 + |S|/3, supermodular; 7/2 added at `bump_mask` breaks that near the bump."""
    values = [Fraction(c * c) + Fraction(c, 3) for c in map(int.bit_count, range(1 << n))]
    if bump_mask is not None:
        values[bump_mask] += Fraction(7, 2)
    return FunctionTable(n, values)


def int_hash(S):
    """Int-valued, with many tied margins where a non-strict test would differ."""
    return (S.mask * 2654435761 >> 7) % 5 - 2


def int_capped(S):
    return min(S.cardinality, 2)


def int_falling(S):
    """-|S|: modular and nonincreasing, so it passes both checks it is used for."""
    return -S.cardinality


def mixed_types(S):
    """int at even masks, Fraction at odd ones, so margins mix both types."""
    if S.mask & 1:
        return Fraction(S.mask % 7, 3)
    return S.mask % 4


def functions(n):
    yield "table-a", random_table(n, 1)
    yield "table-b", random_table(n, 2)
    yield "capped_size", capped_size
    yield "convex", convex(n)
    yield "bumped-low", convex(n, 0b11)
    yield "bumped-high", convex(n, 1 << (n - 1))
    yield "int_hash", int_hash
    yield "int_capped", int_capped
    yield "int_falling", int_falling
    yield "mixed", mixed_types


def as_tuples(records):
    """Each record with the type of every field, so 1 and Fraction(1) differ."""
    return [tuple((type(x), x) for x in r) for r in records]


def record_fields(records):
    return as_tuples(
        [(r.base, r.i, r.j, r.lhs_margin, r.rhs_margin) for r in records]
    )


# ------------------------------------------------------------ cross-checks


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("cap", CAPS)
def test_supermodular_matches_reference(n, cap):
    verdicts = set()
    for name, fn in functions(n):
        fast = CountingOracle(fn)
        slow = CountingOracle(fn)
        got = check_supermodular(fast, n, cap)
        want = ref_check_supermodular(slow, n, cap)
        assert record_fields(got) == record_fields(want), (name, n, cap)
        assert fast.count == supermodular_plan(n), (name, n, cap)
        if len(want) < cap:
            assert slow.count == supermodular_plan(n), (name, n, cap)
        verdicts.add(bool(got))
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("direction", ["nondecreasing", "nonincreasing"])
def test_monotone_matches_reference(n, cap, direction):
    verdicts = set()
    for name, fn in functions(n):
        fast = CountingOracle(fn)
        slow = CountingOracle(fn)
        got = check_monotone(fast, n, direction, cap)
        want = ref_check_monotone(slow, n, direction, cap)
        assert as_tuples(got) == as_tuples(want), (name, n, cap, direction)
        assert fast.count == monotone_plan(n), (name, n, cap, direction)
        if len(want) < cap:
            assert slow.count == monotone_plan(n), (name, n, cap, direction)
        verdicts.add(bool(got))
    assert verdicts == {True, False}

