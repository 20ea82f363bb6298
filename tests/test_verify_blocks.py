"""The structural checks' shared enumeration: cached blocks of BLOCK Subsets.

Every check walks the ground set through `verify._blocks`: blocks of
`oracles.BLOCK` masks, each a tuple of Subsets in ascending mask order and
the bytes of their cardinalities, from one `lru_cache`d `_block(n, start)`.
Up to n = 12 a ground set is one block, so every test in test_verify.py and
test_verify_reference.py runs inside it; these run across a block boundary
at n = 13, count the full plan at n = 16, where a replay count c^2 = 256
first overflows a byte, and pin what the cache shares and what it keeps.
"""

import re
from fractions import Fraction

import pytest
import test_verify_reference as reference
from test_verify import strictly_submodular

from ratiolab.errors import ParameterError
from ratiolab.oracles import BLOCK, CountingOracle
from ratiolab.sets import Subset
from ratiolab.verify import _block, check_monotone, check_nonnegative, check_supermodular

N = 13  # two blocks: masks 0 .. 4095 and 4096 .. 8191


def test_a_ground_set_past_n_12_spans_several_blocks():
    assert BLOCK == 1 << 12
    for start in (0, BLOCK):
        subsets, cards = _block(N, start)
        assert [s.mask for s in subsets] == list(range(start, start + BLOCK))
        assert all(s.n == N for s in subsets)
        assert cards == bytes(mask.bit_count() for mask in range(start, start + BLOCK))
    subsets, cards = _block(5, 0)
    assert [s.mask for s in subsets] == list(range(32)) and len(cards) == 32


@pytest.mark.parametrize("cap, want", [(1, [BLOCK - 1]), (2, [BLOCK - 1, BLOCK]), (100, [BLOCK - 1, BLOCK, 2 * BLOCK - 1])])
def test_nonnegative_violations_on_both_sides_of_the_block_boundary(cap, want):
    negative = {BLOCK - 1, BLOCK, 2 * BLOCK - 1}
    oracle = CountingOracle(lambda S: Fraction(-1 if S.mask in negative else S.cardinality, 3))
    assert check_nonnegative(oracle, N, cap) == [(Subset(mask, N), Fraction(-1, 3)) for mask in want]
    # the scan stops at the cap's record, and otherwise reads every set once
    assert oracle.count == (want[-1] + 1 if len(want) == cap else 1 << N)


def test_nonnegative_violation_only_in_the_second_block():
    assert check_nonnegative(lambda S: S.mask - 5000, N, 3) == [(Subset(m, N), m - 5000) for m in range(3)]
    assert check_nonnegative(lambda S: 6000 - S.mask, N, 2) == [(Subset(6001, N), -1), (Subset(6002, N), -2)]


def test_monotone_records_at_n_13_match_the_known_counts():
    # every marginal of -|S|^2 is negative: n 2^(n-1) records, bases in both blocks
    records = check_monotone(strictly_submodular, N, "nondecreasing", 10**9)
    assert len(records) == N << (N - 1)
    assert reference.as_tuples(records) == reference.as_tuples(
        reference.ref_check_monotone(strictly_submodular, N, "nondecreasing", 10**9)
    )
    assert max(base.mask for base, _, _ in records) == (1 << N) - 1 - 1  # the full set minus element 0
    assert all(margin == -(2 * base.cardinality + 1) for base, _, margin in records)
    assert check_monotone(strictly_submodular, N, "nonincreasing") == []


@pytest.mark.parametrize("cap", [1, 3, 200, 1000])
def test_capped_supermodular_records_at_n_13_match_the_reference(cap):
    # every (base, i, j) violates; the first records sit at small bases, but
    # each pair with j = 12 reads base + j in the second block
    oracle = CountingOracle(strictly_submodular)
    records = check_supermodular(oracle, N, cap)
    assert oracle.count == reference.supermodular_plan(N)
    assert len(records) == cap
    assert reference.record_fields(records) == reference.record_fields(
        reference.ref_check_supermodular(strictly_submodular, N, cap)
    )
    for r in records:
        c = r.base.cardinality
        assert (r.lhs_margin, r.rhs_margin) == (-(2 * c + 1), -(2 * c + 3))
    assert (cap >= N - 1) == any(r.base.mask | 1 << r.j >= BLOCK for r in records)


def test_a_bump_in_the_second_block_is_found():
    # |S|^2 + |S|/3 has every pair's margins 2 apart, so a bump of 7/2 at T
    # breaks exactly the pairs that add one element of T to T minus it
    bump = BLOCK | 0b101
    fn = reference.convex(N, bump)
    got = check_supermodular(fn, N, 10**9)
    assert {r.base.mask for r in got} == {bump & ~(1 << e) for e in (0, 2, 12)}
    assert len(got) == 3 * 2 * (N - 3)  # per base, i or j is the missing element, the other one of N - 3
    for r in got:
        assert bump in (r.base.mask | 1 << r.i, r.base.mask | 1 << r.j)
        assert r.lhs_margin == fn(Subset(r.base.mask | 1 << r.i, N)) - fn(r.base)
        assert r.rhs_margin == fn(Subset(r.base.mask | 1 << r.i | 1 << r.j, N)) - fn(Subset(r.base.mask | 1 << r.j, N))


def test_queries_come_set_by_set_each_with_its_replays():
    # each set once, then once more per marginal query landing on it: |T|^2
    # more for supermodularity, |T| more for monotonicity, in ascending mask order
    for check, repeats in ((check_supermodular, lambda c: c * c),
                           (lambda fn, n: check_monotone(fn, n, "nondecreasing"), lambda c: c)):
        asked = []
        check(lambda S: asked.append(S.mask) or S.cardinality, N)
        assert asked == [mask for mask in range(1 << N) for _ in range(1 + repeats(mask.bit_count()))]


def test_the_supermodular_plan_is_exact_at_n_16():
    # the full set is replayed 16^2 = 256 times: past a byte, so the replay
    # counts are read from a list by cardinality, not through a byte table
    n = 16
    oracle = CountingOracle(lambda S: S.mask.bit_count())
    assert check_supermodular(oracle, n) == []
    assert oracle.count == (1 << n) + n * (1 << (n - 1)) + n * (n - 1) * (1 << (n - 2))
    info = _block.cache_info()
    assert 0 < info.currsize <= info.maxsize < (1 << n) // BLOCK


def test_checks_at_one_n_hand_the_oracle_the_same_subsets():
    seen = []
    check_nonnegative(lambda S: seen.append(S) or 0, N)
    first = {S.mask: S for S in seen}
    assert len(first) == 1 << N
    seen.clear()
    check_monotone(lambda S: seen.append(S) or 0, N, "nondecreasing")
    assert len(seen) == reference.monotone_plan(N)
    assert all(S is first[S.mask] for S in seen)
    seen.clear()
    check_supermodular(lambda S: seen.append(S) or 0, N, 1)
    assert all(S is first[S.mask] for S in seen)


def test_no_check_passes_a_subset_of_another_ground_set():
    for n in (6, 7, 6, N, 1, N):
        def oracle(S, n=n):
            assert type(S) is Subset and S.n == n and 0 <= S.mask < 1 << n, (S, n)
            return S.cardinality
        assert check_supermodular(oracle, n) == []
        assert check_monotone(oracle, n, "nondecreasing") == []
        assert check_nonnegative(oracle, n) == []


@pytest.mark.parametrize("mask", [0b101, BLOCK | 0b101])
def test_a_drifting_oracle_is_named_by_its_subset(mask):
    drifted = Subset(mask, N)

    def drifting(S, answers=iter(range(10**9))):
        return next(answers) if S.mask == mask else S.cardinality

    for check in (check_supermodular, lambda fn, n: check_monotone(fn, n, "nondecreasing")):
        with pytest.raises(ParameterError, match=re.escape(f"oracle gave {drifted!r} more than one value")):
            check(drifting, N)
