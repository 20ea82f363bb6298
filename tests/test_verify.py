"""Structural checkers: pairwise marginals, all-pairs cross-check, monotonicity."""

from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_verify_reference as reference
from reference import FunctionTable, all_pairs_supermodular, violations_to_csv

from ratiolab.errors import EnumerationGuardError, ParameterError
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.oracles import CountingOracle, instance_evaluator
from ratiolab.sampling import SeededStream, random_k_subset
from ratiolab.sets import Subset
from ratiolab.verify import (
    ViolationRecord,
    check_monotone,
    check_nonnegative,
    check_supermodular,
)


def modular_size(S: Subset) -> Fraction:
    return Fraction(S.cardinality)


def capped_size(S: Subset) -> Fraction:
    """min{|S|, 1}: submodular, so supermodularity fails."""
    return Fraction(min(S.cardinality, 1))


def size_minus_one(S: Subset) -> Fraction:
    return Fraction(S.cardinality - 1)


# --------------------------------------------------------- positive checks


def test_modular_function_is_supermodular():
    assert check_supermodular(modular_size, 6) == []
    assert all_pairs_supermodular(modular_size, 6)


def test_bundled_families_pass_checks():
    dec = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=random_k_subset(8, 3, 1))
    inc = IncreasingInstance(8, 100, Fraction(1, 2), plant=random_k_subset(8, 4, 1))
    for inst, role, direction in (
        (dec, "f", "nonincreasing"),
        (dec, "g", "nonincreasing"),
        (inc, "f", "nondecreasing"),
        (inc, "g", "nondecreasing"),
    ):
        fn = instance_evaluator(inst, role)
        assert check_supermodular(fn, 8) == [], (inst.family, role)
        assert check_monotone(fn, 8, direction) == [], (inst.family, role)
        assert check_nonnegative(fn, 8) == [], (inst.family, role)
        assert all_pairs_supermodular(fn, 8), (inst.family, role)


def test_increasing_epsilon_boundary_still_supermodular():
    # the largest admissible epsilon, n/(n+2), is exactly the edge where the
    # planted g-side stays supermodular
    n = 8
    inst = IncreasingInstance(n, 5, Fraction(n, n + 2), plant=random_k_subset(n, n // 2, 2))
    assert check_supermodular(instance_evaluator(inst, "g"), n) == []


# --------------------------------------------------------- negative checks


def test_capped_size_violations_found():
    violations = check_supermodular(capped_size, 5, cap=10**9)
    assert violations
    # the base = empty set violation: adding i gains 1, adding i after j gains 0
    first = violations[0]
    assert first.base == Subset.empty(5)
    assert first.lhs_margin == 1 and first.rhs_margin == 0
    for v in violations:
        assert v.lhs_margin > v.rhs_margin
        assert v.i != v.j
        assert v.i not in v.base and v.j not in v.base
    assert not all_pairs_supermodular(capped_size, 5)


def test_cap_truncates_scan():
    assert len(check_supermodular(capped_size, 5, cap=3)) == 3
    assert len(check_monotone(size_minus_one, 4, "nonincreasing", cap=2)) == 2
    assert len(check_nonnegative(size_minus_one, 4, cap=1)) == 1


@pytest.mark.parametrize("name", ["capped_size", "random_table"])
def test_every_cap_is_a_prefix_of_the_reference(name):
    # Every violating pair is reported in both orders, (i, j) then later
    # (j, i), so the sweep includes caps that fall between the two.
    n = 5
    fn = reference.capped_size if name == "capped_size" else reference.random_table(n, 1)
    records = reference.ref_check_supermodular(fn, n, 10**9)
    keys = {(r.base, r.i, r.j) for r in records}
    assert keys and keys == {(base, j, i) for base, i, j in keys}
    want = reference.record_fields(records)
    for cap in range(1, len(want) + 1):
        got = reference.record_fields(check_supermodular(fn, n, cap))
        assert got == want[:cap], (name, cap)


def test_monotone_directions():
    assert check_monotone(modular_size, 5, "nondecreasing") == []
    up_violations = check_monotone(modular_size, 5, "nonincreasing")
    assert up_violations
    base, i, margin = up_violations[0]
    assert margin > 0 and i not in base
    with pytest.raises(ParameterError):
        check_monotone(modular_size, 5, "sideways")


def test_nonnegative_checker():
    assert check_nonnegative(modular_size, 5) == []
    bad = check_nonnegative(size_minus_one, 5, cap=10**9)
    assert bad == [(Subset.empty(5), Fraction(-1))]


# ------------------------------------------------------------- exact costs


def test_query_cost_formula():
    # the pairwise scan costs exactly 2^n + n 2^(n-1) + n(n-1) 2^(n-2):
    # one evaluation per base, one per (base, i), one per (base, ordered i j)
    for n in (4, 6, 8):
        oracle = CountingOracle(modular_size)
        check_supermodular(oracle, n)
        expected = (1 << n) + n * (1 << (n - 1)) + n * (n - 1) * (1 << (n - 2))
        assert oracle.count == expected
    oracle = CountingOracle(modular_size)
    check_monotone(oracle, 6, "nondecreasing")
    assert oracle.count == (1 << 6) + 6 * (1 << 5)
    oracle = CountingOracle(modular_size)
    check_nonnegative(oracle, 6)
    assert oracle.count == 1 << 6


def test_query_cost_is_the_full_plan_when_the_cap_is_reached():
    # the function is tabulated and every marginal query replayed before the
    # scan, so a capped, violating check still spends the whole plan
    n = 5
    oracle = CountingOracle(capped_size)
    assert len(check_supermodular(oracle, n, cap=3)) == 3
    assert oracle.count == (1 << n) + n * (1 << (n - 1)) + n * (n - 1) * (1 << (n - 2))
    oracle = CountingOracle(size_minus_one)
    assert len(check_monotone(oracle, n, "nonincreasing", cap=2)) == 2
    assert oracle.count == (1 << n) + n * (1 << (n - 1))


# ---------------------------------------------------------- input contracts


@pytest.mark.parametrize("cap", [0, -5, 2.5, "3", True, None])
def test_cap_must_be_a_positive_int(cap):
    with pytest.raises(ParameterError, match="cap"):
        check_supermodular(capped_size, 4, cap=cap)
    with pytest.raises(ParameterError, match="cap"):
        check_monotone(size_minus_one, 4, "nonincreasing", cap=cap)
    with pytest.raises(ParameterError, match="cap"):
        check_nonnegative(size_minus_one, 4, cap=cap)


def test_float_values_rejected():
    def half_size(S):
        return S.cardinality / 2

    message = "oracle values must be int or Fraction"
    with pytest.raises(ParameterError, match=message):
        check_supermodular(half_size, 4)
    with pytest.raises(ParameterError, match=message):
        check_monotone(half_size, 4, "nondecreasing")
    with pytest.raises(ParameterError, match=message):
        check_nonnegative(half_size, 4)
    with pytest.raises(ParameterError, match=message):
        all_pairs_supermodular(half_size, 4)
    with pytest.raises(ParameterError, match=message):
        FunctionTable(1, [0.1, 0.2])


def test_inconsistent_oracle_rejected():
    # the full set gets a new value at every query
    def drifting(S, _answers=count()):
        return next(_answers) if S.mask == 0b1111 else S.cardinality

    with pytest.raises(ParameterError, match="more than one value"):
        check_supermodular(drifting, 4)
    with pytest.raises(ParameterError, match="more than one value"):
        check_monotone(drifting, 4, "nondecreasing")


def test_guard_respected():
    with pytest.raises(EnumerationGuardError):
        check_supermodular(modular_size, 25)
    with pytest.raises(EnumerationGuardError):
        check_monotone(modular_size, 25, "nondecreasing")
    with pytest.raises(EnumerationGuardError):
        check_nonnegative(modular_size, 25)


def test_all_pairs_size_limit():
    with pytest.raises(ParameterError):
        all_pairs_supermodular(modular_size, 11)


# ------------------------------------------- pairwise vs all-pairs agreement


def random_table(n: int, seed: int) -> FunctionTable:
    stream = SeededStream(seed, "verify-table", n)
    return FunctionTable(
        n, [Fraction(stream.randbelow(41) - 20, 1 + stream.randbelow(4)) for _ in range(1 << n)]
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 6))
def test_checkers_agree_on_random_tables(seed, n):
    table = random_table(n, seed)
    pairwise_clean = check_supermodular(table, n) == []
    assert pairwise_clean == all_pairs_supermodular(table, n)


def test_checkers_agree_on_perturbed_supermodular():
    # nudge a genuinely supermodular function at one point and confirm both
    # checkers flip together
    n = 5
    base = [Fraction(mask.bit_count() ** 2) for mask in range(1 << n)]
    for bump_mask in (0b00111, 0b10000):
        values = list(base)
        values[bump_mask] += Fraction(7, 2)  # a bump above the lattice makes it non-supermodular
        table = FunctionTable(n, values)
        assert (check_supermodular(table, n) == []) == all_pairs_supermodular(table, n)


# ------------------------------------------------------------ wire formats


def test_function_table_round_trip():
    table = random_table(4, seed=99)
    clone = FunctionTable.from_json(table.to_json())
    assert clone.n == table.n and clone.values == table.values
    import json

    clone2 = FunctionTable.from_json(json.dumps(table.to_json()))
    assert clone2.values == table.values


def test_function_table_validation():
    with pytest.raises(ParameterError):
        FunctionTable(3, [0] * 7)
    with pytest.raises(ParameterError):
        FunctionTable.from_json({"n": 2})
    with pytest.raises(ParameterError):
        FunctionTable.from_json({"n": "2", "values": ["0/1"] * 4})
    with pytest.raises(ParameterError):
        FunctionTable.from_json({"n": 2, "values": "0123"})
    table = FunctionTable(2, [0, 1, 1, 3])
    with pytest.raises(ParameterError):
        table(Subset.empty(3))


def test_violations_csv_layout():
    record = ViolationRecord(Subset.from_elements([0, 1], 5), 2, 3, Fraction(1), Fraction(1, 2))
    text = violations_to_csv([record])
    assert text == "base_mask_hex,i,j,lhs,rhs\n3,2,3,1/1,1/2\n"
