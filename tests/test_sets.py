"""Subsets: masks, enumeration order, the guard, wire forms."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab.errors import EnumerationGuardError, ParameterError
from ratiolab.sets import (
    ENUMERATION_GUARD,
    MAX_GROUND_SIZE,
    Subset,
    check_guard,
    iter_k_subset_masks,
    unchecked_subset,
    validate_ground_size,
)


def test_constructors_and_membership():
    s = Subset.from_elements([0, 2, 5], 6)
    assert s.mask == 0b100101
    assert s.cardinality == 3
    assert 0 in s and 2 in s and 5 in s
    assert 1 not in s and 3 not in s
    assert -1 not in s and 6 not in s
    assert s.elements() == (0, 2, 5)


def test_empty_and_full():
    assert Subset.empty(5).mask == 0
    assert Subset.full(5).mask == 0b11111
    assert Subset.empty(5).cardinality == 0
    assert Subset.full(5).cardinality == 5


def test_mask_bounds_rejected():
    with pytest.raises(ParameterError):
        Subset(1 << 4, 4)
    with pytest.raises(ParameterError):
        Subset(-1, 4)
    with pytest.raises(ParameterError):
        Subset.from_elements([4], 4)
    with pytest.raises(ParameterError):
        Subset.from_elements([-1], 4)


@pytest.mark.parametrize("build", [
    lambda: Subset(True, 4),
    lambda: Subset(1.0, 4),
    lambda: Subset.from_elements([True], 4),
    lambda: Subset.from_elements([1.5], 4),
    lambda: Subset.from_elements(["a"], 4),
])
def test_non_int_mask_or_element_rejected(build):
    # True would pass as mask 1 or element 1; a float or str would raise TypeError
    with pytest.raises(ParameterError):
        build()


def test_ground_size_bounds():
    validate_ground_size(1)
    validate_ground_size(MAX_GROUND_SIZE)
    for bad in (0, -3, MAX_GROUND_SIZE + 1, 2.0, True, "8"):
        with pytest.raises(ParameterError):
            validate_ground_size(bad)


def test_immutable_and_hashable():
    a = Subset.from_elements([1, 2], 6)
    with pytest.raises(Exception):
        a.mask = 0
    assert a == Subset(0b110, 6)
    assert len({a, Subset(0b110, 6)}) == 1


def test_json_wire_form_round_trip():
    s = Subset.from_elements([5, 0, 3], 8)
    assert s.to_json() == [0, 3, 5]
    assert Subset.from_elements(s.to_json(), 8) == s


def test_hex_wire_form_round_trip():
    s = Subset(0xAB, 8)
    assert s.hex_mask() == "ab"
    assert Subset(int(s.hex_mask(), 16), 8) == s


def test_unchecked_subset_matches_checked():
    s = unchecked_subset(0b1011, 5)
    assert s == Subset(0b1011, 5)
    assert s.cardinality == 3
    assert hash(s) == hash(Subset(0b1011, 5))
    for n in (1, 5, 70):
        for mask in (0, 1, (1 << n) - 1, 0x2A2A2A2A2A2A2A2A2A & ((1 << n) - 1)):
            fast, checked = unchecked_subset(mask, n), Subset(mask, n)
            assert type(fast) is Subset
            assert fast == checked and not fast != checked
            assert hash(fast) == hash(checked)
            assert repr(fast) == repr(checked)
            assert (fast.mask, fast.n) == (mask, n)
    assert unchecked_subset(3, 5) != Subset(3, 6)
    assert unchecked_subset(3, 5) != Subset(5, 5)


@pytest.mark.parametrize("field", ["mask", "n"])
def test_unchecked_subset_stays_frozen(field):
    s = unchecked_subset(0b1011, 5)
    with pytest.raises(FrozenInstanceError):
        setattr(s, field, 1)
    assert s == Subset(0b1011, 5)


def test_gosper_masks_ascending_and_complete():
    for n in range(0, 9):
        for k in range(0, n + 1):
            masks = list(iter_k_subset_masks(n, k))
            assert masks == sorted(masks)
            assert len(masks) == len(set(masks))
            expected = [m for m in range(1 << n) if m.bit_count() == k]
            assert masks == expected


def test_gosper_rejects_bad_k():
    with pytest.raises(ParameterError):
        list(iter_k_subset_masks(4, 5))
    with pytest.raises(ParameterError):
        list(iter_k_subset_masks(4, -1))


def test_enumeration_guard_default_and_env(monkeypatch):
    assert ENUMERATION_GUARD == 24
    check_guard(24)
    with pytest.raises(EnumerationGuardError):
        check_guard(25)
    # the guard is a constant; no environment variable raises it
    monkeypatch.setenv("RATIOLAB_GUARD_N", "30")
    with pytest.raises(EnumerationGuardError):
        check_guard(25)


@settings(max_examples=50)
@given(st.integers(1, 12), st.data())
def test_element_round_trip(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    s = Subset(mask, n)
    assert Subset.from_elements(s.elements(), n) == s
    assert Subset(int(s.hex_mask(), 16), n) == s
    assert Subset.from_elements(s.to_json(), n) == s
