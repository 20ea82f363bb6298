"""Instance families: parameter validation, derived values, JSON descriptors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import instance_to_descriptor

from ratiolab.errors import ParameterError
from ratiolab.instances import (
    DecreasingInstance,
    IncreasingInstance,
    derive_decreasing_params,
    instance_from_descriptor,
)
from ratiolab.sampling import random_k_subset
from ratiolab.sets import Subset


# ---------------------------------------------------------------- decreasing


def test_decreasing_valid_construction():
    inst = DecreasingInstance(8, 3, 1, Fraction(1, 2))
    assert inst.family == "decreasing"
    assert inst.plant is None
    assert inst.planted_ratio() == Fraction(1, 5)  # (1/2) / (3 + 1/2 - 1)


def test_decreasing_epsilon_coercion():
    inst = DecreasingInstance(8, 3, 1, "1/4")
    assert inst.epsilon == Fraction(1, 4)
    assert DecreasingInstance(8, 3, 1, 2).epsilon == Fraction(2)


def test_decreasing_parameter_rejection():
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 3, 3, Fraction(1, 2))  # beta + 1 > alpha
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 9, 1, Fraction(1, 2))  # alpha > n
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 3, -1, Fraction(1, 2))
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 3, 1, Fraction(0))
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 3, 1, 0.5)  # floats are inexact
    with pytest.raises(ParameterError):
        DecreasingInstance(0, 3, 1, Fraction(1, 2))


def test_zero_denominators_and_bools_rejected():
    for build in (
        lambda: DecreasingInstance(8, 3, 1, "1/0"),
        lambda: IncreasingInstance(8, "1/0", Fraction(1, 4)),
        lambda: IncreasingInstance(8, 1000, "1/0"),
        lambda: derive_decreasing_params(16, "1/0"),
        lambda: DecreasingInstance(8, True, 0, "1/2"),
        lambda: DecreasingInstance(8, 3, False, "1/2"),
        lambda: DecreasingInstance(8, 3, 1, True),
        lambda: IncreasingInstance(8, True, Fraction(1, 4)),
    ):
        with pytest.raises(ParameterError):
            build()


def test_decreasing_plant_validation():
    good = Subset.from_elements([0, 1, 2], 8)
    inst = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=good)
    assert inst.plant == good
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1], 8))
    with pytest.raises(ParameterError):
        DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2], 9))


def test_decreasing_with_plant():
    base = DecreasingInstance(8, 3, 1, Fraction(1, 2))
    planted = base.with_plant(Subset.from_elements([1, 3, 5], 8))
    assert planted.plant.elements() == (1, 3, 5)
    assert base.plant is None


@given(
    st.integers(2, 30),
    st.integers(0, 10),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(10)),
)
def test_decreasing_planted_ratio_formula(n, beta, epsilon):
    alpha = min(beta + 1, n)
    if not beta + 1 <= alpha <= n:
        return
    inst = DecreasingInstance(n, alpha, beta, epsilon)
    assert inst.planted_ratio() == epsilon / (alpha + epsilon - beta)
    assert 0 < inst.planted_ratio() < 1


# ---------------------------------------------------------------- increasing


def test_increasing_valid_construction():
    inst = IncreasingInstance(8, 100, Fraction(1, 2))
    assert inst.family == "increasing"
    assert inst.planted_ratio() == 4
    assert inst.min_ratio_floor() == min(Fraction(8) / 1, Fraction(100)) == 8
    assert inst.gap_bound() == min(Fraction(2), Fraction(200, 8)) == 2


def test_increasing_epsilon_range():
    # n/(n+2) is the largest admissible epsilon.
    IncreasingInstance(8, 1, Fraction(8, 10))
    with pytest.raises(ParameterError):
        IncreasingInstance(8, 1, Fraction(8, 10) + Fraction(1, 1000))
    with pytest.raises(ParameterError):
        IncreasingInstance(8, 1, Fraction(0))
    with pytest.raises(ParameterError):
        IncreasingInstance(8, 1, 0.25)


def test_increasing_needs_two_elements():
    # at n = 1 the half-size plant would be the empty set, where g is 0
    with pytest.raises(ParameterError, match="n >= 2"):
        IncreasingInstance(1, 10, Fraction(1, 4))
    assert IncreasingInstance(2, 10, Fraction(1, 4)).planted_ratio() == 1


def test_increasing_m_positive():
    with pytest.raises(ParameterError):
        IncreasingInstance(8, 0, Fraction(1, 4))
    with pytest.raises(ParameterError):
        IncreasingInstance(8, -5, Fraction(1, 4))
    assert IncreasingInstance(8, Fraction(1, 2), Fraction(1, 4)).m == Fraction(1, 2)


def test_increasing_plant_validation():
    good = Subset.from_elements([0, 1, 2, 3], 8)
    inst = IncreasingInstance(8, 100, Fraction(1, 2), plant=good)
    assert inst.plant == good
    with pytest.raises(ParameterError):
        IncreasingInstance(8, 100, Fraction(1, 2), plant=Subset.from_elements([0], 8))
    # odd n: plant cardinality is n//2
    IncreasingInstance(9, 100, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2, 3], 9))
    with pytest.raises(ParameterError):
        IncreasingInstance(9, 100, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2, 3, 4], 9))


def test_increasing_floor_and_gap_formulas():
    inst = IncreasingInstance(30, 10**6, Fraction(1, 1000))
    assert inst.min_ratio_floor() == min(Fraction(30 * 1000, 2), Fraction(10**6)) == 15000
    assert inst.gap_bound() == min(Fraction(1000), Fraction(2 * 10**6, 30)) == 1000
    small_m = IncreasingInstance(30, 2, Fraction(1, 1000))
    assert small_m.min_ratio_floor() == 2
    assert small_m.gap_bound() == Fraction(4, 30)


# ----------------------------------------------------------- derived params


def test_derive_decreasing_params_known_values():
    assert derive_decreasing_params(100, 5) == (10, 5)
    assert derive_decreasing_params(64, 5) == (8, 5)
    # x = 5/2: alpha = floor((5/2) * 10 / 5) = 5, beta = floor((25/4)/5) = 1
    assert derive_decreasing_params(100, Fraction(5, 2)) == (5, 1)


def test_derive_decreasing_params_is_pure_arithmetic_beyond_the_ground_cap():
    # The asymptotic recipe at n = 25,600 and x = 10; the instance
    # constructors, not the recipe, bound the ground size.
    assert derive_decreasing_params(25600, 10) == (320, 20)
    assert derive_decreasing_params(400, 10) == (40, 20)
    with pytest.raises(ParameterError, match="ground size"):
        DecreasingInstance(400, 40, 20, Fraction(1, 100))
    for bad in (0, -4, 100.0, True, "100"):
        with pytest.raises(ParameterError, match="positive int"):
            derive_decreasing_params(bad, 5)


def test_derive_decreasing_params_infeasible():
    with pytest.raises(ParameterError):
        derive_decreasing_params(25, 5)  # alpha = 5 = beta, needs beta + 1 <= alpha
    with pytest.raises(ParameterError):
        derive_decreasing_params(4, 1)  # alpha = 0
    with pytest.raises(ParameterError):
        derive_decreasing_params(100, 0)
    with pytest.raises(ParameterError):
        derive_decreasing_params(100, Fraction(-1, 2))
    with pytest.raises(ParameterError):
        derive_decreasing_params(100, 0.5)


@given(st.integers(1, 400), st.fractions(min_value=Fraction(1, 4), max_value=Fraction(40)))
def test_derive_decreasing_params_floor_identities(n, x):
    try:
        alpha, beta = derive_decreasing_params(n, x)
    except ParameterError:
        return
    # alpha = floor(x sqrt(n) / 5) means alpha is the largest integer with
    # (5 alpha)^2 <= x^2 n; beta = floor(x^2 / 5) likewise.
    p, q = x.numerator, x.denominator
    assert (5 * q * alpha) ** 2 <= p * p * n
    assert (5 * q * (alpha + 1)) ** 2 > p * p * n
    assert 5 * q * q * beta <= p * p < 5 * q * q * (beta + 1)
    assert beta + 1 <= alpha <= n


# ------------------------------------------------------------- descriptors


def test_descriptor_round_trip_decreasing():
    inst = DecreasingInstance(10, 4, 2, Fraction(1, 4), plant=random_k_subset(10, 4, 3))
    desc = instance_to_descriptor(inst)
    assert desc["family"] == "decreasing"
    assert desc["epsilon"] == "1/4"
    assert desc["plant"] == list(inst.plant.elements())
    assert instance_from_descriptor(desc) == inst


def test_descriptor_round_trip_increasing():
    inst = IncreasingInstance(12, 1000, Fraction(1, 100))
    desc = instance_to_descriptor(inst)
    assert desc == {"family": "increasing", "n": 12, "m": "1000/1", "epsilon": "1/100"}
    assert instance_from_descriptor(desc) == inst


def test_descriptor_plant_by_seed():
    desc = {
        "family": "decreasing",
        "n": 10,
        "alpha": 4,
        "beta": 2,
        "epsilon": "1/4",
        "plant": {"seed": 3},
    }
    inst = instance_from_descriptor(desc)
    assert inst.plant == random_k_subset(10, 4, 3)
    inc = instance_from_descriptor(
        {"family": "increasing", "n": 12, "m": "7", "epsilon": "1/4", "plant": {"seed": 9}}
    )
    assert inc.plant == random_k_subset(12, 6, 9)


def test_descriptor_rejects_malformed():
    base = {"family": "decreasing", "n": 8, "alpha": 3, "beta": 1, "epsilon": "1/2"}
    instance_from_descriptor(base)
    for mutate in (
        {"family": "sideways"},
        {"n": "8"},
        {"epsilon": 0.5},
        {"epsilon": True},  # a JSON true is not epsilon = 1
        {"alpha": None},
        {"m": "3"},  # cross-family field
        {"plant": {"seed": "x"}},
        {"plant": {"germ": 1}},
        {"plant": [0, "1"]},
        {"plant": {"seed": True}},  # not the plant of seed 1 or of the label "True"
        {"plant": [True, False, 2]},  # not {0, 1, 2}
        {"plant": [0, 0, 1, 2]},  # not {0, 1, 2}, which has cardinality alpha = 3
        {"plant": "012"},
    ):
        bad = {**base, **mutate}
        with pytest.raises(ParameterError):
            instance_from_descriptor(bad)
    with pytest.raises(ParameterError):
        instance_from_descriptor({k: v for k, v in base.items() if k != "epsilon"})
    with pytest.raises(ParameterError):
        instance_from_descriptor("not a dict")
    inc_base = {"family": "increasing", "n": 8, "m": "3", "epsilon": "1/4"}
    instance_from_descriptor(inc_base)
    for mutate in ({"m": True}, {"m": 0.5}, {"n": True}, {"alpha": 3}):
        with pytest.raises(ParameterError):
            instance_from_descriptor({**inc_base, **mutate})
    with pytest.raises(ParameterError, match=r"missing \['m'\]"):
        instance_from_descriptor({k: v for k, v in inc_base.items() if k != "m"})


def test_descriptor_integer_rationals():
    inst = instance_from_descriptor(
        {"family": "increasing", "n": 8, "m": 100, "epsilon": "1/2"}
    )
    assert inst.m == Fraction(100)
    # Fraction values reach the constructor unchanged
    assert instance_from_descriptor(
        {"family": "increasing", "n": 8, "m": Fraction(7, 2), "epsilon": Fraction(1, 2)}
    ) == IncreasingInstance(8, Fraction(7, 2), Fraction(1, 2))
