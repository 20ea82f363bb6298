"""Oracle values, query accounting, and the planted difference criterion.

The scalar expectations here were computed independently by hand from the
two family definitions before the oracles were implemented, then frozen.
They pin the slow reference below, which computes each value per set
straight from the README's formulas, with no tables or caches; the
table-backed evaluators are cross-checked against it on every subset.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab.errors import MissingPlantError, ParameterError, UndefinedRatioError
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.oracles import (
    CountingOracle,
    QueryTranscript,
    differs_from_unplanted,
    instance_evaluator,
    make_oracles,
    ratio,
    ratio_terms,
)
from ratiolab.sets import Subset, unchecked_subset

DEC = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2], 8))
INC = IncreasingInstance(8, 100, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2, 3], 8))


# ---------------------------------------------------------- slow reference


def eval_f_dec(S, inst):
    """alpha + epsilon - min{alpha, |S|}."""
    return inst.alpha + inst.epsilon - min(inst.alpha, len(S.elements()))


def eval_g_dec(S, inst):
    """alpha + epsilon - min{beta + |S minus R|, alpha, |S|}."""
    outside = [e for e in S.elements() if e not in inst.plant.elements()]
    return inst.alpha + inst.epsilon - min(inst.beta + len(outside), inst.alpha, len(S.elements()))


def eval_f_inc(S, inst):
    """|S| up to floor(n/2), then m * 2^(|S|+1) + |S|."""
    card = len(S.elements())
    if card <= inst.n // 2:
        return Fraction(card)
    return inst.m * 2 ** (card + 1) + card


def eval_g_inc(S, inst):
    """(2|S|/n) * epsilon up to floor(n/2), then 2(|S| - floor(n/2))."""
    card = len(S.elements())
    if card <= inst.n // 2:
        return Fraction(2 * card, inst.n) * inst.epsilon
    return Fraction(2 * (card - inst.n // 2))


def eval_g_inc_planted(S, inst):
    """As eval_g_inc except the value 1 at the plant R itself."""
    if S.elements() == inst.plant.elements():
        return Fraction(1)
    return eval_g_inc(S, inst)


# ------------------------------------------------------------ frozen values


def test_decreasing_f_values():
    # f(S) = 3 + 1/2 - min{3, |S|} on n = 8
    assert eval_f_dec(Subset.empty(8), DEC) == Fraction(7, 2)
    assert eval_f_dec(Subset.from_elements([0], 8), DEC) == Fraction(5, 2)
    assert eval_f_dec(Subset.from_elements([0, 5], 8), DEC) == Fraction(3, 2)
    assert eval_f_dec(Subset.from_elements([0, 1, 2], 8), DEC) == Fraction(1, 2)
    assert eval_f_dec(Subset.from_elements([3, 4, 5, 6], 8), DEC) == Fraction(1, 2)
    assert eval_f_dec(Subset.full(8), DEC) == Fraction(1, 2)


def test_decreasing_g_values():
    # g(S) = 3 + 1/2 - min{1 + |S \ {0,1,2}|, 3, |S|}
    assert eval_g_dec(Subset.empty(8), DEC) == Fraction(7, 2)  # min is |S| = 0
    assert eval_g_dec(Subset.from_elements([0], 8), DEC) == Fraction(5, 2)
    assert eval_g_dec(Subset.from_elements([0, 1, 2], 8), DEC) == Fraction(5, 2)  # plant
    assert eval_g_dec(Subset.from_elements([0, 1], 8), DEC) == Fraction(5, 2)
    assert eval_g_dec(Subset.from_elements([3, 4, 5], 8), DEC) == Fraction(1, 2)  # 1+3 caps at 3
    assert eval_g_dec(Subset.from_elements([0, 1, 2, 3], 8), DEC) == Fraction(3, 2)
    assert eval_g_dec(Subset.full(8), DEC) == Fraction(1, 2)


def test_decreasing_planted_ratio_value():
    f, g = make_oracles(DEC)
    assert ratio(DEC.plant, f, g) == Fraction(1, 5)
    assert DEC.planted_ratio() == Fraction(1, 5)


def test_increasing_f_values():
    # f(S) = |S| through 4, then 100 * 2^(|S|+1) + |S|
    assert eval_f_inc(Subset.empty(8), INC) == 0
    assert eval_f_inc(Subset.from_elements([0, 1, 2, 3], 8), INC) == 4
    assert eval_f_inc(Subset.from_elements([0, 1, 2, 3, 4], 8), INC) == 100 * 64 + 5
    assert eval_f_inc(Subset.full(8), INC) == 100 * 512 + 8


def test_increasing_f_fractional_m():
    inst = IncreasingInstance(8, Fraction(1, 2), Fraction(1, 4))
    assert eval_f_inc(Subset.from_elements([0, 1, 2, 3, 4], 8), inst) == Fraction(64, 2) + 5


def test_increasing_g_values():
    # g(S) = (2|S|/8) * (1/2) = |S|/8 through 4, then 2(|S| - 4)
    assert eval_g_inc(Subset.empty(8), INC) == 0
    assert eval_g_inc(Subset.from_elements([0], 8), INC) == Fraction(1, 8)
    assert eval_g_inc(Subset.from_elements([0, 1, 2, 3], 8), INC) == Fraction(1, 2)
    assert eval_g_inc(Subset.from_elements([0, 1, 2, 3, 4], 8), INC) == 2
    assert eval_g_inc(Subset.full(8), INC) == 8


def test_increasing_planted_g():
    assert eval_g_inc_planted(INC.plant, INC) == 1
    # every other set keeps the unplanted value, including same-cardinality sets
    other = Subset.from_elements([4, 5, 6, 7], 8)
    assert eval_g_inc_planted(other, INC) == eval_g_inc(other, INC) == Fraction(1, 2)
    assert eval_g_inc_planted(Subset.full(8), INC) == 8


def test_increasing_planted_ratio_and_extremes():
    f, g = make_oracles(INC)
    assert ratio(INC.plant, f, g) == 4 == INC.planted_ratio()
    assert ratio(Subset.full(8), f, g) == Fraction(51208, 8) == Fraction(6401)
    # away from the plant the ratio respects the floor min{n/(2 eps), m} = 8
    assert ratio(Subset.from_elements([0], 8), f, g) == 8 == INC.min_ratio_floor()


# ----------------------------------------------------------- shared guards


def test_ground_size_mismatch_rejected():
    unplanted_inc = IncreasingInstance(8, 100, Fraction(1, 2))
    for inst in (DEC, INC, unplanted_inc):
        for role in ("f", "g"):
            evaluate = instance_evaluator(inst, role)
            for wrong in (Subset.empty(9), Subset.full(9), Subset.from_elements([9, 10, 11], 12)):
                with pytest.raises(ParameterError, match="ground size"):
                    evaluate(wrong)
    with pytest.raises(ParameterError):
        differs_from_unplanted(Subset.empty(9), DEC)
    # through the public pair: no planted optimum for a foreign set, no bare IndexError
    f, g = make_oracles(DEC)
    with pytest.raises(ParameterError):
        ratio(Subset.from_elements([9, 10, 11], 12), f, g)
    f, g = make_oracles(INC)
    with pytest.raises(ParameterError):
        ratio(Subset.full(9), f, g)


def test_missing_plant_rejected():
    bare_dec = DecreasingInstance(8, 3, 1, Fraction(1, 2))
    bare_inc = IncreasingInstance(8, 100, Fraction(1, 2))
    with pytest.raises(MissingPlantError):
        differs_from_unplanted(Subset.empty(8), bare_dec)
    with pytest.raises(MissingPlantError):
        instance_evaluator(bare_dec, "g")
    # the unplanted increasing g-side is a legitimate oracle
    g = instance_evaluator(bare_inc, "g")
    assert g(Subset.from_elements([0], 8)) == Fraction(1, 8)


def test_instance_evaluator_role_validation():
    with pytest.raises(ParameterError):
        instance_evaluator(DEC, "h")


# ------------------------------------------- evaluator closures = reference


def test_evaluator_matches_pointwise_functions():
    unplanted_dec = DecreasingInstance(8, 3, 1, Fraction(1, 2))
    unplanted_inc = IncreasingInstance(8, 100, Fraction(1, 2))
    dec10 = DecreasingInstance(10, 4, 2, Fraction(1, 4), plant=Subset.from_elements([1, 4, 6, 9], 10))
    cases = [
        (8, instance_evaluator(DEC, "f"), eval_f_dec, DEC),
        (8, instance_evaluator(DEC, "g"), eval_g_dec, DEC),
        (8, instance_evaluator(unplanted_dec, "f"), eval_f_dec, unplanted_dec),
        (8, instance_evaluator(INC, "f"), eval_f_inc, INC),
        (8, instance_evaluator(INC, "g"), eval_g_inc_planted, INC),
        (8, instance_evaluator(unplanted_inc, "f"), eval_f_inc, unplanted_inc),
        (8, instance_evaluator(unplanted_inc, "g"), eval_g_inc, unplanted_inc),
        (10, instance_evaluator(dec10, "f"), eval_f_dec, dec10),
        (10, instance_evaluator(dec10, "g"), eval_g_dec, dec10),
    ]
    for n, evaluate, reference, inst in cases:
        for mask in range(1 << n):
            S = unchecked_subset(mask, n)
            assert evaluate(S) == reference(S, inst), (reference.__name__, n, mask)


def test_planted_and_unplanted_evaluators_share_values():
    # the increasing game's recheck relies on identical objects off the plant
    unplanted = IncreasingInstance(8, 100, Fraction(1, 2))
    for role in ("f", "g"):
        planted_side, unplanted_side = instance_evaluator(INC, role), instance_evaluator(unplanted, role)
        for mask in range(1 << 8):
            if mask != INC.plant.mask:
                S = unchecked_subset(mask, 8)
                assert planted_side(S) is unplanted_side(S)


# ----------------------------------------------------- planted-pair shape


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_decreasing_g_dominates_f(data):
    n = data.draw(st.integers(2, 10))
    alpha = data.draw(st.integers(1, n))
    beta = data.draw(st.integers(0, alpha - 1))
    plant_mask = data.draw(
        st.integers(0, (1 << n) - 1).filter(lambda m: m.bit_count() == alpha)
    )
    inst = DecreasingInstance(
        n, alpha, beta, Fraction(1, 3), plant=Subset(plant_mask, n)
    )
    f, g = instance_evaluator(inst, "f"), instance_evaluator(inst, "g")
    for mask in range(1 << n):
        S = unchecked_subset(mask, n)
        fv, gv = f(S), g(S)
        assert fv <= gv
        assert gv - fv <= alpha - beta
        assert differs_from_unplanted(S, inst) == (fv != gv)


def test_decreasing_planted_ratio_below_epsilon():
    for alpha, beta, eps in ((3, 1, Fraction(1, 2)), (10, 5, Fraction(1, 100))):
        inst = DecreasingInstance(12, alpha, beta, eps)
        assert inst.planted_ratio() < eps


def test_difference_criterion_exhaustive():
    # the sets where g exceeds f are exactly those with
    # beta + |S outside the plant| < min{alpha, |S|}
    inst = DecreasingInstance(10, 4, 2, Fraction(1, 4), plant=Subset((1 << 4) - 1, 10))
    flagged = [
        mask
        for mask in range(1 << 10)
        if differs_from_unplanted(unchecked_subset(mask, 10), inst)
    ]
    f, g = instance_evaluator(inst, "f"), instance_evaluator(inst, "g")
    by_values = [
        mask
        for mask in range(1 << 10)
        if f(unchecked_subset(mask, 10)) != g(unchecked_subset(mask, 10))
    ]
    assert flagged == by_values
    assert flagged, "criterion should flag some sets for these parameters"
    assert inst.plant.mask in flagged


# -------------------------------------------------------- query accounting


def test_counting_oracle_counts():
    f, g = make_oracles(DEC)
    assert f.count == g.count == 0
    f(Subset.empty(8))
    f(Subset.empty(8))
    g(Subset.empty(8))
    assert (f.count, g.count) == (2, 1)
    assert not hasattr(f, "instance") and not hasattr(g, "instance")


def test_counting_oracle_wraps_plain_function():
    oracle = CountingOracle(lambda S: Fraction(S.cardinality))
    assert oracle(Subset.from_elements([0, 2], 4)) == 2
    assert oracle.count == 1


def test_transcript_records_pairs_in_order():
    t = QueryTranscript()
    f, g = make_oracles(DEC, transcript=t)
    a = Subset.from_elements([0], 8)
    b = Subset.from_elements([0, 1, 2], 8)
    ratio(a, f, g)
    ratio(b, f, g)
    t.set_returned(b)
    assert len(t) == 2
    assert [S for S, _, _ in t.entries] == [a, b]
    assert t.entries[0][1] == eval_f_dec(a, DEC)
    assert t.entries[0][2] == eval_g_dec(a, DEC)
    assert list(t.effective_sets()) == [a, b, b]
    assert t.cardinalities() == [1, 3, 3]


def test_ratio_requires_shared_transcript():
    f, _ = make_oracles(DEC, transcript=QueryTranscript())
    _, g = make_oracles(DEC, transcript=QueryTranscript())
    with pytest.raises(ParameterError):
        ratio(Subset.empty(8), f, g)


def test_ratio_zero_denominator():
    inst = IncreasingInstance(8, 100, Fraction(1, 2))
    t = QueryTranscript()
    f, g = make_oracles(inst, transcript=t)
    with pytest.raises(UndefinedRatioError):
        ratio(Subset.empty(8), f, g)
    # the doomed query is still charged and still recorded
    assert f.count == g.count == 1
    assert len(t) == 1


def test_ratio_exactness():
    f, g = make_oracles(INC)
    S = Subset.from_elements([0, 1, 2, 3, 4, 5], 8)
    # f = 100 * 2^7 + 6 = 12806, g = 2 * (6 - 4) = 4
    assert ratio(S, f, g) == Fraction(12806, 4) == Fraction(6403, 2)


def test_ratio_terms_sign_and_int_values():
    # plain int values work, and a negative denominator moves its sign to p
    f = CountingOracle(lambda S: 6)
    g = CountingOracle(lambda S: -4)
    S = Subset.from_elements([1], 4)
    assert ratio_terms(S, f, g) == (-6, 4)
    assert ratio(S, f, g) == Fraction(-3, 2)
    half = CountingOracle(lambda S: Fraction(1, 2))
    assert ratio_terms(S, f, half) == (12, 1)


def test_ratio_rejects_inexact_oracle_values():
    inexact = CountingOracle(lambda S: 0.5)
    exact = CountingOracle(lambda S: Fraction(1, 3))
    S = Subset.from_elements([0], 4)
    for f, g in ((inexact, exact), (exact, inexact), (inexact, inexact)):
        with pytest.raises(ParameterError, match="oracle values must be int or Fraction"):
            ratio(S, f, g)
