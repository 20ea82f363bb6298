"""Oracle values, query accounting, and the planted difference criterion.

The scalar expectations here were computed independently by hand from the
two family definitions before the oracles were implemented, then frozen.
They pin the slow reference below, which computes each value per set
straight from the README's formulas, with no tables or caches; the
table-backed evaluators are cross-checked against it on every subset.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import batch_lookup

from ratiolab import oracles
from ratiolab.errors import MissingPlantError, ParameterError, UndefinedRatioError
from ratiolab.game import differs_from_unplanted
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.oracles import (
    CountingOracle,
    QueryTranscript,
    class_lookup,
    instance_evaluator,
    make_oracles,
    query_batch,
    ratio,
    ratio_terms,
)
from ratiolab.optimize import brute_force_min_ratio, local_search, random_search
from ratiolab.sampling import SeededStream, random_k_subset
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
    # the unplanted decreasing g is f, with one f/f class per |S| and bytes ids
    f, g = instance_evaluator(bare_dec, "f"), instance_evaluator(bare_dec, "g")
    assert all(g(Subset(mask, 8)) is f(Subset(mask, 8)) for mask in range(1 << 8))
    kernel, classes = class_lookup(bare_dec)
    assert [(p == q, c) for p, q, c in classes] == [(True, c) for c in range(9)]
    assert kernel(list(range(1 << 8))) == bytes(mask.bit_count() for mask in range(1 << 8))
    # the unplanted increasing g-side is a legitimate oracle
    g = instance_evaluator(bare_inc, "g")
    assert g(Subset.from_elements([0], 8)) == Fraction(1, 8)


@pytest.mark.parametrize("inst", [
    IncreasingInstance(8, 100, Fraction(1, 4), plant=Subset(15, 8)), IncreasingInstance(8, 100, Fraction(1, 4)),
    None, Subset(15, 8),
], ids=["planted-increasing", "unplanted-increasing", "none", "subset"])
def test_the_difference_criterion_refuses_all_but_a_decreasing_instance(inst):
    # the criterion reads alpha and beta; any other instance, or a non-instance, is refused before that
    with pytest.raises(ParameterError, match="decreasing family"):
        differs_from_unplanted(Subset(15, 8), inst)


def test_instance_evaluator_role_validation():
    with pytest.raises(ParameterError):
        instance_evaluator(DEC, "h")


@pytest.mark.parametrize("thing", [None, "x", 3, Subset(15, 8)], ids=["none", "str", "int", "subset"])
@pytest.mark.parametrize("entry", [
    lambda thing: instance_evaluator(thing, "f"),
    make_oracles,
    class_lookup,
    lambda thing: CountingOracle.for_instance(thing, "g"),
], ids=["instance_evaluator", "make_oracles", "class_lookup", "for_instance"])
def test_a_non_instance_is_refused_before_a_field_is_read(entry, thing):
    # the type is checked first: a Subset has an n, the others have nothing to read
    with pytest.raises(ParameterError, match="unknown instance type"):
        entry(thing)


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


# ------------------------------------------------------ the grid at game scale


def _seeded_decreasing(seed: int, n: int) -> DecreasingInstance:
    stream = SeededStream(seed, "grid-case", n)
    alpha = 1 + stream.randbelow(n)
    beta = stream.randbelow(alpha)
    epsilon = Fraction(1 + stream.randbelow(9), 1 + stream.randbelow(200))
    return DecreasingInstance(n, alpha, beta, epsilon, plant=Subset(stream.sample_mask(n, alpha), n))


GAME_SCALE = [DecreasingInstance(100, 10, 5, Fraction(1, 100), plant=random_k_subset(100, 10, 3))] + [
    _seeded_decreasing(seed, n) for seed, n in enumerate((1, 2, 37, 64, 100, 100, 127, 128))
]


@pytest.mark.parametrize("inst", GAME_SCALE, ids=lambda i: f"n{i.n}-a{i.alpha}-b{i.beta}")
def test_decreasing_grid_at_game_scale(inst):
    # Every cell of the grid is alpha + eps - min(beta + x, alpha, c), and
    # equal cells are one object.  Each reachable cell is what the g lookups
    # return at a set with c - x plant elements and x others; f's lookups
    # return the grid's last row.
    n, alpha, beta = inst.n, inst.alpha, inst.beta
    values = oracles._dec_grid(n, alpha, beta, inst.epsilon)[0]
    assert len(values) == n + 1 and all(len(row) == n + 1 for row in values)
    expected = [alpha + inst.epsilon - t for t in range(alpha + 1)]
    held = {}
    for x in range(n + 1):
        for c in range(n + 1):
            term = min(beta + x, alpha, c)
            value = values[x][c]
            assert value == expected[term], (x, c)
            assert value is held.setdefault(term, value), (x, c)
    inside = [i for i in range(n) if inst.plant.mask >> i & 1]
    outside = [i for i in range(n) if not inst.plant.mask >> i & 1]
    f, g = instance_evaluator(inst, "f"), instance_evaluator(inst, "g")
    cells = [(x, a) for x in range(len(outside) + 1) for a in range(alpha + 1)]
    masks = [sum(1 << i for i in inside[:a] + outside[:x]) for x, a in cells]
    f_values, g_values = batch_lookup(inst, "f")(masks), batch_lookup(inst, "g")(masks)
    for (x, a), mask, f_value, g_value in zip(cells, masks, f_values, g_values):
        cell = values[x][a + x]
        assert g_value is cell and g(unchecked_subset(mask, n)) is cell, (x, a)
        last = values[n][a + x]
        assert f_value is last and f(unchecked_subset(mask, n)) is last, (x, a)


@pytest.mark.parametrize("inst", GAME_SCALE, ids=lambda i: f"n{i.n}-a{i.alpha}-b{i.beta}")
def test_decreasing_grid_rows_are_shared(inst):
    # Row x = |S minus R| depends on x only through min(beta + x, alpha), so the
    # grid holds at most alpha - beta + 1 distinct rows, and every row from
    # x = alpha - beta on is the one tuple that f's side reads.
    n, head = inst.n, inst.alpha - inst.beta
    values, ids, _ = oracles._dec_grid(n, inst.alpha, inst.beta, inst.epsilon)
    f_row = oracles._side(inst, "f")[2]
    assert len(values) == n + 1 and len(ids) == n + 1
    for rows in (values, ids):
        assert len({id(row) for row in rows}) <= head + 1
        assert all(row is rows[-1] for row in rows[head:])
    assert values[-1] is f_row
    f_values = batch_lookup(inst, "f")([(1 << c) - 1 for c in range(n + 1)])
    for c in range(n + 1):
        assert f_values[c] is values[-1][c], c


def test_difference_criterion_agrees_with_the_grid_at_n_100():
    # Uniform draws at criterion 7's (alpha, beta) = (10, 5) never separate;
    # the other parameters make both outcomes occur.
    seen = set()
    for alpha, beta in ((10, 5), (60, 5), (50, 30), (100, 0)):
        inst = DecreasingInstance(100, alpha, beta, Fraction(1, 100), plant=random_k_subset(100, alpha, alpha))
        f, g = instance_evaluator(inst, "f"), instance_evaluator(inst, "g")
        stream = SeededStream(alpha, "difference-draws")
        for _ in range(2000):
            S = unchecked_subset(stream.nonempty_mask(100), 100)
            differs = differs_from_unplanted(S, inst)
            assert differs == (f(S) is not g(S)), (alpha, beta, S)
            seen.add(differs)
    assert seen == {False, True}


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
    # one entry per ratio query: the set, recorded by the g handle, repeats
    # included; the transcript holds its masks and each one's |S|
    t = QueryTranscript()
    f, g = make_oracles(DEC, transcript=t)
    a = Subset.from_elements([0], 8)
    b = Subset.from_elements([0, 1, 2], 8)
    ratio(a, f, g)
    ratio(b, f, g)
    ratio(b, f, g)
    assert len(t) == g.count == 3
    assert t.entries == [a.mask, b.mask, b.mask]
    assert t.cards == bytes([1, 3, 3])
    assert QueryTranscript.__slots__ == ("entries", "cards")


def test_transcript_records_the_cardinality_of_every_entry():
    # a chunk the class-id table answers, a direct g call and a chunk
    # answered mask by mask (here one holding the g = 0 set) each record |S|
    t = QueryTranscript()
    inst = IncreasingInstance(6, 100, Fraction(1, 4))
    f, g = make_oracles(inst, transcript=t)
    first = query_batch([3, 5, 7], 6, f, g)
    g(Subset(9, 6))
    with pytest.raises(UndefinedRatioError):
        query_batch([1, 0], 6, f, g)
    second = query_batch(range(8, 12), 6, f, g)
    assert t.entries == [3, 5, 7, 9, 1, 0, 8, 9, 10, 11]
    assert t.cards == bytes([2, 2, 3, 2, 1, 0, 1, 2, 2, 3])
    assert type(first[0]) is type(second[0]) is bytes


# One pair per kind of class-id table: unplanted pairs, whose class id is |S|
# at every nonempty set, and planted pairs, whose ids are not: the decreasing
# grid in bytes at n = 14 and in a list past 256 classes at n = 100, and the
# increasing plant inside a chunk.
CARD_PAIRS = [
    DecreasingInstance(14, 4, 1, Fraction(1, 2)),
    IncreasingInstance(30, 10**6, Fraction(1, 1000)),
    DecreasingInstance(100, 25, 5, Fraction(1, 100)),
    DecreasingInstance(14, 4, 1, Fraction(1, 2), plant=random_k_subset(14, 4, 14)),
    DecreasingInstance(100, 25, 5, Fraction(1, 100), plant=random_k_subset(100, 25, 100)),
    IncreasingInstance(14, 1000, Fraction(1, 100), plant=random_k_subset(14, 7, 14)),
]


@pytest.mark.parametrize("inst", CARD_PAIRS, ids=lambda i: f"{i.family}-n{i.n}-{i.plant is not None}")
def test_cards_are_the_bit_count_of_the_entries_on_every_recording_path(inst):
    # after each way g's transcript can grow: the table path on a drawn list
    # and on an aligned block, the per-mask path of swapped handles and of an
    # f handle with a transcript, direct g calls and `record`
    n = inst.n
    stream = SeededStream(35, "cards", n)
    masks = [stream.nonempty_mask(n) for _ in range(300)]
    if inst.plant is not None:
        masks[7:7] = [inst.plant.mask]
    t = QueryTranscript()
    f, g = make_oracles(inst, t)

    def check(transcript=t):
        assert len(transcript.cards) == len(transcript.entries)
        assert transcript.cards == bytes(map(int.bit_count, transcript.entries))

    ids, classes = query_batch(masks, n, f, g)
    assert type(ids) is (list if len(classes) > 256 else bytes)
    # a recorder that copied the ids themselves would pass on the unplanted pairs alone
    assert (list(ids) == [mask.bit_count() for mask in masks]) is (inst.plant is None)
    check()
    query_batch(range(1, oracles.BLOCK), n, f, g)
    check()
    query_batch(masks[:20], n, g, f)
    check()
    for mask in masks[:5]:
        g(Subset(mask, n))
    check()
    f.transcript = QueryTranscript()
    query_batch(masks[:20], n, f, g)
    check()
    check(f.transcript)
    assert f.transcript.entries == masks[:20]
    t.record(masks[-1])
    check()
    assert len(t) == len(masks) + (oracles.BLOCK - 1) + 20 + 5 + 20 + 1


def test_only_the_g_handle_records():
    # f is the same function in every world, so only g's queries are kept;
    # a direct g call is recorded, a direct f call is not, and either
    # argument order of ratio records the set once
    t = QueryTranscript()
    f, g = make_oracles(DEC, transcript=t)
    assert f.transcript is None and g.transcript is t
    a = Subset.from_elements([0], 8)
    b = Subset.from_elements([1, 2], 8)
    f(a)
    g(b)
    ratio(a, g, f)
    assert t.entries == [b.mask, a.mask]
    assert (f.count, g.count) == (2, 2)


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


# ------------------------------------------------- the mask-native query path


def _bundled_kinds(n):
    return {
        "decreasing-planted": DecreasingInstance(n, 4, 2, Fraction(1, 3), plant=random_k_subset(n, 4, n)),
        "increasing-planted": IncreasingInstance(n, 7, Fraction(1, 5), plant=random_k_subset(n, n // 2, n)),
        "increasing-unplanted": IncreasingInstance(n, 7, Fraction(1, 5)),
    }


def _outcome(call):
    try:
        return call()
    except (ParameterError, UndefinedRatioError) as exc:
        return type(exc), str(exc)


def _one_query(mask, n, f, g):
    """query_batch on the one mask: its class (p, q, |S|)."""
    ids, classes = query_batch([mask], n, f, g)
    return classes[ids[0]]


def _reference_query(mask, n, f, g):
    """ratio_terms at the set of the mask, with |S|: the class query_batch must give."""
    return ratio_terms(unchecked_subset(mask, n), f, g) + (mask.bit_count(),)


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("kind", ["decreasing-planted", "increasing-planted", "increasing-unplanted"])
@pytest.mark.parametrize("order", ["fg", "gf"])
def test_query_terms_matches_ratio_terms_on_every_mask(n, kind, order):
    # query_batch on one mask at a time against ratio_terms: same (p, q)
    # or error, same counts and same transcript after every mask, with the
    # handles in either argument order; the value kernels on the same mask
    # return the evaluators' objects
    inst = _bundled_kinds(n)[kind]
    fast_t, slow_t = QueryTranscript(), QueryTranscript()
    fast, slow = make_oracles(inst, fast_t), make_oracles(inst, slow_t)
    if order == "gf":
        fast, slow = fast[::-1], slow[::-1]
    values = {role: instance_evaluator(inst, role) for role in ("f", "g")}
    for mask in range(1 << n):
        got = _outcome(lambda: _one_query(mask, n, *fast))
        want = _outcome(lambda: _reference_query(mask, n, *slow))
        assert got == want, (kind, mask)
        assert [h.count for h in fast] == [h.count for h in slow] == [mask + 1] * 2
        assert fast_t.entries == slow_t.entries
        for role, evaluate in values.items():
            value = evaluate(Subset(mask, n))
            assert batch_lookup(inst, role)([mask])[0] is value
    assert fast_t.entries == list(range(1 << n))
    if kind == "increasing-unplanted":
        assert _outcome(lambda: _one_query(0, n, *make_oracles(inst)))[0] is UndefinedRatioError


@pytest.mark.parametrize("kind", ["decreasing-planted", "increasing-planted", "increasing-unplanted"])
@pytest.mark.parametrize(
    "search",
    [
        lambda f, g, n: brute_force_min_ratio(f, g, n),
        lambda f, g, n: random_search(f, g, n, 5, 0),
        lambda f, g, n: local_search(f, g, n, 40, 0),
    ],
)
@pytest.mark.parametrize("g_n", [8, 9])
def test_wrong_ground_size_search_fails_alike_on_both_paths(kind, search, g_n):
    # a search at n = 9 on two n = 8 handles fails at f; at n = 8 with g of
    # size 9 it fails at g.  The `for_instance` handles and plain evaluator
    # handles raise the same ParameterError, after the same charges and with
    # nothing recorded.
    f_inst, g_inst, n = _bundled_kinds(8)[kind], _bundled_kinds(g_n)[kind], 17 - g_n
    outcomes = []
    for pair_handles in (True, False):
        t = QueryTranscript()
        if pair_handles:
            f, g = CountingOracle.for_instance(f_inst, "f"), CountingOracle.for_instance(g_inst, "g", t)
        else:
            f = CountingOracle(instance_evaluator(f_inst, "f"))
            g = CountingOracle(instance_evaluator(g_inst, "g"), t)
        with pytest.raises(ParameterError) as info:
            search(f, g, n)
        outcomes.append((str(info.value), f.count, g.count, t.entries))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (f"subset ground size {n} differs from instance n {17 - n}", 1, g_n - 8, [])


# ------------------------------------------------ the pair's ratio table


def _at_mask(inst, role):
    """Mask -> one side's value, through instance_evaluator on a Subset."""
    evaluate = instance_evaluator(inst, role)
    return lambda mask: evaluate(unchecked_subset(mask, inst.n))


def _table_lookup(inst):
    """The mask -> class lookup of a `make_oracles` pair's class-id table, uncharged."""
    _, _, kernel, classes, _ = make_oracles(inst)[1]._classes
    return lambda mask: classes[kernel([mask])[0]]


def _expected_class(f_value, g_value, card):
    if not g_value:
        return None
    return (f_value.numerator * g_value.denominator, f_value.denominator * g_value.numerator, card)


@pytest.mark.parametrize("inst", GAME_SCALE, ids=lambda i: f"n{i.n}-a{i.alpha}-b{i.beta}")
def test_decreasing_ratio_table_at_game_scale(inst):
    # Every cell (x, c) of the id table names the class of f at |S| = c over
    # the grid's g value, at c, and equal classes are one id.  Each reachable
    # cell is what the pair's lookup returns at a set with c - x plant
    # elements and x others, and there it agrees with instance_evaluator.
    n = inst.n
    values, ids, classes = oracles._dec_grid(n, inst.alpha, inst.beta, inst.epsilon)
    assert len(ids) == n + 1 and all(len(row) == n + 1 for row in ids)
    assert len(set(classes)) == len(classes) and None not in classes
    f_value, g_value = _at_mask(inst, "f"), _at_mask(inst, "g")
    for x, row in enumerate(ids):
        for c, i in enumerate(row):
            assert classes[i] == _expected_class(f_value((1 << c) - 1), values[x][c], c), (x, c)
    lookup = _table_lookup(inst)
    inside = [i for i in range(n) if inst.plant.mask >> i & 1]
    outside = [i for i in range(n) if not inst.plant.mask >> i & 1]
    for x in range(len(outside) + 1):
        for a in range(inst.alpha + 1):
            mask = sum(1 << i for i in inside[:a] + outside[:x])
            assert lookup(mask) is classes[ids[x][a + x]], (x, a)
            assert lookup(mask) == _expected_class(f_value(mask), g_value(mask), a + x), (x, a)


@pytest.mark.parametrize("m, epsilon", [(Fraction(100), Fraction(1, 4)), (Fraction(7, 3), Fraction(15, 16))])
def test_increasing_ratio_table_at_game_scale(m, epsilon):
    # At every cardinality and at the plant, planted and unplanted, the
    # lookup is f/g of instance_evaluator as (f_num * g_den, f_den * g_num, |S|),
    # None where g = 0; equal classes are one object.
    n = 30
    plant = random_k_subset(n, n // 2, 30)
    assert plant.mask != (1 << n // 2) - 1
    held = {}
    for inst in (IncreasingInstance(n, m, epsilon, plant=plant), IncreasingInstance(n, m, epsilon)):
        lookup, f_value, g_value = _table_lookup(inst), _at_mask(inst, "f"), _at_mask(inst, "g")
        for mask in [(1 << c) - 1 for c in range(n + 1)] + [plant.mask]:
            term = lookup(mask)
            assert term == _expected_class(f_value(mask), g_value(mask), mask.bit_count()), (inst.plant, mask)
            assert held.setdefault(term, term) is term, (inst.plant, mask)
        assert lookup(0) is None
    assert _table_lookup(IncreasingInstance(n, m, epsilon, plant=plant))(plant.mask) == (n // 2, 1, n // 2)


GAME_SCALE_PAIRS = [i for i in GAME_SCALE if i.n == 100] + [
    IncreasingInstance(30, 100, Fraction(1, 4), plant=random_k_subset(30, 15, 30)),
    IncreasingInstance(30, 100, Fraction(1, 4)),
]


@pytest.mark.parametrize("inst", GAME_SCALE_PAIRS, ids=lambda i: f"{i.family}-n{i.n}-{i.plant is not None}")
def test_query_terms_matches_ratio_terms_on_uniform_draws(inst):
    # query_batch one mask at a time on a make_oracles pair and ratio_terms
    # on a fresh pair give the same (p, q), counts and transcript over
    # 2,000 seeded draws
    n = inst.n
    fast_t, slow_t = QueryTranscript(), QueryTranscript()
    fast, slow = make_oracles(inst, fast_t), make_oracles(inst, slow_t)
    stream = SeededStream(n, "query-terms-draws")
    for _ in range(2000):
        mask = stream.nonempty_mask(n)
        assert _one_query(mask, n, *fast) == _reference_query(mask, n, *slow), mask
    assert [h.count for h in fast] == [h.count for h in slow] == [2000, 2000]
    assert fast_t.entries == slow_t.entries and len(fast_t) == 2000


def _partner_cases(inst):
    """Handle pairs by name, each built fresh with its transcripts: (f, g, transcripts)."""
    # f of the decreasing family depends on epsilon, f of the increasing one on m
    other = replace(inst, epsilon=Fraction(1, 7)) if inst.family == "decreasing" else replace(inst, m=3)

    def one_pair():
        t = QueryTranscript()
        return (*make_oracles(inst, t), [t])

    def two_calls():
        t = QueryTranscript()
        return make_oracles(inst)[0], make_oracles(inst, t)[1], [t]

    def swapped():
        t = QueryTranscript()
        f, g = make_oracles(inst, t)
        return g, f, [t]

    def f_transcript():
        f_t, g_t = QueryTranscript(), QueryTranscript()
        f, g = make_oracles(inst, g_t)
        f.transcript = f_t
        return f, g, [f_t, g_t]

    def other_f():
        t = QueryTranscript()
        return make_oracles(other)[0], make_oracles(inst, t)[1], [t]

    return {"one-pair": one_pair, "two-calls": two_calls, "swapped": swapped,
            "f-transcript": f_transcript, "other-instance-f": other_f}


@pytest.mark.parametrize("kind", ["decreasing-planted", "increasing-planted", "increasing-unplanted"])
@pytest.mark.parametrize("case", ["one-pair", "two-calls", "swapped", "f-transcript", "other-instance-f"])
def test_query_terms_partner_rule(kind, case):
    # Only a make_oracles pair as built, in (f, g) order and f without a
    # transcript, reads its ratio table, and only on masks where g != 0;
    # every other query goes mask by mask through ratio_terms and calls the
    # handles' evaluators.  Either way the outcomes, counts and records are
    # ratio_terms'.
    n = 8
    inst = _bundled_kinds(n)[kind]
    build = _partner_cases(inst)[case]
    fast_f, fast_g, fast_ts = build()
    slow_f, slow_g, slow_ts = build()
    calls = ([], [])
    for handle, seen in zip((fast_f, fast_g), calls):
        def spy(S, _fn=handle._fn, _seen=seen):
            _seen.append(S.mask)
            return _fn(S)

        handle._fn = spy
    masks = list(range(1 << n))
    for mask in masks:
        got = _outcome(lambda: _one_query(mask, n, fast_f, fast_g))
        want = _outcome(lambda: _reference_query(mask, n, slow_f, slow_g))
        assert got == want, (case, mask)
    g_is_zero = _at_mask(inst, "g")(0) == 0
    routed = ([0] if g_is_zero else []) if case == "one-pair" else masks
    assert calls == (routed, routed)
    assert (fast_f.count, fast_g.count) == (slow_f.count, slow_g.count) == (1 << n, 1 << n)
    assert [t.entries for t in fast_ts] == [t.entries for t in slow_ts]
    assert all(t.entries == masks for t in fast_ts)
    # one batch of every nonempty mask: a pair as built calls no evaluator
    ids, classes = query_batch(masks[1:], n, fast_f, fast_g)
    assert [classes[i] for i in ids] == [_reference_query(mask, n, slow_f, slow_g) for mask in masks[1:]]
    batched = [] if case == "one-pair" else masks[1:]
    assert calls == (routed + batched, routed + batched)
    assert [t.entries for t in fast_ts] == [t.entries for t in slow_ts]


# ------------------------------------------- batch kernels vs one-mask calls

BATCH_KINDS = ["decreasing-planted", "increasing-planted", "increasing-unplanted"]


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_batch_lookup_returns_the_evaluators_objects(n, kind):
    # over every mask, in ascending and in descending order, entry i is the
    # very object instance_evaluator answers at masks[i]
    inst = _bundled_kinds(n)[kind]
    for role in ("f", "g"):
        evaluate = instance_evaluator(inst, role)
        for masks in (list(range(1 << n)), list(range(1 << n))[::-1]):
            got = batch_lookup(inst, role)(masks)
            assert len(got) == len(masks)
            assert all(value is evaluate(Subset(mask, n)) for mask, value in zip(masks, got)), (kind, role)


def _range_kinds(n):
    """The bundled kinds that exist at n; at n = 1 only the decreasing family, with alpha = 1 and beta = 0."""
    if n == 1:
        return {"decreasing-planted": DecreasingInstance(1, 1, 0, Fraction(1, 3), plant=Subset(1, 1))}
    return _bundled_kinds(n)


def _step_ranges(n, plant):
    """Step-1 ranges of masks at n: the whole cube, one mask, none, the last aligned block, the
    plant's block and the plant's neighbours, each block edge straddled, and a block holding mask 0."""
    top, block = 1 << n, oracles.BLOCK
    home = plant & -block
    return [
        range(1, top), range(1, 2), range(top - 1, top), range(top - 1, top - 1),
        range(max(1, top - block), top), range(max(1, home), min(top, home + block)),
        range(plant, plant + 1), range(max(1, plant - 2), min(top, plant + 3)),
        *(range(edge - 3, min(top, edge + 3)) for edge in range(block, top, block)),
        range(0, min(top, block)),
    ]


def _batch_outcome(masks, n, inst):
    """query_batch on a fresh pair: each mask's class and the ids' type, or the error and None; charges; transcript."""
    t = QueryTranscript()
    f, g = make_oracles(inst, t)
    try:
        ids, classes = query_batch(masks, n, f, g)
        got = [classes[i] for i in ids], type(ids)
    except UndefinedRatioError as exc:
        got = (type(exc), str(exc)), None
    return *got, f.count, g.count, t.entries


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in BATCH_KINDS for n in (1, 5, 10, 12, 13, 14)
                                     if kind in _range_kinds(n)])
def test_query_batch_matches_query_terms_on_every_nonempty_mask(kind, n):
    # the classes of the ids are ratio_terms' (p, q) and |S| at each mask,
    # with the counts and transcripts of one ratio_terms call per mask, for
    # a list and for a step-1 range of the same masks; every pair here has
    # at most 256 classes, so masks where g > 0 are answered as bytes
    inst = _range_kinds(n)[kind]
    masks = list(range(1, 1 << n))
    slow_t = QueryTranscript()
    slow = make_oracles(inst, slow_t)
    want = [_reference_query(mask, n, *slow) for mask in masks]
    assert _batch_outcome(masks, n, inst) == (want, bytes, len(masks), len(masks), masks)
    for span in _step_ranges(n, inst.plant.mask if inst.plant else (1 << n) * 2 // 3):
        slow_t = QueryTranscript()
        slow = make_oracles(inst, slow_t)
        want = _outcome(lambda: [_reference_query(mask, n, *slow) for mask in span])
        reference = (want, slow[0].count, slow[1].count, slow_t.entries)
        by_range, by_list = _batch_outcome(span, n, inst), _batch_outcome(list(span), n, inst)
        assert by_range[:1] + by_range[2:] == by_list[:1] + by_list[2:] == reference, span
        assert by_range[1] is by_list[1] is (None if 0 in span and kind.startswith("increasing") else bytes), span


def test_a_pair_past_256_classes_answers_a_block_as_the_list_does():
    # DecreasingInstance(24, 23, 0, 1/4) with a plant has 324 classes, too
    # many for byte ids: the plant's aligned block, queried as a range, gets
    # the list path's ids and classes, charges and transcript
    n = 24
    inst = DecreasingInstance(n, 23, 0, Fraction(1, 4), plant=random_k_subset(n, 23, 24))
    home = inst.plant.mask & -oracles.BLOCK
    block = range(home, home + oracles.BLOCK)
    by_range, by_list = _batch_outcome(block, n, inst), _batch_outcome(list(block), n, inst)
    assert len(make_oracles(inst)[1]._classes[3]) == 324
    assert by_range == by_list
    assert by_range[1:4] == (list, oracles.BLOCK, oracles.BLOCK)


@pytest.mark.parametrize("past_256", [False, True])
def test_drawn_lists_get_byte_ids_up_to_256_classes(past_256):
    # A drawn list, in no mask order, with the plant in it twice: a pair with
    # at most 256 classes gives its ids as bytes, one with more (324) as a
    # list, and either way each id's class is ratio_terms' at its mask, with
    # one charge per mask on each handle and the list as g's transcript
    n = 24
    if past_256:
        inst = DecreasingInstance(n, 23, 0, Fraction(1, 4), plant=random_k_subset(n, 23, 24))
    else:
        inst = IncreasingInstance(n, 1000, Fraction(1, 100), plant=random_k_subset(n, n // 2, 24))
    stream = SeededStream(24, "drawn", n)
    masks = [stream.nonempty_mask(n) for _ in range(600)]
    masks[7:7] = masks[300:300] = [inst.plant.mask]
    slow_t = QueryTranscript()
    slow = make_oracles(inst, slow_t)
    want = [_reference_query(mask, n, *slow) for mask in masks]
    assert len(make_oracles(inst)[1]._classes[3]) == (324 if past_256 else 26)
    assert _batch_outcome(masks, n, inst) == (want, list if past_256 else bytes, len(masks), len(masks), masks)


@pytest.mark.parametrize("planted", [False, True])
def test_listed_ids_are_the_comprehensions_bytes(planted):
    # under the cardinality and plant rules a list's ids are its counts put
    # through one translate table, or the cells' ids when it holds the plant:
    # each id's class is f/g of instance_evaluator at its mask, with the
    # plant first, twice inside and last, the empty set included, and for a
    # range that is not step-1
    n = 30
    inst = IncreasingInstance(n, 10**6, Fraction(1, 1000))
    plant = random_k_subset(n, n // 2, 30).mask
    if planted:
        inst = inst.with_plant(Subset(plant, n))
    stream = SeededStream(30, "listed", n)
    masks = [plant] + [stream.nonempty_mask(n) for _ in range(2000)] + [0, plant]
    masks[500:500] = masks[1000:1000] = [plant]
    kernel, classes = oracles.class_lookup(inst)
    f_value, g_value = _at_mask(inst, "f"), _at_mask(inst, "g")
    for span in (masks, range(plant - 70, plant + 70, 7)):
        ids = kernel(span)
        assert type(ids) is bytes and len(ids) == len(span)
        assert [classes[i] for i in ids] == [_expected_class(f_value(m), g_value(m), m.bit_count()) for m in span]
    assert (classes[kernel(masks)[0]] == (n // 2, 1, n // 2)) is planted


@pytest.mark.parametrize("n", [5, 10, 11])
def test_increasing_plant_is_kept_apart_from_the_cardinality_table(n):
    # The increasing tables are indexed by |S| alone, 0..n, and the plant's
    # value and id are kept beside them, so no cardinality reads the plant's
    # entry: the full set keeps its own class whether the pair is planted or not
    inst = IncreasingInstance(n, 7, Fraction(1, 5))
    f, g, ids, classes = oracles._inc_tables(n, inst.m, inst.epsilon)
    assert len(f) == len(g[0]) == len(ids[0]) == n + 1
    assert g[1] == 1 and classes[ids[1]] == (n // 2, 1, n // 2)
    full = (1 << n) - 1
    for pair in (inst, inst.with_plant(random_k_subset(n, n // 2, n))):
        assert _one_query(full, n, *make_oracles(pair)) == _reference_query(full, n, *make_oracles(pair))
        assert _one_query(full, n, *make_oracles(pair)) != (n // 2, 1, n // 2)


@pytest.mark.parametrize("n", [5, 10])
def test_plant_entry_at_every_occurrence(n):
    # the increasing plant placed first and last, among the other half-size sets
    inst = _bundled_kinds(n)["increasing-planted"]
    plant = inst.plant.mask
    others = [mask for mask in range(1 << n) if mask.bit_count() == n // 2 and mask != plant]
    masks = [plant, *others, plant]
    values = batch_lookup(inst, "g")(masks)
    planted = instance_evaluator(inst, "g")(inst.plant)
    assert values[0] is values[-1] is planted == 1
    assert all(value is not planted for value in values[1:-1])
    ids, classes = query_batch(masks, n, *make_oracles(inst))
    assert ids[0] == ids[-1] and classes[ids[0]] == (n // 2, 1, n // 2)
    assert all(classes[i] != (n // 2, 1, n // 2) for i in ids[1:-1])


def _per_mask_until_raise(masks, n, f, g):
    """ratio_terms one mask at a time, stopping at the first raise: (terms, error)."""
    terms = []
    for mask in masks:
        try:
            terms.append(ratio_terms(unchecked_subset(mask, n), f, g))
        except UndefinedRatioError as exc:
            return terms, (type(exc), str(exc))
    return terms, None


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("transcripts", ["g", "f-and-g", "shared"])
@pytest.mark.parametrize("kind", ["increasing-planted", "increasing-unplanted"])
def test_query_batch_stops_at_an_undefined_ratio(n, transcripts, kind):
    # mask 0 in mid-list: charged and recorded up to and including it, then
    # the UndefinedRatioError of the per-mask calls; the masks after it are
    # neither charged nor recorded.  Every mask lies in the ground set: at
    # n = 5 the nonempty masks repeat from 1 after 31.
    inst = _bundled_kinds(n)[kind]
    masks = [1 + i % ((1 << n) - 1) for i in range(39)] + [0] + [1 + i % ((1 << n) - 1) for i in range(39, 89)]
    outcomes = []
    for batched in (True, False):
        g_t = QueryTranscript()
        f, g = make_oracles(inst, g_t)
        f_t = {"g": None, "f-and-g": QueryTranscript(), "shared": g_t}[transcripts]
        f.transcript = f_t
        if batched:
            with pytest.raises(UndefinedRatioError) as info:
                query_batch(masks, n, f, g)
            error = (type(info.value), str(info.value))
        else:
            _, error = _per_mask_until_raise(masks, n, f, g)
        outcomes.append((error, f.count, g.count, f_t.entries if f_t else None, list(g_t.entries)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1:3] == (40, 40)
    assert outcomes[0][0] == (UndefinedRatioError, f"g({Subset(0, n)!r}) = 0; the ratio is undefined there")


@pytest.mark.parametrize("kind", ["decreasing-planted", "increasing-planted", "increasing-unplanted"])
def test_pair_queried_at_the_wrong_ground_size(kind):
    # One mask at n = 9 with a transcript on f: ParameterError after f is
    # charged once and g not at all, with nothing recorded, as ratio_terms gives
    inst = _bundled_kinds(8)[kind]
    outcomes = []
    for query in (lambda f, g: _one_query(1, 9, f, g), lambda f, g: ratio_terms(unchecked_subset(1, 9), f, g)):
        f_t, g_t = QueryTranscript(), QueryTranscript()
        f, g = make_oracles(inst, g_t)
        f.transcript = f_t
        with pytest.raises(ParameterError) as info:
            query(f, g)
        outcomes.append((str(info.value), f.count, g.count, f_t.entries, g_t.entries))
    assert outcomes[0] == outcomes[1] == ("subset ground size 9 differs from instance n 8", 1, 0, [], [])


@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_query_batch_at_the_wrong_ground_size(kind):
    # A pair queried at n = 9, with and without a transcript on f: f is
    # charged once and g not at all, with nothing recorded, as ratio_terms
    # gives on the batch's first mask
    inst = _bundled_kinds(8)[kind]
    for f_recorded in (False, True):
        outcomes = []
        for query in (lambda f, g: query_batch([1, 2, 3], 9, f, g),
                      lambda f, g: ratio_terms(unchecked_subset(1, 9), f, g)):
            f_t, g_t = QueryTranscript(), QueryTranscript()
            f, g = make_oracles(inst, g_t)
            if f_recorded:
                f.transcript = f_t
            with pytest.raises(ParameterError) as info:
                query(f, g)
            outcomes.append((str(info.value), f.count, g.count, f_t.entries, g_t.entries))
        assert outcomes[0] == outcomes[1] == ("subset ground size 9 differs from instance n 8", 1, 0, [], [])
