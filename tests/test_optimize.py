"""Exact and heuristic ratio optimization, budgets, determinism."""

from fractions import Fraction

import pytest

from ratiolab.errors import EnumerationGuardError, ParameterError
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.optimize import (
    OPT_CSV_COLUMNS,
    OptResult,
    brute_force_max_ratio,
    brute_force_min_ratio,
    local_search,
    make_algorithm,
    opt_result_row,
    random_search,
)
from ratiolab.oracles import CountingOracle, QueryTranscript, make_oracles, ratio
from ratiolab.sampling import random_k_subset
from ratiolab.sets import Subset

DEC = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2], 8))
INC = IncreasingInstance(8, 100, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2, 3], 8))
INC_BARE = IncreasingInstance(8, 100, Fraction(1, 2))


# ------------------------------------------------------------- brute force


def test_brute_min_decreasing_finds_plant():
    f, g = make_oracles(DEC)
    res = brute_force_min_ratio(f, g, 8)
    assert res.argset == DEC.plant
    assert res.value == Fraction(1, 5) == DEC.planted_ratio()
    assert res.queries_used == 2 * (2**8 - 1) == f.count + g.count
    assert res.method == "brute"


def test_brute_max_decreasing_is_one():
    # f <= g everywhere with equality off the planted region, so the max
    # ratio is 1; the smallest-cardinality, smallest-mask winner is {0}
    f, g = make_oracles(DEC)
    res = brute_force_max_ratio(f, g, 8)
    assert res.value == 1
    assert res.argset == Subset.from_elements([0], 8)


def test_brute_min_increasing_planted():
    f, g = make_oracles(INC)
    res = brute_force_min_ratio(f, g, 8)
    assert res.argset == INC.plant
    assert res.value == 4


def test_brute_max_increasing_planted():
    f, g = make_oracles(INC)
    res = brute_force_max_ratio(f, g, 8)
    assert res.argset == Subset.full(8)
    assert res.value == 6401


def test_brute_min_increasing_unplanted_floor():
    f, g = make_oracles(INC_BARE)
    res = brute_force_min_ratio(f, g, 8)
    assert res.value == 8 == INC_BARE.min_ratio_floor()
    # every cardinality <= 4 set scores exactly 8; the tie-break picks {0}
    assert res.argset == Subset.from_elements([0], 8)


def test_brute_respects_guard():
    f, g = make_oracles(IncreasingInstance(25, 100, Fraction(1, 2)))
    with pytest.raises(EnumerationGuardError):
        brute_force_min_ratio(f, g, 25)
    assert f.count == g.count == 0


# -------------------------------------------------------------- heuristics


def test_local_search_descends_to_floor():
    # seed 0 starts at a singleton: every ratio at cardinality <= 4 is
    # exactly 8, so the start is already a local minimum with value 8
    f, g = make_oracles(INC_BARE)
    res = local_search(f, g, 8, budget=8**3, seed=0)
    assert res.value == 8
    assert res.argset == Subset.from_elements([0], 8)
    assert res.method == "local"


def test_local_search_trap_above_half():
    # seed 8 starts at cardinality 6, where dropping to 5 makes the ratio
    # worse (6405/2 > 6403/2) and so does adding; the search is trapped at
    # a local minimum far above the global floor of 8
    f, g = make_oracles(INC_BARE)
    res = local_search(f, g, 8, budget=8**3, seed=8)
    assert res.value == Fraction(6403, 2)
    assert res.argset.cardinality == 6


def test_local_search_from_five_escapes():
    # seed 7 starts at cardinality 5; the best single move is a drop, after
    # which the plateau at value 8 stops the descent
    f, g = make_oracles(INC_BARE)
    res = local_search(f, g, 8, budget=8**3, seed=7)
    assert res.value == 8
    assert res.argset.cardinality <= 4


def test_local_search_budget_is_query_count():
    f, g = make_oracles(INC_BARE)
    res = local_search(f, g, 8, budget=20, seed=7)
    assert res.queries_used <= 20
    assert res.queries_used == f.count + g.count
    with pytest.raises(ParameterError):
        local_search(*make_oracles(INC_BARE), 8, budget=7, seed=0)  # < max(n, 2)


def test_random_search_budget_is_set_count():
    f, g = make_oracles(INC_BARE)
    res = random_search(f, g, 8, budget=33, seed=1)
    assert res.queries_used == 66 == f.count + g.count
    assert res.method == "random"
    with pytest.raises(ParameterError):
        random_search(*make_oracles(INC_BARE), 8, budget=0, seed=0)


def test_heuristics_deterministic():
    for search, budget in ((local_search, 100), (random_search, 50)):
        a = search(*make_oracles(INC), 8, budget, 12345)
        b = search(*make_oracles(INC), 8, budget, 12345)
        assert (a.argset, a.value, a.queries_used) == (b.argset, b.value, b.queries_used)


def test_heuristics_never_beat_brute():
    f, g = make_oracles(INC)
    truth = brute_force_min_ratio(f, g, 8).value
    for seed in range(50):
        for search, budget in ((random_search, 40), (local_search, 120)):
            fo, go = make_oracles(INC)
            res = search(fo, go, 8, budget, seed)
            assert res.value >= truth
            # the reported value really is the ratio at the reported set
            fv, gv = make_oracles(INC)
            assert ratio(res.argset, fv, gv) == res.value


# ------------------------------------------ class ids vs one class per mask

CLASS_SEARCHES = {
    "brute-min": lambda f, g, n: brute_force_min_ratio(f, g, n),
    "brute-max": lambda f, g, n: brute_force_max_ratio(f, g, n),
    "random": lambda f, g, n: random_search(f, g, n, 300, 5),
    "local": lambda f, g, n: local_search(f, g, n, 200, 5),
}


def _class_kinds(n):
    # the unplanted decreasing g is f itself: that instance has no g oracle
    return {
        "decreasing-planted": DecreasingInstance(n, 4, 2, Fraction(1, 3), plant=random_k_subset(n, 4, n)),
        "increasing-planted": IncreasingInstance(n, 7, Fraction(1, 5), plant=random_k_subset(n, n // 2, n)),
        "increasing-unplanted": IncreasingInstance(n, 7, Fraction(1, 5)),
    }


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("kind", ["decreasing-planted", "increasing-planted", "increasing-unplanted"])
@pytest.mark.parametrize("search", sorted(CLASS_SEARCHES))
def test_class_table_and_per_mask_classes_search_alike(n, kind, search):
    # A make_oracles pair hands the search its cached class ids; handles from
    # two make_oracles calls are not partners, so each mask is its own class
    # built through ratio_terms.  Results, counts and transcripts agree.
    inst = _class_kinds(n)[kind]
    runs = []
    for split in (False, True):
        t = QueryTranscript()
        f, g = (make_oracles(inst)[0], make_oracles(inst, t)[1]) if split else make_oracles(inst, t)
        assert (g._classes[0] is f) is not split
        result = CLASS_SEARCHES[search](f, g, n)
        runs.append((result, f.count, g.count, t.entries))
    assert runs[0] == runs[1]


def _scaled_ties():
    """Wrapped handles at n = 6 where f/g is base(S) scaled as (k * base, k), k = 1 + mask % 3.

    The minimum 1 is taken at masks 49 and 56 (|S| = 3, classes (2, 2, 3) and
    (3, 3, 3)) and 15 (|S| = 4); the maximum 100 at masks 40 and 48 (|S| = 2,
    classes (200, 2, 2) and (100, 1, 2)) and 7 (|S| = 3, class (200, 2, 3)).
    Every other set has base 2 + |S|.
    """
    base = {49: 1, 56: 1, 15: 1, 40: 100, 48: 100, 7: 100}
    f = CountingOracle(lambda S: (1 + S.mask % 3) * base.get(S.mask, 2 + S.mask.bit_count()))
    g = CountingOracle(lambda S: 1 + S.mask % 3)
    return f, g


def test_ties_across_unreduced_classes():
    # equal values from different (p, q): every tying class of the smallest
    # cardinality wins, and the smallest of their masks is returned
    assert brute_force_min_ratio(*_scaled_ties(), 6)[:2] == (Subset(49, 6), 1)
    assert brute_force_max_ratio(*_scaled_ties(), 6)[:2] == (Subset(40, 6), 100)
    # 2,000 draws cover all 63 sets, so random search finds the same minimum
    assert random_search(*_scaled_ties(), 6, 2000, 1)[:2] == (Subset(49, 6), 1)


# ------------------------------------------------------- algorithm handles


def test_make_algorithm_handles():
    brute = make_algorithm("brute", budget=0)
    f, g = make_oracles(DEC)
    res = brute(f, g, 8, seed=99)
    assert res.value == Fraction(1, 5)
    rand = make_algorithm("random", budget=25)
    f, g = make_oracles(DEC)
    res2 = rand(f, g, 8, seed=4)
    assert res2.queries_used == 50
    local = make_algorithm("local", budget=64)
    f, g = make_oracles(DEC)
    assert local(f, g, 8, seed=4).method == "local"
    with pytest.raises(ParameterError):
        make_algorithm("annealing", budget=10)


def test_opt_result_row_shape():
    res = OptResult(Subset.from_elements([0, 1, 2], 8), Fraction(1, 5), 510, "brute")
    row = opt_result_row(res, 8, "decreasing", seed=None)
    assert len(row) == len(OPT_CSV_COLUMNS)
    assert row == ("brute", 8, "decreasing", 1, 5, "7", 510, "")
    assert opt_result_row(res, 8, "decreasing", seed=3)[-1] == 3
