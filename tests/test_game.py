"""Game harness: distinguishing probabilities, lazy planting, trial reports.

The hypergeometric expectations were computed independently (direct plant
enumeration) before the closed form was implemented, then frozen here.
"""

from collections import Counter
from fractions import Fraction
from math import comb, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import binomial_distinguish_probability, monte_carlo_distinguish

from ratiolab import game
from ratiolab.errors import NoConsistentPlantError, ParameterError, RatioLabError, UndefinedRatioError
from ratiolab.game import (
    GAME_CSV_COLUMNS,
    GameReport,
    differs_from_unplanted,
    distinguish_probability,
    find_consistent_plant,
    game_report_row,
    run_game_decreasing,
    run_game_increasing,
    summarize_games,
    union_bound,
)
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.optimize import OptResult, local_search, make_algorithm, random_search
from ratiolab.oracles import QueryTranscript, class_lookup, make_oracles, ratio
from ratiolab.sampling import SeededStream, derive_seed, random_k_subset
from ratiolab.sets import Subset, iter_k_subset_masks

# ------------------------------------------------- distinguishing probability


def test_distinguish_probability_frozen_values():
    # n=14, alpha=4, beta=1: a size-6 query separates with probability
    # 15/1001, while a size-7 query (past 2 alpha - beta = 7) never does
    assert distinguish_probability(14, 4, 1, 6) == Fraction(15, 1001)
    assert distinguish_probability(14, 4, 1, 7) == 0


def test_distinguish_probability_edges():
    # queries of cardinality <= beta can never separate
    assert distinguish_probability(10, 4, 2, 2) == 0
    assert distinguish_probability(10, 4, 2, 0) == 0
    # alpha = n means the plant is the whole ground set, so any query with
    # beta < |S| <= n separates with certainty
    assert distinguish_probability(10, 10, 2, 3) == 1
    # alpha = 0 gives min{alpha, s} = 0, impossible to beat
    assert distinguish_probability(10, 0, 0, 5) == 0


def test_distinguish_probability_support():
    # positive exactly on beta < s < 2 alpha - beta
    n, alpha, beta = 12, 4, 1
    for s in range(n + 1):
        p = distinguish_probability(n, alpha, beta, s)
        assert (p > 0) == (beta < s < 2 * alpha - beta), s


def test_distinguish_probability_validation():
    with pytest.raises(ParameterError):
        distinguish_probability(10, 4, 1, 11)
    with pytest.raises(ParameterError):
        distinguish_probability(10, 4, 1, -1)
    with pytest.raises(ParameterError):
        distinguish_probability(10, 11, 1, 5)
    with pytest.raises(ParameterError):
        distinguish_probability(10, 4, -1, 5)


def exhaustive_probability(n: int, alpha: int, beta: int, s: int) -> Fraction:
    """Direct enumeration over all C(n, alpha) plants; the independent oracle."""
    s_mask = (1 << s) - 1
    threshold = min(alpha, s)
    favorable = sum(
        1
        for r_mask in iter_k_subset_masks(n, alpha)
        if beta + (s_mask & ~r_mask).bit_count() < threshold
    )
    return Fraction(favorable, comb(n, alpha))


def test_distinguish_probability_matches_enumeration():
    for n in (6, 8, 10):
        for alpha in range(0, n + 1, 2):
            # one shared intersection histogram would do; direct enumeration
            # per (beta, s) is still instant at these sizes
            for beta in range(0, alpha + 1, 2):
                for s in range(n + 1):
                    assert distinguish_probability(n, alpha, beta, s) == exhaustive_probability(
                        n, alpha, beta, s
                    ), (n, alpha, beta, s)


def test_term_ratio_recurrence_equals_the_binomial_sum():
    # Every (n, alpha, beta <= 3, s) with n <= 40, then seeded cases up to n = 200.
    def fast(n, alpha, beta, s):
        return Fraction(game._favorable_plants.__wrapped__(n, alpha, beta, s), comb(n, alpha))

    for n in range(1, 41):
        for alpha in range(n + 1):
            for beta in range(4):
                for s in range(n + 1):
                    assert fast(n, alpha, beta, s) == binomial_distinguish_probability(n, alpha, beta, s), (
                        n, alpha, beta, s)
    stream = SeededStream(12, "recurrence")
    for _ in range(400):
        n = 41 + stream.randbelow(160)
        alpha = stream.randbelow(n + 1)
        beta = stream.randbelow(alpha + 2)
        s = stream.randbelow(n + 1)
        assert fast(n, alpha, beta, s) == binomial_distinguish_probability(n, alpha, beta, s), (n, alpha, beta, s)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinguish_probability_nonincreasing_in_beta(data):
    n = data.draw(st.integers(2, 16))
    alpha = data.draw(st.integers(1, n))
    beta = data.draw(st.integers(0, alpha - 1))
    s = data.draw(st.integers(0, n))
    assert distinguish_probability(n, alpha, beta + 1, s) <= distinguish_probability(
        n, alpha, beta, s
    )


def test_union_bound_values():
    assert union_bound([6, 6, 6], 14, 4, 1) == Fraction(45, 1001)
    assert union_bound([], 14, 4, 1) == 0
    assert union_bound([7, 7], 14, 4, 1) == 0
    # the sum is capped at 1
    assert union_bound([3] * 5000, 14, 4, 1) == 1
    # bad (n, alpha, beta) raise with no cardinality to check
    for n, alpha, beta in ((14, 40, 1), (14, 4, -3), (1.5, 4, 1)):
        with pytest.raises(ParameterError):
            union_bound([], n, alpha, beta)


def test_union_bound_of_a_count_mapping():
    # a mapping cardinality -> count is the sequence that repeats each
    # cardinality count times; a count of 0 adds nothing, and a count that
    # is not an int >= 0 raises
    assert union_bound({6: 3, 7: 2}, 14, 4, 1) == union_bound([6, 7, 6, 7, 6], 14, 4, 1) == Fraction(45, 1001)
    assert union_bound({6: 0, 3: 0}, 14, 4, 1) == 0
    for bad in (-1, 1.0, "2"):
        with pytest.raises(ParameterError, match="query count must be an int >= 0"):
            union_bound({6: bad}, 14, 4, 1)


@pytest.mark.parametrize("n, alpha, beta", [(14, 4, 1), (30, 6, 0), (60, 12, 5), (100, 10, 1), (100, 50, 60)])
def test_union_bound_equals_the_capped_fraction_sum(n, alpha, beta):
    # Seeded cardinality lists, short and long, so the sum falls below 1, reaches it or is all zero.
    stream = SeededStream(18, f"union/{n}/{alpha}/{beta}")
    outcomes = set()
    for length in (0, 1, 3, 40, 400, 4000):
        for _ in range(4):
            cards = [stream.randbelow(n + 1) for _ in range(length)]
            total = sum((count * binomial_distinguish_probability(n, alpha, beta, s)
                         for s, count in Counter(cards).items()), Fraction(0))
            bound = union_bound(cards, n, alpha, beta)
            assert type(bound) is Fraction
            assert bound == min(Fraction(1), total), (n, alpha, beta, length)
            assert union_bound(Counter(cards), n, alpha, beta) == union_bound(dict(Counter(cards)), n, alpha, beta) == bound
            outcomes.add("zero" if not total else "below 1" if total < 1 else "capped")
    assert outcomes == ({"zero", "below 1", "capped"} if beta < alpha else {"zero"})
    # (n, alpha, beta) are checked before the sum, so an empty sequence does not hide them
    with pytest.raises(ParameterError):
        union_bound([], n, n + 1, beta)


@pytest.mark.parametrize("bad, message", [
    (15, "query cardinality s=15 outside 0..14"),
    (-1, "query cardinality s=-1 outside 0..14"),
    (6.5, r"n, alpha, beta and s must be ints, got \(14, 4, 1, 6.5\)"),
    (True, r"n, alpha, beta and s must be ints, got \(14, 4, 1, True\)"),
], ids=["over-n", "negative", "float", "bool"])
def test_union_bound_rejects_a_bad_cardinality_after_good_ones(bad, message):
    # (n, alpha, beta) are checked once; each cardinality, by type and range,
    # raises as distinguish_probability does, after good ones were summed
    with pytest.raises(ParameterError, match=f"^{message}$"):
        union_bound([6, 3, 6, bad, 7], 14, 4, 1)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        distinguish_probability(14, 4, 1, bad)


def test_monte_carlo_within_three_sigma():
    exact = distinguish_probability(14, 4, 1, 6)
    est = monte_carlo_distinguish(14, 4, 1, 6, trials=20000, seed=11)
    assert est.trials == 20000
    assert est.hits == est.frequency * 20000
    assert abs(float(est.frequency) - float(exact)) <= 3 * est.standard_error + 1e-12


def test_monte_carlo_degenerate_cases():
    # exact probability 0 and 1 come out exactly
    assert monte_carlo_distinguish(10, 4, 2, 2, trials=500, seed=0).hits == 0
    assert monte_carlo_distinguish(10, 10, 2, 3, trials=500, seed=0).hits == 500


def test_monte_carlo_validation():
    with pytest.raises(ParameterError):
        monte_carlo_distinguish(10, 4, 1, 5, trials=0, seed=0)
    with pytest.raises(ParameterError):
        monte_carlo_distinguish(10, 4, 1, 11, trials=10, seed=0)
    with pytest.raises(ParameterError):
        monte_carlo_distinguish(10, 11, 1, 5, trials=10, seed=0)
    with pytest.raises(ParameterError):
        monte_carlo_distinguish(10, 4, -1, 5, trials=10, seed=0)


@pytest.mark.parametrize("n, alpha, beta, budget, rounded", [
    (12, 4, 1, 7, 0.519), (16, 6, 2, 6, 0.512), (24, 10, 6, 140, 0.499),
])
def test_random_search_distinguishes_at_its_exact_rate(n, alpha, beta, budget, rounded):
    # random search's draws are iid uniform nonempty sets and it returns one
    # of them, so a uniform plant separates a trial with probability exactly
    # 1 - (1 - p)^budget, p the mean over nonempty sets of
    # distinguish_probability; the budgets put it near 1/2, and 100 trials'
    # frequency lies within 3 sigma of it
    p = sum(comb(n, s) * distinguish_probability(n, alpha, beta, s) for s in range(1, n + 1)) / ((1 << n) - 1)
    exact = 1 - (1 - p) ** budget
    assert round(float(exact), 3) == rounded
    trials = 100
    inst = DecreasingInstance(n, alpha, beta, Fraction(1, 100))
    reports = run_game_decreasing(make_algorithm("random", budget), inst, seed=0, trials=trials)
    frequency = Fraction(sum(r.distinguished for r in reports), trials)
    assert abs(frequency - exact) <= 3 * sqrt(exact * (1 - exact) / trials)


# ----------------------------------------------------------- plant search


def test_find_consistent_plant_empty_transcript():
    t = QueryTranscript()
    assert find_consistent_plant(t, 6) == Subset.from_elements([0, 1, 2], 6)


def test_find_consistent_plant_skips_queried():
    # Gosper order at n=6, k=3 starts 7, 11, 13; excluding the first two
    # masks lands on {0, 2, 3}
    t = QueryTranscript()
    t.record(7)
    t.record(11)
    assert find_consistent_plant(t, 6) == Subset(13, 6)
    assert find_consistent_plant(t, 6).elements() == (0, 2, 3)


def test_find_consistent_plant_counts_returned_set(monkeypatch):
    # an algorithm that queries nothing and returns the first candidate: the
    # harness scores that set on the trial's pair, so the plant search sees it
    searched = []

    def spy(transcript, n):
        searched.append((list(transcript.entries), find_consistent_plant(transcript, n)))
        return searched[-1][1]

    def returns_first(f_oracle, g_oracle, n, seed):
        return OptResult(Subset(7, n), Fraction(0), 0, "scripted")

    monkeypatch.setattr(game, "find_consistent_plant", spy)
    [r] = run_game_increasing(returns_first, IncreasingInstance(6, 10, Fraction(1, 4)), seed=0, trials=1)
    assert searched == [([7], Subset(11, 6))]
    assert not r.distinguished and r.queries == 0


def test_find_consistent_plant_ignores_other_cardinalities():
    t = QueryTranscript()
    t.record(Subset.full(6).mask)
    t.record(Subset.from_elements([0], 6).mask)
    assert find_consistent_plant(t, 6) == Subset(7, 6)


def test_find_consistent_plant_exhaustion():
    t = QueryTranscript()
    for mask in iter_k_subset_masks(4, 2):
        t.record(mask)
    with pytest.raises(NoConsistentPlantError):
        find_consistent_plant(t, 4)


@pytest.mark.parametrize("n", [600, -2, 2.0, 0, True, 1])
def test_find_consistent_plant_rejects_a_bad_ground_size(n):
    # n = 1 has only the empty set for a plant, which IncreasingInstance refuses
    with pytest.raises(ParameterError):
        find_consistent_plant(QueryTranscript(), n)


# ------------------------------------------------------- decreasing game


DEC_BARE = DecreasingInstance(14, 4, 1, Fraction(1, 2))
INC_BARE = IncreasingInstance(12, 1000, Fraction(1, 100))


def test_decreasing_game_invariants():
    algorithm = make_algorithm("random", budget=40)
    reports = run_game_decreasing(algorithm, DEC_BARE, seed=5, trials=24)
    assert len(reports) == 24
    hidden = DEC_BARE.planted_ratio()  # eps / (alpha + eps - beta) = 1/7
    assert hidden == Fraction(1, 7)
    for trial, r in enumerate(reports):
        assert r.family == "decreasing" and r.n == 14 and r.trial == trial
        assert r.seed == derive_seed(5, "trial", trial)
        assert r.queries == 80  # 40 sampled sets, each charged on f and g
        assert r.planted_optimum == hidden
        assert 0 <= r.union_bound <= 1
        assert r.empirical_ratio == r.algorithm_value / hidden
        if not r.distinguished:
            # every value the algorithm saw matched the unplanted pair, so
            # its best ratio is exactly 1 and the gap is the full 7
            assert r.first_idx is None
            assert r.algorithm_value == 1
            assert r.empirical_ratio == 7
        else:
            assert r.first_idx is not None and r.first_idx >= 0
    # with these parameters some trials go each way at this budget
    outcomes = {r.distinguished for r in reports}
    assert outcomes == {True, False}


def test_decreasing_game_deterministic():
    algorithm = make_algorithm("random", budget=30)
    a = run_game_decreasing(algorithm, DEC_BARE, seed=9, trials=5)
    b = run_game_decreasing(algorithm, DEC_BARE, seed=9, trials=5)
    assert a == b
    c = run_game_decreasing(algorithm, DEC_BARE, seed=10, trials=5)
    assert a != c


def test_decreasing_game_first_idx_points_at_separator():
    # replay every trial of both searches by hand: first_idx is the first
    # transcript set where the closed form says the planted pair differs,
    # and None when none does
    for method in ("random", "local"):
        algorithm = make_algorithm(method, budget=40)
        reports = run_game_decreasing(algorithm, DEC_BARE, seed=5, trials=24)
        for r in reports:
            plant = random_k_subset(DEC_BARE.n, DEC_BARE.alpha, derive_seed(r.seed, "plant"))
            planted = DEC_BARE.with_plant(plant)
            transcript = QueryTranscript()
            f, g = make_oracles(planted, transcript)
            result = algorithm(f, g, DEC_BARE.n, derive_seed(r.seed, "alg"))
            ratio(result.argset, f, g)
            hits = [
                idx for idx, mask in enumerate(transcript.entries)
                if differs_from_unplanted(Subset(mask, DEC_BARE.n), planted)
            ]
            assert r.first_idx == (hits[0] if hits else None)
        if method == "random":
            assert {r.distinguished for r in reports} == {True, False}


def test_decreasing_game_brute_always_distinguishes():
    # exhaustive search queries the plant itself, so it always separates
    # and always returns the hidden optimum
    algorithm = make_algorithm("brute", budget=0)
    reports = run_game_decreasing(algorithm, DecreasingInstance(8, 3, 1, Fraction(1, 2)), seed=1, trials=4)
    for r in reports:
        assert r.distinguished
        assert r.algorithm_value == Fraction(1, 5)
        assert r.empirical_ratio == 1


def test_decreasing_game_scores_the_returned_set():
    # the claimed value 1/10^6 is ignored: f/g at the full set is 1 in the
    # planted world, so the trial keeps the gap of 7
    def claims_too_much(f_oracle, g_oracle, n, seed):
        full = Subset.full(n)
        ratio(full, f_oracle, g_oracle)
        return OptResult(full, Fraction(1, 10**6), 2, "claim")

    [r] = run_game_decreasing(claims_too_much, DEC_BARE, seed=0, trials=1)
    assert not r.distinguished and r.queries == 2
    assert r.algorithm_value == 1 and r.empirical_ratio == 7


def test_decreasing_game_records_direct_g_probes():
    # 4-set probes called on g directly; with alpha = 4 and beta = 1 a
    # 4-set separates exactly when it meets the plant in two or more elements
    probes = [Subset(mask, DEC_BARE.n) for mask in iter_k_subset_masks(DEC_BARE.n, 4)]

    def probing(f_oracle, g_oracle, n, seed):
        for S in probes:
            g_oracle(S)
        return OptResult(Subset.full(n), Fraction(0), 0, "probe")

    [r] = run_game_decreasing(probing, DEC_BARE, seed=0, trials=1)
    plant = random_k_subset(DEC_BARE.n, DEC_BARE.alpha, derive_seed(r.seed, "plant"))
    first = next(i for i, S in enumerate(probes) if (S.mask & plant.mask).bit_count() >= 2)
    assert r.distinguished and r.first_idx == first
    assert r.queries == len(probes)
    assert r.algorithm_value == 1


def test_decreasing_game_rejects_bad_arguments():
    algorithm = make_algorithm("random", budget=10)
    planted = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2], 8))
    with pytest.raises(ParameterError):
        run_game_decreasing(algorithm, planted, seed=0, trials=2)
    with pytest.raises(ParameterError):
        run_game_decreasing(algorithm, DEC_BARE, seed=0, trials=0)


# ------------------------------------------- one flow: plant after the run


PREFIX_DEC = DecreasingInstance(8, 3, 1, Fraction(1, 2))
PREFIX_PLANT = Subset(0b111, 8)
# singletons never separate (beta = 1); {0, 1} lies in the plant and does, so first_idx is 3
PREFIX_QUERIES = [0b1, 0b10, 0b100, 0b11, 0b1000]


@pytest.mark.parametrize("drift", [None, (0, 0b10000), (3, 0b101), (4, 0b110)],
                         ids=["none", "before", "at", "after"])
def test_the_rerun_must_repeat_the_run_through_first_idx(monkeypatch, drift):
    # a re-run that asks another set at or before first_idx is not a function
    # of its seed and the answers it saw, and the game refuses it; one that
    # differs only after first_idx, here by returning {1, 2}, is reported as it ran
    monkeypatch.setattr(game, "random_k_subset", lambda n, k, seed: PREFIX_PLANT)
    calls = []

    def scripted(f_oracle, g_oracle, n, seed):
        calls.append(seed)
        queries = list(PREFIX_QUERIES)
        if len(calls) == 2 and drift is not None:
            queries[drift[0]] = drift[1]
        for mask in queries:
            ratio(Subset(mask, n), f_oracle, g_oracle)
        return OptResult(Subset(queries[-1], n), Fraction(0), 0, "scripted")

    if drift is not None and drift[0] <= 3:
        with pytest.raises(RatioLabError, match="not a function of its seed"):
            run_game_decreasing(scripted, PREFIX_DEC, seed=0, trials=1)
        assert len(calls) == 2
        return
    [r] = run_game_decreasing(scripted, PREFIX_DEC, seed=0, trials=1)
    assert len(calls) == 2 and calls[0] == calls[1]
    assert r.distinguished and r.first_idx == 3 and r.queries == 2 * len(PREFIX_QUERIES)
    last = 1 if drift is None else 2
    assert r.union_bound == union_bound([1, 1, 1, 2, last, last], 8, 3, 1)
    # f/g_R at {1, 2}: (alpha + eps - 2) / (alpha + eps - beta)
    assert r.algorithm_value == (1 if drift is None else Fraction(3, 5))


@pytest.mark.parametrize("method", ["random", "local"])
def test_every_plant_at_n8(monkeypatch, method):
    # the draw forced to each of the 56 plants: the unplanted run is the same
    # for all of them, a trial is distinguished exactly when
    # differs_from_unplanted holds at some unplanted entry, first_idx is the
    # first such entry, and a separated trial reports its planted run
    inst = DecreasingInstance(8, 3, 1, Fraction(1, 2))
    algorithm = make_algorithm(method, budget=12)
    trial_seed = derive_seed(3, "trial", 0)
    transcript = QueryTranscript()
    f, g = make_oracles(inst, transcript)
    ratio(algorithm(f, g, 8, derive_seed(trial_seed, "alg")).argset, f, g)
    first_cards = set()
    for mask in iter_k_subset_masks(8, 3):
        plant = Subset(mask, 8)
        monkeypatch.setattr(game, "random_k_subset", lambda n, k, seed: plant)
        [r] = run_game_decreasing(algorithm, inst, seed=3, trials=1)
        planted = inst.with_plant(plant)
        hits = [i for i, entry in enumerate(transcript.entries) if differs_from_unplanted(Subset(entry, 8), planted)]
        assert r.distinguished == bool(hits) and r.first_idx == (hits[0] if hits else None), plant
        reported = transcript
        if hits:
            first_cards.add(transcript.entries[hits[0]].bit_count())
            reported = QueryTranscript()
            f, g = make_oracles(planted, reported)
            assert r.algorithm_value == ratio(algorithm(f, g, 8, derive_seed(trial_seed, "alg")).argset, f, g)
            assert reported.entries[:hits[0] + 1] == transcript.entries[:hits[0] + 1]
        else:
            assert r.algorithm_value == 1
        assert r.union_bound == union_bound(map(int.bit_count, reported.entries), 8, 3, 1)
    # random search first separates at both ends of the band beta < |S| < 2 alpha - beta
    assert first_cards == ({2, 4} if method == "random" else {3, 4})


@pytest.mark.parametrize("run, inst, chooser", [
    (run_game_decreasing, DEC_BARE, "random_k_subset"),
    (run_game_increasing, INC_BARE, "find_consistent_plant"),
], ids=["decreasing", "increasing"])
def test_no_plant_exists_until_the_unplanted_run_returns(monkeypatch, run, inst, chooser):
    # each trial runs the algorithm before any plant is drawn or searched
    # for; only a separated decreasing trial runs it again, after its plant,
    # and is scored on that plant without drawing it again
    events = []
    real = getattr(game, chooser)

    def spy(*args):
        events.append("plant")
        return real(*args)

    search = make_algorithm("random", budget=40)

    def algorithm(f_oracle, g_oracle, n, seed):
        events.append("run")
        return search(f_oracle, g_oracle, n, seed)

    monkeypatch.setattr(game, chooser, spy)
    reports = run(algorithm, inst, seed=5, trials=24)
    assert events == [event for r in reports
                      for event in ["run", "plant"] + ["run"] * (r.distinguished and run is run_game_decreasing)]


def test_a_separated_trial_draws_its_plant_once(monkeypatch):
    # criterion 9's decreasing game: 3 of its 8 trials separate and run
    # again, and each of the 8 draws one plant, which scores both its runs
    drawn = []

    def spy(*args):
        drawn.append(args)
        return random_k_subset(*args)

    monkeypatch.setattr(game, "random_k_subset", spy)
    reports = run_game_decreasing(make_algorithm("random", budget=25), DEC_BARE, seed=5, trials=8)
    assert [r.distinguished for r in reports].count(True) == 3
    assert drawn == [(14, 4, derive_seed(r.seed, "plant")) for r in reports]


def test_the_unplanted_run_g_answers_f():
    # g is f at every set in a trial's first run; every set includes the
    # plant, so each trial is separated, and only its re-run's g holds it
    answers = []

    def probing(f_oracle, g_oracle, n, seed):
        answers.append([g_oracle(Subset(mask, n)) == f_oracle(Subset(mask, n)) for mask in range(1, 1 << n)])
        return OptResult(Subset.full(n), Fraction(0), 0, "probe")

    reports = run_game_decreasing(probing, DecreasingInstance(8, 3, 1, Fraction(1, 2)), seed=0, trials=3)
    assert all(r.distinguished for r in reports) and len(answers) == 6
    assert all(all(seen) for seen in answers[0::2])
    assert not any(all(seen) for seen in answers[1::2])


# ------------------------------------------------------- increasing game



def test_increasing_game_invariants():
    algorithm = make_algorithm("random", budget=60)
    reports = run_game_increasing(algorithm, INC_BARE, seed=3, trials=10)
    floor = INC_BARE.min_ratio_floor()  # min{n/(2 eps), m} = 600
    assert floor == 600
    for trial, r in enumerate(reports):
        assert r.family == "increasing" and r.trial == trial
        assert r.seed == derive_seed(3, "trial", trial)
        assert not r.distinguished and r.first_idx is None
        assert r.union_bound == 0
        assert r.planted_optimum == 6
        assert r.algorithm_value >= floor
        assert r.empirical_ratio >= Fraction(floor, 6) == 100
        assert r.empirical_ratio == r.algorithm_value / 6


def test_increasing_game_gap_formula():
    # at this parameterization random search reliably finds the floor value
    # 600, giving a ratio of exactly 100 = 1/eps against the plant's 6
    algorithm = make_algorithm("random", budget=60)
    reports = run_game_increasing(algorithm, INC_BARE, seed=3, trials=10)
    assert {r.algorithm_value for r in reports} == {600}
    assert {r.empirical_ratio for r in reports} == {100}
    assert INC_BARE.gap_bound() == 100


def test_increasing_game_deterministic():
    algorithm = make_algorithm("local", budget=200)
    a = run_game_increasing(algorithm, INC_BARE, seed=8, trials=4)
    b = run_game_increasing(algorithm, INC_BARE, seed=8, trials=4)
    assert a == b


def test_increasing_game_plant_avoids_transcript():
    # rebuild one trial and confirm the lazily chosen plant was never queried
    algorithm = make_algorithm("random", budget=60)
    reports = run_game_increasing(algorithm, INC_BARE, seed=3, trials=1)
    transcript = QueryTranscript()
    f, g = make_oracles(INC_BARE, transcript)
    result = algorithm(f, g, INC_BARE.n, derive_seed(reports[0].seed, "alg"))
    ratio(result.argset, f, g)
    assert transcript.entries[-1] == result.argset.mask
    r_star = find_consistent_plant(transcript, INC_BARE.n)
    assert r_star.mask not in transcript.entries
    assert r_star.cardinality == 6


def test_increasing_game_exhaustion_is_distinguished():
    # brute force touches every half-size set, so no consistent plant is
    # left: the trial is recorded as distinguished instead of aborting
    algorithm = make_algorithm("brute", budget=0)
    inst = IncreasingInstance(4, 10, Fraction(1, 2))
    [r] = run_game_increasing(algorithm, inst, seed=0, trials=1)
    # the ascending scan queries mask at index mask - 1; {2, 3} comes last
    assert r.distinguished and r.first_idx == 0b1100 - 1
    assert r.union_bound == 1
    assert r.planted_optimum == 2 == inst.planted_ratio()
    assert r.algorithm_value == 4  # |S| / (|S| eps / 2) at every |S| <= 2
    assert r.empirical_ratio == r.algorithm_value / r.planted_optimum == 2
    assert r.queries == 2 * 15
    row = game_report_row(r)
    assert row[5:7] == ("true", 11) and row[13:15] == (1, 1)


def test_increasing_game_exhaustion_by_returned_set():
    # the returned set joins the transcript after the entries: when it is
    # the last untouched candidate, first_idx points one past the final entry
    inst = IncreasingInstance(6, 10, Fraction(1, 4))
    masks = list(iter_k_subset_masks(6, 3))

    def scripted(returned_mask):
        def algorithm(f_oracle, g_oracle, n, seed):
            for mask in masks[:-1]:
                ratio(Subset(mask, n), f_oracle, g_oracle)
            return OptResult(Subset(returned_mask, n), Fraction(12), 0, "scripted")
        return algorithm

    [r] = run_game_increasing(scripted(masks[-1]), inst, seed=0, trials=1)
    assert r.distinguished and r.first_idx == len(masks) - 1
    assert r.union_bound == 1 and r.planted_optimum == 3 and r.empirical_ratio == 4
    # one candidate short of exhaustion, the plant hides in the last one
    [r] = run_game_increasing(scripted(masks[0]), inst, seed=0, trials=1)
    assert not r.distinguished and r.first_idx is None and r.union_bound == 0


@pytest.mark.parametrize("at", [0, 30, 60, None])
def test_increasing_game_recheck_compares_every_entry(monkeypatch, at):
    # the recheck computes the planted pair's class ids at every entry, the
    # returned set (entry 60) included, in order, and compares them with the
    # unplanted pair's ids at each entry's |S|: a planted world whose class
    # differs at one entry raises
    seen = []

    def tampered(inst):
        kernel, classes = class_lookup(inst)
        if inst.plant is None:
            return kernel, classes

        def planted(masks):
            ids = bytearray(kernel(masks))
            if at is not None and len(seen) <= at < len(seen) + len(ids):
                ids[at - len(seen)] = (ids[at - len(seen)] + 1) % len(classes)
            seen.extend(masks)
            return bytes(ids)

        return planted, classes

    algorithm = make_algorithm("random", budget=60)
    expected = run_game_increasing(algorithm, INC_BARE, seed=3, trials=1)
    monkeypatch.setattr(game, "class_lookup", tampered)
    if at is not None:
        with pytest.raises(RatioLabError, match="disagrees with the transcript"):
            run_game_increasing(algorithm, INC_BARE, seed=3, trials=1)
        return
    assert run_game_increasing(algorithm, INC_BARE, seed=3, trials=1) == expected
    transcript = QueryTranscript()
    f, g = make_oracles(INC_BARE, transcript)
    result = algorithm(f, g, INC_BARE.n, derive_seed(expected[0].seed, "alg"))
    ratio(result.argset, f, g)
    assert seen == transcript.entries and len(seen) == 61


@pytest.mark.parametrize("pick", ["entry", "returned"])
def test_increasing_game_recheck_rejects_a_queried_plant(monkeypatch, pick):
    # a plant search that hands back a queried or the returned half-size set
    # would certify a trial the planted world contradicts
    n = INC_BARE.n
    low, high = Subset((1 << 6) - 1, n), Subset(((1 << 6) - 1) << 6, n)

    def algorithm(f_oracle, g_oracle, n, seed):
        ratio(low, f_oracle, g_oracle)
        return OptResult(high, Fraction(0), 2, "scripted")

    def broken_search(transcript, n):
        return Subset(transcript.entries[0] if pick == "entry" else transcript.entries[-1], n)

    monkeypatch.setattr(game, "find_consistent_plant", broken_search)
    with pytest.raises(RatioLabError, match="disagrees with the transcript"):
        run_game_increasing(algorithm, INC_BARE, seed=3, trials=1)


def test_increasing_game_records_direct_g_probes():
    # g called directly on all 20 half-size sets leaves no place to hide a plant
    inst = IncreasingInstance(6, 1000, Fraction(1, 100))

    def probing(f_oracle, g_oracle, n, seed):
        for mask in iter_k_subset_masks(n, n // 2):
            g_oracle(Subset(mask, n))
        return OptResult(Subset.full(n), Fraction(0), 0, "probe")

    [r] = run_game_increasing(probing, inst, seed=0, trials=1)
    assert r.distinguished and r.first_idx == comb(6, 3) - 1
    assert r.union_bound == 1 and r.queries == comb(6, 3)


@pytest.mark.parametrize("run, inst, value", [
    (run_game_increasing, IncreasingInstance(6, 1000, Fraction(1, 100)), Fraction(128006, 6)),
    (run_game_decreasing, DEC_BARE, Fraction(1)),
])
def test_swapped_ratio_call_gets_a_normal_report(run, inst, value):
    # ratio(S, g, f) still queries both handles; the report holds f/g at S
    def swapped(f_oracle, g_oracle, n, seed):
        full = Subset.full(n)
        return OptResult(full, ratio(full, g_oracle, f_oracle), 2, "swapped")

    [r] = run(swapped, inst, seed=0, trials=1)
    assert not r.distinguished and r.union_bound == 0 and r.queries == 2
    assert r.algorithm_value == value
    assert r.empirical_ratio == value / inst.planted_ratio()


@pytest.mark.parametrize("method", ["random", "local", "brute"])
@pytest.mark.parametrize("run, inst", [
    (run_game_increasing, IncreasingInstance(8, 100, Fraction(1, 4))),
    (run_game_decreasing, DecreasingInstance(8, 3, 1, Fraction(1, 2))),
], ids=["increasing", "decreasing"])
def test_transcript_ends_with_the_returned_set(run, inst, method):
    # the harness scores the returned set on each run's own pair, after
    # counting the algorithm's charges: g's transcript holds one entry per g
    # charge, the returned mask last, and the report counts the charges of
    # the run it comes from.  A trial calls the algorithm once, and a
    # decreasing trial its plant separates calls it again, trial by trial,
    # and is reported from that second call.
    search = make_algorithm(method, budget=30)
    seen = []

    def algorithm(f_oracle, g_oracle, n, seed):
        result = search(f_oracle, g_oracle, n, seed)
        seen.append((seed, g_oracle, result.argset.mask, f_oracle.count + g_oracle.count))
        return result

    reports = run(algorithm, inst, seed=2, trials=3)
    reruns = [r.distinguished and run is run_game_decreasing for r in reports]
    assert [call[0] for call in seen] == [derive_seed(r.seed, "alg") for r, again in zip(reports, reruns)
                                          for _ in range(1 + again)]
    for r, again in zip(reports, reruns):
        calls = [call for call in seen if call[0] == derive_seed(r.seed, "alg")]
        for _, g, returned, _ in calls:
            assert g.transcript.entries[-1] == returned
            assert len(g.transcript) == g.count
        assert r.queries == calls[-1][3]
        if again:
            # the re-run's entries equal the unplanted run's through first_idx
            through = r.first_idx + 1
            assert calls[1][1].transcript.entries[:through] == calls[0][1].transcript.entries[:through]
    if method == "brute":
        assert all(r.distinguished for r in reports)
    elif method == "local" and run is run_game_decreasing:
        assert reruns == [True, False, True]


def test_a_refused_g_call_is_charged_but_not_recorded():
    # g at a set of another ground size raises after its charge; the
    # algorithm catches it, so the trial ends with one charge more than
    # the transcript has entries, and the report counts that charge
    inst = IncreasingInstance(6, 10, Fraction(1, 4))
    handles = []

    def probes_a_wider_set(f_oracle, g_oracle, n, seed):
        handles.append(g_oracle)
        with pytest.raises(ParameterError, match="ground size"):
            g_oracle(Subset.full(n + 1))
        return OptResult(Subset.full(n), Fraction(0), 1, "refused")

    [r] = run_game_increasing(probes_a_wider_set, inst, seed=0, trials=1)
    [g] = handles
    assert g.count == 2 and g.transcript.entries == [Subset.full(6).mask]
    assert r.queries == 1 and not r.distinguished


def test_decreasing_first_idx_can_be_the_returned_set():
    # singletons never separate (beta >= 1), so the returned plant is the
    # first and only separating set: the transcript's last entry
    trial_seed = derive_seed(0, "trial", 0)
    plant = random_k_subset(DEC_BARE.n, DEC_BARE.alpha, derive_seed(trial_seed, "plant"))
    handles = []

    def returns_plant(f_oracle, g_oracle, n, seed):
        handles.append(g_oracle)
        for i in range(n):
            ratio(Subset.from_elements([i], n), f_oracle, g_oracle)
        return OptResult(plant, Fraction(0), 2 * n, "scripted")

    [r] = run_game_decreasing(returns_plant, DEC_BARE, seed=0, trials=1)
    unplanted, planted = handles
    assert unplanted.transcript.entries == planted.transcript.entries
    assert r.distinguished and r.first_idx == len(planted.transcript.entries) - 1 == DEC_BARE.n
    assert r.queries == 2 * DEC_BARE.n
    assert r.union_bound == union_bound([1] * DEC_BARE.n + [DEC_BARE.alpha], 14, 4, 1)
    assert r.algorithm_value == DEC_BARE.planted_ratio() and r.empirical_ratio == 1


def test_increasing_exhaustion_reports_the_covering_first_visit():
    # {2, 3}, the last candidate covered, is queried at index 5 and again at
    # 6, then returned (index 7): first_idx is its first visit
    inst = IncreasingInstance(4, 10, Fraction(1, 2))
    masks = list(iter_k_subset_masks(4, 2))

    def revisiting(f_oracle, g_oracle, n, seed):
        for mask in masks + masks[-1:]:
            ratio(Subset(mask, n), f_oracle, g_oracle)
        return OptResult(Subset(masks[-1], n), Fraction(0), 0, "scripted")

    [r] = run_game_increasing(revisiting, inst, seed=0, trials=1)
    assert r.distinguished and r.first_idx == len(masks) - 1 == 5
    assert r.union_bound == 1 and r.queries == 2 * 7


def _returns_empty(f_oracle, g_oracle, n, seed):
    ratio(Subset.full(n), f_oracle, g_oracle)
    return OptResult(Subset.empty(n), Fraction(1), 2, "empty")


def test_increasing_game_rejects_an_empty_returned_set():
    # g is 0 at the empty set, so the returned set has no ratio to score
    with pytest.raises(UndefinedRatioError, match="empty"):
        run_game_increasing(_returns_empty, IncreasingInstance(6, 1000, Fraction(1, 100)), seed=0, trials=1)


def test_decreasing_game_rejects_an_empty_returned_set():
    # f = g = alpha + eps at the empty set, which lies outside the nonempty
    # domain; scoring it would report an undistinguished ratio of 7
    with pytest.raises(UndefinedRatioError, match="empty"):
        run_game_decreasing(_returns_empty, DEC_BARE, seed=0, trials=1)


@pytest.mark.parametrize("run, inst", [
    (run_game_decreasing, IncreasingInstance(8, 100, Fraction(1, 4))),
    (run_game_increasing, DecreasingInstance(8, 4, 1, Fraction(1, 2))),
    (run_game_decreasing, None),
], ids=["decreasing-given-increasing", "increasing-given-decreasing", "not-an-instance"])
def test_a_game_refuses_the_other_family_before_any_trial(run, inst):
    calls = []

    def algorithm(f_oracle, g_oracle, n, seed):
        calls.append(n)
        return OptResult(Subset.full(n), Fraction(0), 0, "scripted")

    with pytest.raises(ParameterError, match="this game plays"):
        run(algorithm, inst, 0, 1)
    assert calls == []


def test_increasing_game_rejects_bad_arguments():
    algorithm = make_algorithm("random", budget=10)
    planted = IncreasingInstance(12, 1000, Fraction(1, 100), plant=Subset((1 << 6) - 1, 12))
    with pytest.raises(ParameterError):
        run_game_increasing(algorithm, planted, seed=0, trials=2)
    with pytest.raises(ParameterError):
        run_game_increasing(algorithm, INC_BARE, seed=0, trials=0)


def _search(search, budget):
    return lambda: search(*make_oracles(INC_BARE), INC_BARE.n, budget, 0)


# Each count (budget, trials, n, alpha, beta, s) must be an int; a float is
# not a count, and neither is a bool, although Python treats True as 1.
@pytest.mark.parametrize("call", [
    _search(random_search, 2.5),
    _search(random_search, True),
    _search(local_search, 20.5),
    lambda: run_game_decreasing(make_algorithm("random", 10), DEC_BARE, seed=0, trials=2.5),
    lambda: run_game_decreasing(make_algorithm("random", 10), DEC_BARE, seed=0, trials=True),
    lambda: run_game_increasing(make_algorithm("random", 10), INC_BARE, seed=0, trials=True),
    lambda: distinguish_probability(14, 4, 1, True),
    lambda: distinguish_probability(14.0, 4, 1, 6),
    lambda: distinguish_probability(14, 4.0, 1, 6),
    lambda: distinguish_probability(14, 4, 1.0, 6),
    lambda: union_bound([6.0], 14, 4, 1),
    lambda: monte_carlo_distinguish(14, 4, 1, 6, trials=2.5, seed=0),
    lambda: monte_carlo_distinguish(14, 4, 1, 6, trials=True, seed=0),
], ids=[
    "random-budget-float", "random-budget-bool", "local-budget-float",
    "decreasing-trials-float", "decreasing-trials-bool", "increasing-trials-bool",
    "prob-s-bool", "prob-n-float", "prob-alpha-float", "prob-beta-float",
    "union-bound-float", "monte-carlo-trials-float", "monte-carlo-trials-bool",
])
def test_count_arguments_must_be_ints(call):
    with pytest.raises(ParameterError):
        call()


# ------------------------------------------------------------- reporting


def test_game_report_row_shape():
    report = GameReport(
        family="decreasing",
        n=14,
        trial=2,
        seed=77,
        queries=80,
        distinguished=True,
        first_idx=5,
        algorithm_value=Fraction(1, 3),
        planted_optimum=Fraction(1, 7),
        empirical_ratio=Fraction(7, 3),
        union_bound=Fraction(45, 1001),
    )
    row = game_report_row(report)
    assert len(row) == len(GAME_CSV_COLUMNS)
    assert row == ("decreasing", 14, 2, 77, 80, "true", 5, 1, 3, 1, 7, 7, 3, 45, 1001)
    quiet = game_report_row(
        GameReport("increasing", 12, 0, 1, 120, False, None, Fraction(600), Fraction(6),
                   Fraction(100), Fraction(0))
    )
    assert quiet[5] == "false" and quiet[6] == ""


def test_summarize_games():
    algorithm = make_algorithm("random", budget=40)
    reports = run_game_decreasing(algorithm, DEC_BARE, seed=5, trials=24)
    summary = summarize_games(reports)
    assert summary["family"] == "decreasing" and summary["n"] == 14
    assert summary["trials"] == 24
    hits = sum(1 for r in reports if r.distinguished)
    freq = Fraction(hits, 24)
    assert summary["distinguished_count"] == hits
    assert summary["distinguishing_frequency"] == f"{freq.numerator}/{freq.denominator}"
    ratios = sorted(r.empirical_ratio for r in reports)
    lo, hi = ratios[11], ratios[12]
    expected_median = (lo + hi) / 2
    assert summary["median_ratio"] == f"{expected_median.numerator}/{expected_median.denominator}"
    assert summary["min_ratio"] == f"{ratios[0].numerator}/{ratios[0].denominator}"


def test_summarize_games_odd_median_and_empty():
    algorithm = make_algorithm("random", budget=20)
    reports = run_game_decreasing(algorithm, DEC_BARE, seed=2, trials=3)
    summary = summarize_games(reports)
    ratios = sorted(r.empirical_ratio for r in reports)
    assert summary["median_ratio"] == f"{ratios[1].numerator}/{ratios[1].denominator}"
    with pytest.raises(ParameterError):
        summarize_games([])
