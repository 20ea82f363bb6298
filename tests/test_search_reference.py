"""The integer-key searches against slow Fraction-key reference loops.

The reference loops below divide f by g into a Fraction at every query and
order (value, cardinality, mask) tuples, which is obviously correct and
slow.  At small n the package's searches must agree with them exactly:
same argset, value, query count and transcript.
"""

import random
from fractions import Fraction

import pytest
from reference import FunctionTable

from ratiolab.errors import UndefinedRatioError
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.optimize import (
    OptResult,
    brute_force_max_ratio,
    brute_force_min_ratio,
    local_search,
    random_search,
)
from ratiolab.oracles import CountingOracle, QueryTranscript, make_oracles, ratio_terms
from ratiolab.sampling import SeededStream
from ratiolab.sets import BLOCK, Subset, unchecked_subset

N = 8


def ref_ratio(S, f_oracle, g_oracle):
    f_value = f_oracle(S)
    g_value = g_oracle(S)
    if g_value == 0:
        raise UndefinedRatioError(f"g({S!r}) = 0")
    return Fraction(f_value) / g_value


def ref_brute(f_oracle, g_oracle, n, better):
    best_mask = best_value = best_card = None
    for mask in range(1, 1 << n):
        value = ref_ratio(unchecked_subset(mask, n), f_oracle, g_oracle)
        card = mask.bit_count()
        if best_mask is None or better(value, best_value) or (
            value == best_value and card < best_card
        ):
            best_mask, best_value, best_card = mask, value, card
    return OptResult(Subset(best_mask, n), best_value, 2 * ((1 << n) - 1), "brute")


def ref_local(f_oracle, g_oracle, n, budget, seed):
    start_queries = f_oracle.count + g_oracle.count
    remaining = budget
    stream = SeededStream(seed, "local-search", n)

    def evaluate(mask):
        nonlocal remaining
        remaining -= 2
        return ref_ratio(unchecked_subset(mask, n), f_oracle, g_oracle)

    current = stream.nonempty_mask(n)
    current_value = evaluate(current)
    best = (current_value, current.bit_count(), current)
    improved = True
    while improved and remaining >= 2:
        improved = False
        inside = [i for i in range(n) if current >> i & 1]
        outside = [i for i in range(n) if not current >> i & 1]
        neighbors = [current | (1 << j) for j in outside]
        if len(inside) > 1:
            neighbors += [current & ~(1 << i) for i in inside]
        neighbors += [(current & ~(1 << i)) | (1 << j) for i in inside for j in outside]
        move = None
        for mask in neighbors:
            if remaining < 2:
                break
            value = evaluate(mask)
            key = (value, mask.bit_count(), mask)
            if key < best:
                best = key
            if value < current_value and (move is None or key < move):
                move = key
        if move is not None:
            current_value, _, current = move
            improved = True
    used = (f_oracle.count + g_oracle.count) - start_queries
    return OptResult(Subset(best[2], n), best[0], used, "local")


def ref_random(f_oracle, g_oracle, n, budget, seed):
    start_queries = f_oracle.count + g_oracle.count
    stream = SeededStream(seed, "random-search", n)
    best = None
    for _ in range(budget):
        mask = stream.nonempty_mask(n)
        value = ref_ratio(unchecked_subset(mask, n), f_oracle, g_oracle)
        key = (value, mask.bit_count(), mask)
        if best is None or key < best:
            best = key
    used = (f_oracle.count + g_oracle.count) - start_queries
    return OptResult(Subset(best[2], n), best[0], used, "random")


def _int_table_pair(n, seed):
    """f and g as int-valued tables; g is negative on some sets, zero only at the empty set."""
    rng = random.Random(seed)
    f_values = [rng.randint(-20, 20) for _ in range(1 << n)]
    g_values = [0] + [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range((1 << n) - 1)]
    assert any(v < 0 for v in g_values)
    return f_values, g_values


def _pairs():
    plant_dec = Subset.from_elements([0, 1, 2], N)
    plant_inc = Subset.from_elements([1, 3, 4, 6], N)
    f_values, g_values = _int_table_pair(N, 11)
    # a tight 16-valued f makes exact ties common on the int tables
    tie_f, tie_g = _int_table_pair(N, 12)
    tie_f = [v % 4 for v in tie_f]
    return {
        "decreasing-planted": lambda t: make_oracles(
            DecreasingInstance(N, 3, 1, Fraction(1, 2), plant=plant_dec), t),
        "increasing-planted": lambda t: make_oracles(
            IncreasingInstance(N, 100, Fraction(1, 3), plant=plant_inc), t),
        "increasing-unplanted": lambda t: make_oracles(IncreasingInstance(N, 100, Fraction(1, 3)), t),
        "table-int": lambda t: (
            CountingOracle(FunctionTable(N, f_values)),
            CountingOracle(FunctionTable(N, g_values), transcript=t),
        ),
        "raw-int-ties": lambda t: (
            CountingOracle(lambda S: tie_f[S.mask]),
            CountingOracle(lambda S: tie_g[S.mask], transcript=t),
        ),
    }


PAIRS = _pairs()


def _run(make_pair, search, *args):
    transcript = QueryTranscript()
    f, g = make_pair(transcript)
    result = search(f, g, N, *args)
    return result, transcript.entries, (f.count, g.count)


def _assert_same(fast, slow):
    (res, entries, counts), (ref, ref_entries, ref_counts) = fast, slow
    assert type(res.value) is Fraction
    assert (res.argset, res.value, res.queries_used, res.method) == (
        ref.argset, ref.value, ref.queries_used, ref.method
    )
    assert counts == ref_counts
    assert entries == ref_entries


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_brute_min_matches_reference(pair):
    _assert_same(
        _run(PAIRS[pair], brute_force_min_ratio),
        _run(PAIRS[pair], lambda f, g, n: ref_brute(f, g, n, lambda v, b: v < b)),
    )


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_brute_max_matches_reference(pair):
    _assert_same(
        _run(PAIRS[pair], brute_force_max_ratio),
        _run(PAIRS[pair], lambda f, g, n: ref_brute(f, g, n, lambda v, b: v > b)),
    )


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("seed", range(6))
def test_random_search_matches_reference(pair, seed):
    for budget in (1, 7, 90):
        _assert_same(
            _run(PAIRS[pair], random_search, budget, seed),
            _run(PAIRS[pair], ref_random, budget, seed),
        )


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("seed", range(6))
def test_local_search_matches_reference(pair, seed):
    for budget in (N, 41, 400):
        _assert_same(
            _run(PAIRS[pair], local_search, budget, seed),
            _run(PAIRS[pair], ref_local, budget, seed),
        )


# Searches across chunk boundaries: n = 13 has 8,191 nonempty sets, and a
# random search of 2 * BLOCK + 7 draws ends in a short third chunk.
WIDE_N = 13


def _wide_pairs():
    n = WIDE_N
    tie_f, tie_g = _int_table_pair(n, 13)
    tie_f = [v % 4 for v in tie_f]
    return {
        "decreasing-planted": lambda t: make_oracles(
            DecreasingInstance(n, 5, 2, Fraction(1, 2), plant=Subset.from_elements([1, 4, 6, 9, 12], n)), t),
        "increasing-planted": lambda t: make_oracles(
            IncreasingInstance(n, 100, Fraction(1, 3), plant=Subset.from_elements([0, 2, 3, 7, 8, 11], n)), t),
        "raw-int-ties": lambda t: (
            CountingOracle(lambda S: tie_f[S.mask]),
            CountingOracle(lambda S: tie_g[S.mask], transcript=t),
        ),
    }


WIDE_PAIRS = _wide_pairs()


def _run_wide(make_pair, search, *args):
    transcript = QueryTranscript()
    f, g = make_pair(transcript)
    result = search(f, g, WIDE_N, *args)
    return result, transcript.entries, (f.count, g.count)


def test_wide_cases_cross_the_chunk_size():
    assert (1 << WIDE_N) - 1 > BLOCK


@pytest.mark.parametrize("pair", sorted(WIDE_PAIRS))
@pytest.mark.parametrize("sign", [1, -1])
def test_brute_across_chunks_matches_reference(pair, sign):
    search = brute_force_min_ratio if sign == 1 else brute_force_max_ratio
    _assert_same(
        _run_wide(WIDE_PAIRS[pair], search),
        _run_wide(WIDE_PAIRS[pair], lambda f, g, n: ref_brute(f, g, n, lambda v, b: sign * v < sign * b)),
    )


@pytest.mark.parametrize("pair", sorted(WIDE_PAIRS))
@pytest.mark.parametrize("seed", range(2))
def test_random_search_across_chunks_matches_reference(pair, seed):
    budget = 2 * BLOCK + 7
    _assert_same(
        _run_wide(WIDE_PAIRS[pair], random_search, budget, seed),
        _run_wide(WIDE_PAIRS[pair], ref_random, budget, seed),
    )


def _flat_ties_pair(t):
    """Wrapped handles valued by |S| alone, least at |S| = 4, with unreduced terms scaled by 1 + mask % 3."""
    return (
        CountingOracle(lambda S: (1 + S.mask % 3) * ((S.mask.bit_count() - 4) ** 2 + 1)),
        CountingOracle(lambda S: 1 + S.mask % 3, transcript=t),
    )


@pytest.mark.parametrize("seed", range(6))
def test_ties_across_classes_drawn_out_of_mask_order(seed):
    # Every 4-set ties in value and |S|, each as its own class (wrapped
    # handles give one class per mask), and one chunk of random draws meets
    # them out of ascending mask order: the smallest tying mask must win,
    # not the first one drawn.
    fast = _run(_flat_ties_pair, random_search, 90, seed)
    _assert_same(fast, _run(_flat_ties_pair, ref_random, 90, seed))
    ties = [mask for mask in fast[1] if mask.bit_count() == 4]
    assert len(ties) > 1 and ties[0] != min(ties)
    for budget in (41, 400):
        _assert_same(
            _run(_flat_ties_pair, local_search, budget, seed),
            _run(_flat_ties_pair, ref_local, budget, seed),
        )


def ref_random_terms(f_oracle, g_oracle, n, budget, seed):
    """Random search drawing one mask at a time with `nonempty_mask`, each queried through `ratio_terms`."""
    start_queries = f_oracle.count + g_oracle.count
    stream = SeededStream(seed, "random-search", n)
    best = None
    for _ in range(budget):
        mask = stream.nonempty_mask(n)
        p, q = ratio_terms(unchecked_subset(mask, n), f_oracle, g_oracle)
        key = (Fraction(p, q), mask.bit_count(), mask)
        if best is None or key < best:
            best = key
    used = (f_oracle.count + g_oracle.count) - start_queries
    return OptResult(Subset(best[2], n), best[0], used, "random")


def _hashed_ties(n):
    """Wrapped handles at any n: a 4-valued f over a 3-valued g by a hash of the mask, so ties are everywhere."""
    return lambda t: (
        CountingOracle(lambda S: (S.mask * 2654435761 >> 7) % 4),
        CountingOracle(lambda S: 1 + (S.mask * 40503 >> 5) % 3, transcript=t),
    )


def _drawn_pairs():
    """Pairs at n = 30, whose draws are cut in bulk, and n = 100, whose draws are cut a word at a time.

    The table pairs at n = 30 and the increasing pair at n = 100 have at most
    256 classes and get byte ids; the decreasing pair at n = 100 has 566 and
    gets lists, and so do the wrapped handles, one class per mask.
    """
    return {
        "increasing-planted-30": (30, lambda t: make_oracles(
            IncreasingInstance(30, 10**6, Fraction(1, 1000), plant=Subset((1 << 15) - 1 << 7, 30)), t)),
        "increasing-unplanted-30": (30, lambda t: make_oracles(IncreasingInstance(30, 10**6, Fraction(1, 1000)), t)),
        "hashed-ties-30": (30, _hashed_ties(30)),
        "decreasing-planted-100": (100, lambda t: make_oracles(
            DecreasingInstance(100, 10, 5, Fraction(1, 100), plant=Subset((1 << 10) - 1 << 40, 100)), t)),
        "increasing-unplanted-100": (100, lambda t: make_oracles(IncreasingInstance(100, 10**6, Fraction(1, 100)), t)),
        "hashed-ties-100": (100, _hashed_ties(100)),
    }


DRAWN_PAIRS = _drawn_pairs()


def _run_at(n, make_pair, search, *args):
    transcript = QueryTranscript()
    f, g = make_pair(transcript)
    result = search(f, g, n, *args)
    return result, transcript.entries, (f.count, g.count)


# Budgets below a bulk cut's 64 words, past the first refill (546 masks at
# n = 30; 20 at n = 100) and past a chunk and a refill.
@pytest.mark.parametrize("budget", [1, 63, 64, 600, BLOCK + 600])
@pytest.mark.parametrize("pair", sorted(DRAWN_PAIRS))
def test_random_search_matches_single_draws_through_ratio_terms(pair, budget):
    n, make_pair = DRAWN_PAIRS[pair]
    fast = _run_at(n, make_pair, random_search, budget, 3)
    _assert_same(fast, _run_at(n, make_pair, ref_random_terms, budget, 3))
    assert len(fast[1]) == budget
