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
    CHUNK,
    OptResult,
    brute_force_max_ratio,
    brute_force_min_ratio,
    local_search,
    random_search,
)
from ratiolab.oracles import CountingOracle, QueryTranscript, make_oracles
from ratiolab.sampling import SeededStream
from ratiolab.sets import Subset, unchecked_subset

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
# random search of 2 * CHUNK + 7 draws ends in a short third chunk.
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
    assert (1 << WIDE_N) - 1 > CHUNK


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
    budget = 2 * CHUNK + 7
    _assert_same(
        _run_wide(WIDE_PAIRS[pair], random_search, budget, seed),
        _run_wide(WIDE_PAIRS[pair], ref_random, budget, seed),
    )
