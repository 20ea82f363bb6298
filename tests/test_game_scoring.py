"""The game's scoring against the lookup reference.

`game._score_decreasing` reads a transcript's masks alone: only entries in
the live band beta < |S| < 2 alpha - beta are tested on the plant and
counted for the union bound.  `game._score_increasing` reads each entry's
f/g class from the ids `query_batch` recorded, and runs the answering pair's
id kernel only for the entries recorded one at a time.  The reference
(`reference.score_decreasing`, `reference.score_increasing`) evaluates g at
every entry by value lookups and finds the plant from the set of half-size
entries.  They must agree on every trial: searched, scripted with direct g
calls between table chunks, through the per-mask path, exhausted, and at
the band's edges.  The last tests pin the premise that makes the increasing
class comparison exact: on every bundled pair, a class id determines g.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from reference import consistent_plant, score_decreasing, score_increasing

from ratiolab.errors import NoConsistentPlantError, UndefinedRatioError
from ratiolab.game import _score_decreasing, _score_increasing, find_consistent_plant, union_bound
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.optimize import OptResult, make_algorithm
from ratiolab.oracles import (
    QueryTranscript,
    class_lookup,
    differs_from_unplanted,
    instance_evaluator,
    make_oracles,
    query_batch,
    ratio,
)
from ratiolab.sampling import derive_seed, random_k_subset
from ratiolab.sets import Subset, iter_k_subset_masks, unchecked_subset

ROOT = Path(__file__).resolve().parents[1]

DECREASING = {
    4: DecreasingInstance(4, 2, 1, Fraction(1, 2)),
    6: DecreasingInstance(6, 3, 1, Fraction(1, 2)),
    8: DecreasingInstance(8, 3, 1, Fraction(1, 4)),
    12: DecreasingInstance(12, 4, 1, Fraction(1, 2)),
    30: DecreasingInstance(30, 10, 2, Fraction(1, 10)),
    100: DecreasingInstance(100, 25, 5, Fraction(1, 100)),
}
INCREASING = {n: IncreasingInstance(n, 1000, Fraction(1, 4)) for n in (4, 6, 8, 12, 100)}
INCREASING[30] = IncreasingInstance(30, 10**6, Fraction(1, 1000))

CASES = [(family, method, n, seed)
         for family in ("decreasing", "increasing")
         for method in ("brute", "random", "local")
         for n in (4, 6, 8, 12, 30, 100) if method != "brute" or n <= 12
         for seed in range(3)]


def _trial(world, algorithm, seed: int) -> QueryTranscript:
    """A trial's transcript as the harness leaves it: the algorithm's queries on `world`, then its returned set."""
    transcript = QueryTranscript()
    f, g = make_oracles(world, transcript)
    result = algorithm(f, g, world.n, seed)
    ratio(result.argset, f, g)
    return transcript


def _scored(world, transcript):
    """The game's score of a trial on `world`, checked equal to the reference's, plant search included."""
    if isinstance(world, DecreasingInstance):
        got = _score_decreasing(world, transcript)
        assert got == score_decreasing(world, transcript)
        return got
    got = _score_increasing(world, transcript)
    assert got == score_increasing(world, transcript)
    try:
        plant = consistent_plant(transcript, world.n)
    except NoConsistentPlantError:
        with pytest.raises(NoConsistentPlantError):
            find_consistent_plant(transcript, world.n)
    else:
        assert find_consistent_plant(transcript, world.n) == plant
    return got


@pytest.mark.parametrize("family, method, n, seed", CASES)
def test_searched_trials_score_as_the_reference(family, method, n, seed):
    # brute force's ranges, random search's drawn lists and local search's
    # neighbourhoods, each trial ending with its returned set
    budget = min(3 * n * n, 10_000) if method == "random" else n * n
    if family == "decreasing":
        inst = DECREASING[n]
        world = inst.with_plant(random_k_subset(n, inst.alpha, seed))
    else:
        world = INCREASING[n]
    transcript = _trial(world, make_algorithm(method, budget), derive_seed(seed, "alg"))
    assert transcript.runs
    _scored(world, transcript)


def test_searched_trials_include_distinguished_ones():
    # the sweep above is not vacuous: brute force at n = 12 meets the plant,
    # and so does random search at n = 100, past its first two chunks of list ids
    inst = DECREASING[12]
    world = inst.with_plant(random_k_subset(12, inst.alpha, 0))
    first_idx, bound = _scored(world, _trial(world, make_algorithm("brute", 0), 0))
    assert first_idx is not None and 0 < first_idx < (1 << 12) - 1 and bound == 1
    inst = DECREASING[100]
    world = inst.with_plant(random_k_subset(100, inst.alpha, 2))
    transcript = _trial(world, make_algorithm("random", 10_000), derive_seed(2, "alg"))
    assert [type(ids) for _, ids, _ in transcript.runs] == [list] * 3
    assert _scored(world, transcript)[0] > transcript.runs[2][0]


@pytest.mark.parametrize("method", ["random", "local"])
@pytest.mark.parametrize("seed", range(3))
def test_the_benchmark_decreasing_pair_scores_as_the_reference(method, seed):
    # the decreasing game pair at n = 100, alpha = 10, beta = 5 at budget n^2
    inst = DecreasingInstance(100, 10, 5, Fraction(1, 100))
    world = inst.with_plant(random_k_subset(100, 10, seed))
    _scored(world, _trial(world, make_algorithm(method, 10_000), derive_seed(seed, "alg")))


# A planted decreasing pair at n = 12 with R = {0, 1, 2, 3}: a set of two plant
# elements separates (beta + 0 < min(alpha, 2)), and a set of eight elements or
# more never does (beta + |S minus R| >= 5 > alpha).
MIXED_DEC = DecreasingInstance(12, 4, 1, Fraction(1, 2), plant=Subset(0b1111, 12))
SEPARATING = 0b11
QUIET = [0b111111110000, 0b111111111000, 0b111111110001, 0b111111111111, 0b111111110010]


def _scripted(direct: list[int], chunks: list[list[int]], returned: int):
    """An algorithm that calls g directly at direct[i] before chunk i (and after the last) and returns `returned`."""
    def algorithm(f_oracle, g_oracle, n, seed):
        for mask, chunk in zip(direct, [*chunks, None]):
            g_oracle(Subset(mask, n))
            if chunk is not None:
                query_batch(chunk, n, f_oracle, g_oracle)
        return OptResult(Subset(returned, n), Fraction(0), 0, "scripted")
    return algorithm


@pytest.mark.parametrize("where, want", [
    ("none", None), ("start", 0), ("chunk", 3), ("middle", 6), ("end", 12), ("returned", 13),
])
def test_mixed_transcripts_find_the_first_separating_entry(where, want):
    # direct g calls at the start, in the middle and at the end, around two
    # table chunks of five: the first separating entry in a recorded chunk,
    # at a direct call, at the returned set, or nowhere
    direct, returned = [QUIET[0], QUIET[1], QUIET[2]], QUIET[3]
    chunks = [list(QUIET), list(QUIET)]
    if where in ("start", "middle", "end"):
        direct[("start", "middle", "end").index(where)] = SEPARATING
    elif where == "chunk":
        chunks[0][2] = SEPARATING
    elif where == "returned":
        returned = SEPARATING
    transcript = _trial(MIXED_DEC, _scripted(direct, chunks, returned), 0)
    assert len(transcript.entries) == 14 and [start for start, _, _ in transcript.runs] == [1, 7]
    assert all(differs_from_unplanted(Subset(mask, 12), MIXED_DEC) == (mask == SEPARATING)
               for mask in transcript.entries)
    first_idx, bound = _scored(MIXED_DEC, transcript)
    assert first_idx == want
    assert bound == union_bound(map(int.bit_count, transcript.entries), 12, 4, 1)


def test_mixed_increasing_transcript_hides_the_plant_past_every_kind_of_entry():
    # the first six candidates are a direct call at the start, in a chunk, a
    # direct call in the middle, in the next chunk, a direct call at the end
    # and the returned set: the plant search reads all six, and the seventh
    # is the plant the recheck certifies
    n = 12
    inst = INCREASING[n]
    candidates = list(iter_k_subset_masks(n, n // 2))[:7]
    full = (1 << n) - 1
    chunks = [[full, candidates[1], 1], [3, 7, candidates[3]]]
    algorithm = _scripted([candidates[0], candidates[2], candidates[4]], chunks, candidates[5])
    transcript = _trial(inst, algorithm, 0)
    assert _scored(inst, transcript) == (None, 0)
    assert find_consistent_plant(transcript, n).mask == candidates[6]


def test_per_mask_fallback_at_the_empty_set():
    # a chunk holding the empty set (g = 0) goes mask by mask through
    # ratio_terms, which records each set one at a time up to the empty one
    # and raises; an algorithm that carries on leaves those entries in no run
    n = 8
    inst = INCREASING[n]
    first = next(iter_k_subset_masks(n, n // 2))

    def algorithm(f_oracle, g_oracle, n, seed):
        with pytest.raises(UndefinedRatioError):
            query_batch([first, 0xF0, 0, 0x1E], n, f_oracle, g_oracle)
        query_batch([0xFF, 0x33, 1], n, f_oracle, g_oracle)
        return OptResult(Subset(0x3C, n), Fraction(0), 0, "scripted")

    transcript = _trial(inst, algorithm, 0)
    assert transcript.entries == [first, 0xF0, 0, 0xFF, 0x33, 1, 0x3C]
    assert [(start, len(ids)) for start, ids, _ in transcript.runs] == [(3, 3)]
    assert _scored(inst, transcript) == (None, 0)
    assert find_consistent_plant(transcript, n).mask not in transcript.entries


def test_per_mask_path_of_a_swapped_pair_is_read_by_the_kernel():
    # query_batch with the handles swapped answers mask by mask, recording
    # each set through the g handle one at a time: the scorer fills those
    # entries with the answering pair's kernel
    def algorithm(f_oracle, g_oracle, n, seed):
        query_batch(list(QUIET), n, f_oracle, g_oracle)
        query_batch([QUIET[0], SEPARATING, QUIET[1]], n, g_oracle, f_oracle)
        return OptResult(Subset(QUIET[2], n), Fraction(0), 0, "scripted")

    transcript = _trial(MIXED_DEC, algorithm, 0)
    assert [start for start, _, _ in transcript.runs] == [0]
    assert _scored(MIXED_DEC, transcript)[0] == 6


def test_runs_on_another_pairs_classes_are_read_by_the_kernel():
    # a transcript shared by two pairs: runs recorded on the other pair's
    # classes are scored as if recorded one at a time
    transcript = QueryTranscript()
    other = DecreasingInstance(12, 4, 1, Fraction(1, 4), plant=MIXED_DEC.plant)
    for inst in (other, MIXED_DEC, other):
        f, g = make_oracles(inst, transcript)
        query_batch(list(QUIET) + ([SEPARATING] if inst is other else []), 12, f, g)
    assert len(transcript.runs) == 3 and transcript.runs[0][2] is not transcript.runs[1][2]
    assert _scored(MIXED_DEC, transcript)[0] == 5


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("method", ["brute", "random"])
def test_exhaustion(n, method):
    # brute force, and random search at a budget far past C(n, n/2), query
    # every half-size set: no plant is left, and both scorers name the query
    # that covered the last candidate
    transcript = _trial(INCREASING[n], make_algorithm(method, 400), 5)
    first_idx, bound = _scored(INCREASING[n], transcript)
    assert first_idx is not None and bound == 1


@pytest.mark.parametrize("inst", [
    DecreasingInstance(8, 3, 1, Fraction(1, 2)),
    DecreasingInstance(8, 8, 0, Fraction(1, 2)),
    DecreasingInstance(12, 7, 2, Fraction(1, 3)),
], ids=["band-2-4", "band-capped-at-n", "band-3-11"])
@pytest.mark.parametrize("alone", [True, False])
def test_the_live_band_edges(inst, alone):
    # the plant is the low alpha bits and the set of cardinality c is the low
    # c bits, so it holds as much of the plant as it can: it separates exactly
    # when beta < c < 2 alpha - beta, capped at n.  One set per transcript, and
    # all of them in one transcript, scored as the reference does.
    n, alpha, beta = inst.n, inst.alpha, inst.beta
    planted = inst.with_plant(Subset((1 << alpha) - 1, n))
    sets = [(1 << c) - 1 for c in range(n + 1)]
    band = [beta < c < 2 * alpha - beta for c in range(n + 1)]
    assert band == [differs_from_unplanted(Subset(mask, n), planted) for mask in sets]
    for masks in ([[mask] for mask in sets] if alone else [sets[::-1]]):
        transcript = QueryTranscript()
        transcript.entries.extend(masks)
        first_idx, bound = _scored(planted, transcript)
        hits = [i for i, mask in enumerate(masks) if band[mask.bit_count()]]
        assert first_idx == (hits[0] if hits else None)
        assert bound == union_bound(map(int.bit_count, masks), n, alpha, beta)


# ------------------------------------------------- the exactness premise


def _grid_pairs():
    spec = importlib.util.spec_from_file_location("verify_grid", ROOT / "scripts" / "verify_grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return [inst for n in (6, 8, 10, 12) for _, inst, _, _ in grid.variants(n)]


def _g_by_id(inst, masks) -> dict:
    """Class id -> the set of g values at `masks` with that id, and each id's |S| checked."""
    kernel, classes = class_lookup(inst)
    g = instance_evaluator(inst, "g")
    seen = {}
    for mask, i in zip(masks, kernel(masks)):
        assert classes[i] is None or classes[i][2] == mask.bit_count(), mask
        seen.setdefault(i, set()).add(g(unchecked_subset(mask, inst.n)))
    return seen


@pytest.mark.parametrize("inst", _grid_pairs(), ids=lambda i: f"{i.family}-n{i.n}-{i.plant is not None}")
def test_class_id_determines_g_on_the_grid_pairs(inst):
    # every set of every bundled n <= 12 pair of scripts/verify_grid.py
    assert all(len(values) == 1 for values in _g_by_id(inst, range(1 << inst.n)).values())


GAME_PAIRS = [
    DecreasingInstance(100, 10, 5, Fraction(1, 100), plant=random_k_subset(100, 10, 3)),
    IncreasingInstance(30, 10**6, Fraction(1, 1000)),
    IncreasingInstance(30, 10**6, Fraction(1, 1000), plant=random_k_subset(30, 15, 3)),
]


@pytest.mark.parametrize("inst", GAME_PAIRS, ids=lambda i: f"{i.family}-n{i.n}-{i.plant is not None}")
def test_class_id_determines_g_on_the_game_pairs(inst):
    # g depends on a set only through its value cell: (|S minus R|, |S|) for
    # the planted decreasing g, |S| and the plant for the increasing g; one
    # set per cell covers every value g takes
    n = inst.n
    if isinstance(inst, DecreasingInstance):
        inside = [i for i in range(n) if inst.plant.mask >> i & 1]
        outside = [i for i in range(n) if not inst.plant.mask >> i & 1]
        masks = [sum(1 << i for i in inside[:a] + outside[:x])
                 for x in range(len(outside) + 1) for a in range(len(inside) + 1)]
    else:
        masks = [(1 << c) - 1 for c in range(n + 1)] + ([inst.plant.mask] if inst.plant else [])
    assert all(len(values) == 1 for values in _g_by_id(inst, masks).values())
