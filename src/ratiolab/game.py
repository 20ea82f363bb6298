"""The indistinguishability game behind the unbounded-ratio result.

Both games play the collapse argument: until a deterministic algorithm
separates the two worlds, every g answer it sees is the unplanted one, so
its run is fixed by the unplanted world.  Each trial runs the algorithm
against the unplanted pair, and only then is a plant chosen (`_play`).

Decreasing family: the plant R is a seeded uniform draw; the unplanted g is
f.  A trial R does not separate saw only values of both pairs: its best
ratio is exactly 1, and the true optimum sits at eps/(alpha+eps-beta).  A
trial R separates is run again against the planted pair and reported from
that run.  It is scored from its masks alone (`_score_decreasing`).

Increasing family: the adversary is lazy.  A consistent plant R* is chosen
among the half-size sets the algorithm never touched, found from the f/g
classes `query_batch` recorded and rechecked at every entry, so the two
worlds agree on the entire transcript.  The empirical ratio is then at
least min{n/(2 eps), m} / floor(n/2).  A trial whose queries cover every
half-size set leaves no place to hide a plant; it is recorded as
distinguished, with union bound 1.

The transcript is the g handle's own record of masks, so it holds every g
evaluation however the algorithm made it; a direct f call reveals nothing
about the plant.  The harness scores the returned set itself, so the
transcript ends with it; the value an algorithm claims is never read, and
an empty returned set, outside the ratio's domain, is refused.

Per-query distinguishing probabilities are exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from typing import NamedTuple

from .errors import NoConsistentPlantError, ParameterError, RatioLabError, UndefinedRatioError
from .instances import DecreasingInstance, IncreasingInstance
# perfbench/tracing.py rebinds game.differs_from_unplanted; tests/test_perfbench_tracing.py fails without it.
from .oracles import (
    QueryTranscript,
    class_lookup,
    differs_from_unplanted,  # noqa: F401
    make_oracles,
    ratio,
)
from .sampling import derive_seed, random_k_subset
from .serialize import frac_to_str
from .sets import Subset, check_count, is_int, iter_k_subset_masks

GAME_CSV_COLUMNS = [
    "family", "n", "trial", "seed", "queries", "distinguished", "first_idx",
    "alg_value_p", "alg_value_q", "planted_opt_p", "planted_opt_q",
    "ratio_p", "ratio_q", "union_bound_p", "union_bound_q",
]


class GameReport(NamedTuple):
    """One trial of the game: what the algorithm got vs the planted optimum."""

    family: str
    n: int
    trial: int
    seed: int
    queries: int
    distinguished: bool
    first_idx: int | None
    algorithm_value: Fraction
    planted_optimum: Fraction
    empirical_ratio: Fraction
    union_bound: Fraction


@lru_cache(maxsize=None)
def _favorable_plants(n: int, alpha: int, beta: int, s: int) -> int:
    # The number of cardinality-alpha plants R with beta + |S \ R| < min{alpha, s}:
    # C(n, alpha) P[t > s - min{alpha, s} + beta] with t = |S n R| hypergeometric.
    # Each term C(s, t) C(n - s, alpha - t) after the first is one exact integer ratio step.
    t_lo = max(s - min(alpha, s) + beta + 1, 0, alpha - (n - s))
    t_hi = min(alpha, s)
    if t_lo > t_hi:
        return 0
    favorable = 0
    term = math.comb(s, t_lo) * math.comb(n - s, alpha - t_lo)
    for t in range(t_lo, t_hi + 1):
        favorable += term
        term = term * (s - t) * (alpha - t) // ((t + 1) * (n - s - alpha + t + 1))
    return favorable


def _check_query(n: int, alpha: int, beta: int, s: int) -> None:
    if not all(map(is_int, (n, alpha, beta, s))):
        raise ParameterError(f"n, alpha, beta and s must be ints, got {(n, alpha, beta, s)!r}")
    if not 0 <= s <= n:
        raise ParameterError(f"query cardinality s={s} outside 0..{n}")
    if not 0 <= alpha <= n:
        raise ParameterError(f"alpha={alpha} outside 0..{n}")
    if beta < 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")


def distinguish_probability(n: int, alpha: int, beta: int, s: int) -> Fraction:
    """Exact probability that one cardinality-s query separates g_R from f.

    The plant R is uniform over cardinality-alpha subsets; by symmetry the
    probability depends on the query only through its cardinality s.
    """
    _check_query(n, alpha, beta, s)
    return Fraction(_favorable_plants(n, alpha, beta, s), math.comb(n, alpha))


def union_bound(cardinalities, n: int, alpha: int, beta: int) -> Fraction:
    """min(1, sum of per-query distinguishing probabilities), exact.

    Bounds the probability that a whole query sequence (given by its
    cardinalities, or as a mapping cardinality -> count of queries) separates
    the planted pair from the unplanted one.  (n, alpha, beta) are checked
    as for one query, even for an empty sequence, and each count is an int >= 0.
    """
    _check_query(n, alpha, beta, 0)
    favorable = 0
    for s, times in Counter(cardinalities).items():
        _check_query(n, alpha, beta, s)
        check_count(times, 0, "query count")
        favorable += times * _favorable_plants(n, alpha, beta, s)
    plants = math.comb(n, alpha)
    return Fraction(1) if favorable >= plants else Fraction(favorable, plants)


def find_consistent_plant(transcript: QueryTranscript, n: int) -> Subset:
    """Smallest half-size set (ascending mask) absent from the transcript's entries.

    For the increasing family g and g_R differ only at R itself, so any
    untouched candidate is consistent with everything the algorithm saw.
    Entries in a run are read by their class's |S|, the others by their own.
    Raises when the entries already cover all C(n, n//2) candidates.
    """
    k = n // 2
    entries, excluded, done = transcript.entries, set(), 0
    for start, ids, classes in [*transcript.runs, (len(entries), b"", ())]:
        excluded.update(mask for mask in entries[done:start] if mask.bit_count() == k)
        half = [key is not None and key[2] == k for key in classes]
        flags = ids.translate(bytes(half).ljust(256, b"\0")) if type(ids) is bytes else map(half.__getitem__, ids)
        excluded.update(compress(entries[start:start + len(ids)], flags))
        done = start + len(ids)
    for mask in iter_k_subset_masks(n, k):
        if mask not in excluded:
            return Subset(mask, n)
    raise NoConsistentPlantError(
        f"all {math.comb(n, k)} candidate plants of cardinality {k} were queried"
    )


def _class_runs(transcript: QueryTranscript, kernel, classes: tuple) -> list[tuple]:
    """Every entry's id in `classes`, as (start, ids) runs in entry order.

    Runs recorded on these classes are read as recorded; the entries in none
    (the returned set, direct g calls, the per-mask path) go through `kernel`.
    """
    entries, runs, done = transcript.entries, [], 0
    for start, ids, recorded in [*transcript.runs, (len(entries), kernel([]), classes)]:
        if recorded is classes:
            if done < start:
                runs.append((done, kernel(entries[done:start])))
            runs.append((start, ids))
            done = start + len(ids)
    return runs


def _score_decreasing(planted: DecreasingInstance, transcript: QueryTranscript):
    """(first_idx, union bound) of a decreasing trial, from its masks alone.

    Only a set with beta < |S| < 2 alpha - beta, capped at n, can separate g_R
    from f, so only those entries are tested on the plant, by the criterion of
    `differs_from_unplanted`, and only those cardinalities are counted for the
    union bound.  A cardinality fits in a byte, as n <= 128.
    """
    n, alpha, beta = planted.n, planted.alpha, planted.beta
    entries, out = transcript.entries, ~planted.plant.mask
    live = range(beta + 1, min(2 * alpha - beta, n + 1))
    cards = bytes(map(int.bit_count, entries))
    in_band = (bytes(live.start) + b"\1" * len(live)).ljust(256, b"\0")
    hits = (i for i in compress(count(), cards.translate(in_band))
            if beta + (entries[i] & out).bit_count() < min(alpha, cards[i]))
    return next(hits, None), union_bound({s: cards.count(s) for s in live}, n, alpha, beta)


def _score_increasing(unplanted: IncreasingInstance, transcript: QueryTranscript):
    """(first_idx, union bound) of an increasing trial: a consistent plant R*, its pair's ids rechecked at every entry."""
    n = unplanted.n
    try:
        r_star = find_consistent_plant(transcript, n)
    except NoConsistentPlantError:
        # Every candidate was queried: the adversary cannot hide.  The covering
        # query is the latest first visit of a candidate: the last candidate
        # among the distinct entries, which dict.fromkeys keeps in first-visit order.
        last = next(mask for mask in reversed(dict.fromkeys(transcript.entries)) if mask.bit_count() == n // 2)
        return transcript.entries.index(last), Fraction(1)
    kernel, classes = class_lookup(unplanted)
    planted, _ = class_lookup(unplanted.with_plant(r_star))
    for start, ids in _class_runs(transcript, kernel, classes):
        if planted(transcript.entries[start:start + len(ids)]) != ids:
            raise RatioLabError("planted world disagrees with the transcript; plant search is broken")
    return None, Fraction(0)


def _run(algorithm, world, trial_seed: int) -> tuple[QueryTranscript, int, Fraction]:
    """One run against `world`: (g's transcript, the query count, f/g at the returned set, scored after the count).

    The returned set therefore ends the transcript, which holds one entry per
    answered g charge.  An empty returned set raises UndefinedRatioError.
    """
    transcript = QueryTranscript()
    f_oracle, g_oracle = make_oracles(world, transcript)
    result = algorithm(f_oracle, g_oracle, world.n, derive_seed(trial_seed, "alg"))
    if not result.argset.mask:
        raise UndefinedRatioError("the returned set is empty; the ratio is defined on nonempty sets only")
    queries = f_oracle.count + g_oracle.count
    value = ratio(result.argset, f_oracle, g_oracle)
    return transcript, queries, value


def _play(algorithm, inst, seed: int, trials: int, choose) -> list[GameReport]:
    """The trial loop both games share: play the unplanted world, choose the plant afterwards.

    Per trial, the algorithm runs against `inst`, which holds no plant, and
    `choose(trial_seed, transcript)` gives (planted world or None, first_idx,
    union_bound) for that run.  When the plant separates the run at first_idx,
    the algorithm runs again against the planted world and the trial is
    reported from that run, scored by `choose` again: until first_idx it saw
    the unplanted answers, so its entries through first_idx must equal the
    unplanted run's, or RatioLabError is raised.
    """
    if inst.plant is not None:
        raise ParameterError("the game manages its own hidden sets; pass an unplanted instance")
    check_count(trials, 1, "trials")
    planted_optimum = inst.planted_ratio()
    reports = []
    for trial in range(trials):
        trial_seed = derive_seed(seed, "trial", trial)
        transcript, queries, value = _run(algorithm, inst, trial_seed)
        planted, first_idx, union = choose(trial_seed, transcript)
        if planted is not None and first_idx is not None:
            prefix = transcript.entries[:first_idx + 1]
            transcript, queries, value = _run(algorithm, planted, trial_seed)
            if transcript.entries[:first_idx + 1] != prefix:
                raise RatioLabError("the planted run asked other sets before it could tell the worlds apart; "
                                    "the algorithm is not a function of its seed and the answers it saw")
            _, first_idx, union = choose(trial_seed, transcript)
        reports.append(GameReport(
            family=inst.family,
            n=inst.n,
            trial=trial,
            seed=trial_seed,
            queries=queries,
            distinguished=first_idx is not None,
            first_idx=first_idx,
            algorithm_value=value,
            planted_optimum=planted_optimum,
            empirical_ratio=value / planted_optimum,
            union_bound=union,
        ))
    return reports


def run_game_decreasing(algorithm, inst: DecreasingInstance, seed: int, trials: int) -> list[GameReport]:
    """Per trial: run against the unplanted pair, then draw a plant and score the gap.

    The algorithm handle has signature (f_oracle, g_oracle, n, seed) ->
    OptResult.  A trial the plant separates is reported from the algorithm's
    run against the planted pair (`_play`).
    """

    def draw_plant(trial_seed: int, transcript: QueryTranscript):
        planted = inst.with_plant(random_k_subset(inst.n, inst.alpha, derive_seed(trial_seed, "plant")))
        return planted, *_score_decreasing(planted, transcript)

    return _play(algorithm, inst, seed, trials, draw_plant)


def run_game_increasing(algorithm, inst: IncreasingInstance, seed: int, trials: int) -> list[GameReport]:
    """Per trial: run against the unplanted pair, then plant R* post hoc.

    After the run, the planted world with R* agrees with the unplanted one
    at every set where g was evaluated, returned set included; that
    agreement is re-checked at every entry (`_score_increasing`), so each
    undistinguished report certifies literal indistinguishability.
    When the queries (returned set included) cover all C(n, n//2)
    candidates, no R* exists: the trial is distinguished, first_idx is the
    query that covered the last candidate, the union bound is 1, and the
    planted optimum is floor(n/2), its value for every plant.
    """

    def lazy_plant(trial_seed: int, transcript: QueryTranscript):
        # R* agrees with the whole run, so no planted world is run again
        return None, *_score_increasing(inst, transcript)

    return _play(algorithm, inst, seed, trials, lazy_plant)


def game_report_row(report: GameReport) -> tuple:
    """One GameReport as a CSV row matching GAME_CSV_COLUMNS."""
    return (
        report.family,
        report.n,
        report.trial,
        report.seed,
        report.queries,
        "true" if report.distinguished else "false",
        report.first_idx if report.first_idx is not None else "",
        report.algorithm_value.numerator,
        report.algorithm_value.denominator,
        report.planted_optimum.numerator,
        report.planted_optimum.denominator,
        report.empirical_ratio.numerator,
        report.empirical_ratio.denominator,
        report.union_bound.numerator,
        report.union_bound.denominator,
    )


def summarize_games(reports: list[GameReport]) -> dict:
    """Aggregate a run: distinguishing frequency plus min and median ratio."""
    if not reports:
        raise ParameterError("cannot summarize an empty report list")
    ratios = sorted(r.empirical_ratio for r in reports)
    mid = len(ratios) // 2
    if len(ratios) % 2:
        median = ratios[mid]
    else:
        median = (ratios[mid - 1] + ratios[mid]) / 2
    distinguished = sum(1 for r in reports if r.distinguished)
    return {
        "family": reports[0].family,
        "n": reports[0].n,
        "trials": len(reports),
        "distinguished_count": distinguished,
        "distinguishing_frequency": frac_to_str(Fraction(distinguished, len(reports))),
        "min_ratio": frac_to_str(min(ratios)),
        "median_ratio": frac_to_str(median),
    }
