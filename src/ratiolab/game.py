"""The indistinguishability game behind the unbounded-ratio result.

Decreasing family: a plant R is drawn per trial, the algorithm runs against
the planted pair, and we record whether any query (returned set included)
could tell the planted denominator from the unplanted one.  When none
could, every value the algorithm saw matched the unplanted pair, its best
ratio is exactly 1, and the true optimum sits at eps/(alpha+eps-beta).

Increasing family: the adversary is lazy.  The algorithm runs against the
unplanted pair; afterwards a consistent plant R* is chosen among the
half-size sets the algorithm never touched, so the planted and unplanted
worlds agree on the entire transcript by construction.  The empirical
ratio is then at least min{n/(2 eps), m} / floor(n/2).  A trial whose
queries cover every half-size set leaves no place to hide a plant; it is
recorded as distinguished, with union bound 1.

Both games run one trial loop (`_play`).  The transcript is the g handle's
own record of masks, so it holds every g evaluation however the algorithm
made it; a direct f call reveals nothing about the plant.  One scan
(`_first_difference`) compares the planted and unplanted g at every
recorded mask, in both games, through their batch lookups, which map the
whole transcript to the very value objects the evaluators answer with, so
one C-level list `==` settles a transcript on which they agree.
In the decreasing game a trial is distinguished at the first set where
they differ; in the increasing game a difference means the plant search
is broken.  The harness scores the returned set itself, on the trial's own
pair once the algorithm's queries are counted, so the transcript ends with
it; the value an algorithm claims for its set is never read, and an empty
returned set, outside the ratio's domain, is refused in both games.

Per-query distinguishing probabilities are exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import is_not
from typing import NamedTuple

from .errors import NoConsistentPlantError, ParameterError, RatioLabError, UndefinedRatioError
from .instances import DecreasingInstance, IncreasingInstance
# perfbench/tracing.py rebinds game.differs_from_unplanted; tests/test_perfbench_tracing.py fails without it.
from .oracles import (
    QueryTranscript,
    batch_lookup,
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
    cardinalities) separates the planted pair from the unplanted one.
    (n, alpha, beta) are checked as for one query, even for an empty sequence.
    """
    _check_query(n, alpha, beta, 0)
    favorable = 0
    for s, count in Counter(cardinalities).items():
        _check_query(n, alpha, beta, s)
        favorable += count * _favorable_plants(n, alpha, beta, s)
    plants = math.comb(n, alpha)
    return Fraction(1) if favorable >= plants else Fraction(favorable, plants)


def find_consistent_plant(transcript: QueryTranscript, n: int) -> Subset:
    """Smallest half-size set (ascending mask) absent from the transcript's entries.

    For the increasing family g and g_R differ only at R itself, so any
    untouched candidate is consistent with everything the algorithm saw.
    Raises when the entries already cover all C(n, n//2) candidates.
    """
    k = n // 2
    excluded = {mask for mask in transcript.entries if mask.bit_count() == k}
    for mask in iter_k_subset_masks(n, k):
        if mask not in excluded:
            return Subset(mask, n)
    raise NoConsistentPlantError(
        f"all {math.comb(n, k)} candidate plants of cardinality {k} were queried"
    )


def _first_difference(transcript: QueryTranscript, g_a, g_b) -> int | None:
    """Index of the first transcript entry where the batch lookups g_a and g_b differ.

    The lookups read the entries in place.  Where they agree they index one
    cached value table and return the very same Fraction, so one list `==`,
    identity first and in C, settles a transcript without a difference.
    Otherwise identity settles almost every set in one C-level pass and
    `!=` keeps the rest exact.
    """
    a, b = g_a(transcript.entries), g_b(transcript.entries)
    if a == b:
        return None
    for idx in compress(count(), map(is_not, a, b)):
        if a[idx] != b[idx]:
            return idx
    return None


def _play(algorithm, inst, seed: int, trials: int, world, score) -> list[GameReport]:
    """The trial loop both games share.

    Per trial: `world(trial_seed)` is the instance the oracles answer from,
    the algorithm runs against it with its own derived seed, and its query
    count is read.  Its value, f/g at its returned set, is then scored on
    the same pair, so that set ends g's transcript, one entry per answered g
    charge (a refused call is charged only), and `score(world_instance,
    transcript)` gives (first_idx, union_bound).  An empty returned set raises UndefinedRatioError.
    """
    if inst.plant is not None:
        raise ParameterError("the game manages its own hidden sets; pass an unplanted instance")
    check_count(trials, 1, "trials")
    planted_optimum = inst.planted_ratio()
    reports = []
    for trial in range(trials):
        trial_seed = derive_seed(seed, "trial", trial)
        answering = world(trial_seed)
        transcript = QueryTranscript()
        f_oracle, g_oracle = make_oracles(answering, transcript)
        result = algorithm(f_oracle, g_oracle, inst.n, derive_seed(trial_seed, "alg"))
        if not result.argset.mask:
            raise UndefinedRatioError("the returned set is empty; the ratio is defined on nonempty sets only")
        queries = f_oracle.count + g_oracle.count
        value = ratio(result.argset, f_oracle, g_oracle)
        first_idx, union = score(answering, transcript)
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
    """Per trial: draw a plant, run the algorithm against it, score the gap.

    The algorithm handle has signature (f_oracle, g_oracle, n, seed) ->
    OptResult.  The transcript ends with its returned set, which the scan and
    the union bound therefore cover.  The unplanted g is f: the scan compares f with the planted g.
    """

    def draw_plant(trial_seed: int) -> DecreasingInstance:
        return inst.with_plant(random_k_subset(inst.n, inst.alpha, derive_seed(trial_seed, "plant")))

    def score(planted: DecreasingInstance, transcript: QueryTranscript):
        f, g_planted = batch_lookup(planted, "f"), batch_lookup(planted, "g")
        first_idx = _first_difference(transcript, f, g_planted)
        return first_idx, union_bound(map(int.bit_count, transcript.entries), inst.n, inst.alpha, inst.beta)

    return _play(algorithm, inst, seed, trials, draw_plant, score)


def run_game_increasing(algorithm, inst: IncreasingInstance, seed: int, trials: int) -> list[GameReport]:
    """Per trial: run against the unplanted pair, then plant R* post hoc.

    After the run, the planted world with R* agrees with the unplanted one
    at every set where g was evaluated, returned set included; that
    agreement is re-checked by `_first_difference`, so each undistinguished
    report certifies literal indistinguishability.
    When the queries (returned set included) cover all C(n, n//2)
    candidates, no R* exists: the trial is distinguished, first_idx is the
    query that covered the last candidate, the union bound is 1, and the
    planted optimum is floor(n/2), its value for every plant.
    """

    def score(unplanted: IncreasingInstance, transcript: QueryTranscript):
        try:
            r_star = find_consistent_plant(transcript, inst.n)
        except NoConsistentPlantError:
            # Every candidate was queried: the adversary cannot hide.  The covering
            # query is the latest first visit of a candidate: the last candidate
            # among the distinct entries, which dict.fromkeys keeps in first-visit order.
            last = next(mask for mask in reversed(dict.fromkeys(transcript.entries)) if mask.bit_count() == inst.n // 2)
            return transcript.entries.index(last), Fraction(1)
        g, g_star = batch_lookup(unplanted, "g"), batch_lookup(unplanted.with_plant(r_star), "g")
        if _first_difference(transcript, g, g_star) is not None:
            raise RatioLabError("planted world disagrees with the transcript; plant search is broken")
        return None, Fraction(0)

    return _play(algorithm, inst, seed, trials, lambda trial_seed: inst, score)


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
