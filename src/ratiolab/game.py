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

Both games run one trial loop (`_play`).  It accepts a trial only when
every oracle charge was recorded through `ratio`/`ratio_terms`, because a
verdict about the transcript says nothing about a query it never saw.

Per-query distinguishing probabilities are exact rationals; Monte Carlo
exists only to cross-check them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NoConsistentPlantError, ParameterError, RatioLabError
from .instances import DecreasingInstance, IncreasingInstance
from .oracles import (
    QueryTranscript,
    differs_from_unplanted,
    instance_evaluator,
    make_oracles,
)
from .sampling import SeededStream, derive_seed, random_k_subset
from .serialize import frac_to_str
from .sets import Subset, iter_k_subset_masks

GAME_CSV_COLUMNS = [
    "family", "n", "trial", "seed", "queries", "distinguished", "first_idx",
    "alg_value_p", "alg_value_q", "planted_opt_p", "planted_opt_q",
    "ratio_p", "ratio_q", "union_bound_p", "union_bound_q",
]


@dataclass(frozen=True, slots=True)
class GameReport:
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
def _distinguish_probability(n: int, alpha: int, beta: int, s: int) -> Fraction:
    # P over uniform |R| = alpha that beta + |S \ R| < min{alpha, s};
    # with t = |S n R| hypergeometric this is P[t > s - min{alpha, s} + beta]
    t_lo = max(s - min(alpha, s) + beta + 1, 0, alpha - (n - s))
    t_hi = min(alpha, s)
    favorable = sum(
        math.comb(s, t) * math.comb(n - s, alpha - t) for t in range(t_lo, t_hi + 1)
    )
    return Fraction(favorable, math.comb(n, alpha))


def _check_query(n: int, alpha: int, beta: int, s: int) -> None:
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
    return _distinguish_probability(n, alpha, beta, s)


def union_bound(cardinalities, n: int, alpha: int, beta: int) -> Fraction:
    """min(1, sum of per-query distinguishing probabilities), exact.

    Bounds the probability that a whole query sequence (given by its
    cardinalities) separates the planted pair from the unplanted one.
    """
    total = Fraction(0)
    for s, count in Counter(cardinalities).items():
        total += count * distinguish_probability(n, alpha, beta, s)
    return min(Fraction(1), total)


@dataclass(frozen=True, slots=True)
class MonteCarloEstimate:
    """Empirical distinguishing frequency with its binomial standard error."""

    frequency: Fraction
    standard_error: float
    trials: int
    hits: int


def monte_carlo_distinguish(
    n: int, alpha: int, beta: int, s: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Sample plants uniformly and measure how often a fixed size-s set separates.

    Cross-checks distinguish_probability; the fixed query set is {0..s-1},
    which is lossless by symmetry.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    _check_query(n, alpha, beta, s)
    s_mask = (1 << s) - 1
    threshold = min(alpha, s)
    stream = SeededStream(seed, "mc-distinguish", n, alpha, beta, s)
    hits = 0
    for _ in range(trials):
        r_mask = stream.sample_mask(n, alpha)
        if beta + (s_mask & ~r_mask).bit_count() < threshold:
            hits += 1
    frequency = Fraction(hits, trials)
    variance = frequency * (1 - frequency) / trials
    return MonteCarloEstimate(frequency, math.sqrt(variance), trials, hits)


def find_consistent_plant(transcript: QueryTranscript, n: int) -> Subset:
    """Smallest half-size set (ascending mask) absent from the transcript.

    For the increasing family g and g_R differ only at R itself, so any
    untouched candidate is consistent with everything the algorithm saw.
    Raises when the transcript already covers all C(n, n//2) candidates.
    """
    k = n // 2
    excluded = {
        S.mask for S in transcript.effective_sets() if S.mask.bit_count() == k
    }
    for mask in iter_k_subset_masks(n, k):
        if mask not in excluded:
            return Subset(mask, n)
    raise NoConsistentPlantError(
        f"all {math.comb(n, k)} candidate plants of cardinality {k} were queried"
    )


def _play(algorithm, inst, seed: int, trials: int, world, score) -> list[GameReport]:
    """The trial loop both games share.

    Per trial: `world(trial_seed)` is the instance the oracles answer from,
    the algorithm runs against it with its own derived seed, its returned
    set joins the transcript, and `score(world_instance, transcript)` gives
    (first_idx, union_bound).  Every query must reach the oracles through
    `ratio`/`ratio_terms`, so that the transcript holds all the algorithm
    saw; a trial with an unrecorded query raises.
    """
    if inst.plant is not None:
        raise ParameterError("pass an unplanted instance; the game chooses its own plants")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    planted_optimum = inst.planted_ratio()
    reports = []
    for trial in range(trials):
        trial_seed = derive_seed(seed, "trial", trial)
        answering = world(trial_seed)
        transcript = QueryTranscript()
        f_oracle, g_oracle = make_oracles(answering, transcript)
        result = algorithm(f_oracle, g_oracle, inst.n, derive_seed(trial_seed, "alg"))
        if not f_oracle.count == g_oracle.count == len(transcript):
            raise ParameterError(f"{len(transcript)} of {f_oracle.count} f and {g_oracle.count} g queries "
                                 "were recorded; queries must go through ratio/ratio_terms")
        transcript.set_returned(result.argset)
        first_idx, union = score(answering, transcript)
        reports.append(GameReport(
            family=inst.family,
            n=inst.n,
            trial=trial,
            seed=trial_seed,
            queries=f_oracle.count + g_oracle.count,
            distinguished=first_idx is not None,
            first_idx=first_idx,
            algorithm_value=result.value,
            planted_optimum=planted_optimum,
            empirical_ratio=result.value / planted_optimum,
            union_bound=union,
        ))
    return reports


def run_game_decreasing(algorithm, inst: DecreasingInstance, seed: int, trials: int) -> list[GameReport]:
    """Per trial: draw a plant, run the algorithm against it, score the gap.

    The algorithm handle has signature (f_oracle, g_oracle, n, seed) ->
    OptResult.  Its returned set joins the transcript before any check.
    """

    def draw_plant(trial_seed: int) -> DecreasingInstance:
        return inst.with_plant(random_k_subset(inst.n, inst.alpha, derive_seed(trial_seed, "plant")))

    def score(planted: DecreasingInstance, transcript: QueryTranscript):
        first_idx = next(
            (idx for idx, S in enumerate(transcript.effective_sets()) if differs_from_unplanted(S, planted)),
            None,
        )
        return first_idx, union_bound(transcript.cardinalities(), inst.n, inst.alpha, inst.beta)

    return _play(algorithm, inst, seed, trials, draw_plant, score)


def run_game_increasing(algorithm, inst: IncreasingInstance, seed: int, trials: int) -> list[GameReport]:
    """Per trial: run against the unplanted pair, then plant R* post hoc.

    After the run, the planted world with R* agrees with the unplanted one
    on every transcript entry; that agreement is re-checked value by value,
    so each undistinguished report certifies literal indistinguishability.
    When the queries (returned set included) cover all C(n, n//2)
    candidates, no R* exists: the trial is distinguished, first_idx is the
    query that covered the last candidate, the union bound is 1, and the
    planted optimum is floor(n/2), its value for every plant.
    """

    def score(unplanted: IncreasingInstance, transcript: QueryTranscript):
        try:
            r_star = find_consistent_plant(transcript, inst.n)
        except NoConsistentPlantError:
            # Every candidate was queried: the adversary cannot hide.
            return _covering_index(transcript, inst.n), Fraction(1)
        _recheck(transcript, inst.with_plant(r_star))
        return None, Fraction(0)

    return _play(algorithm, inst, seed, trials, lambda trial_seed: inst, score)


def _recheck(transcript: QueryTranscript, planted: IncreasingInstance) -> None:
    """Raise unless the planted world gives every transcript entry its recorded values.

    Exact in every case: identical objects are equal, and differing objects
    fall back to `!=`.  The identity test settles almost every entry: the
    planted and unplanted evaluators both index the one per-cardinality
    (f, g) value table cached on the family parameters (n, m, epsilon), so
    off the plant they return the very Fraction objects the transcript holds.
    """
    f_check = instance_evaluator(planted, "f")
    g_check = instance_evaluator(planted, "g")
    for S, f_value, g_value in transcript.entries:
        f_now, g_now = f_check(S), g_check(S)
        if (f_now is not f_value and f_now != f_value) or (g_now is not g_value and g_now != g_value):
            raise RatioLabError(
                "planted world disagrees with the transcript; plant search is broken"
            )


def _covering_index(transcript: QueryTranscript, n: int) -> int:
    """Index, in effective_sets() order, of the query that covered the last candidate plant."""
    k = n // 2
    candidates = math.comb(n, k)
    seen = set()
    for idx, S in enumerate(transcript.effective_sets()):
        if S.mask.bit_count() == k:
            seen.add(S.mask)
            if len(seen) == candidates:
                return idx
    raise RatioLabError("transcript does not cover every candidate plant")


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
