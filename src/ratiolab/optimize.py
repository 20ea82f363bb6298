"""Exact and heuristic optimization of the ratio objective over nonempty sets.

Brute force is the ground truth at small n.  The two heuristics exist as
representative polynomial-query algorithms for the indistinguishability
game; neither carries any guarantee, and on the adversarial families they
reliably fail, which is the point.

Tie-breaking is global and fixed: optimal value first, then smaller
cardinality, then ascending mask.  `brute_force_max_ratio` uses the same
order, so argmin f/g and argmax g/f are the same set.

Searches compare ratios as integer cross-multiplications of the (p, q)
pairs from `ratio_terms`; a Fraction is built only for the returned value.
The game harness does not read that value: it scores the returned set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
# The searches compare (p, q) integer pairs; the module-level name `ratio`
# is the per-query evaluation that perfbench/tracing.py rebinds.
from .oracles import ratio_terms as ratio
from .sampling import SeededStream
from .sets import Subset, check_guard, is_int, unchecked_subset, validate_ground_size

OPT_CSV_COLUMNS = ["method", "n", "family", "value_p", "value_q", "argset_hex", "queries", "seed"]


@dataclass(frozen=True, slots=True)
class OptResult:
    """Outcome of one optimization run: the returned set and its exact value."""

    argset: Subset
    value: Fraction
    queries_used: int
    method: str


def _precedes(a, b) -> bool:
    """Whether search key a = (p, q, cardinality, mask) orders before key b.

    Lower ratio p/q first (q > 0, so by cross-multiplication), then smaller
    cardinality, then smaller mask.
    """
    lhs = a[0] * b[1]
    rhs = b[0] * a[1]
    return lhs < rhs or (lhs == rhs and a[2:] < b[2:])


def _search_masks(f_oracle, g_oracle, n: int, sign: int) -> OptResult:
    # Keys carry sign * p, so the maximizer (sign -1) is the minimizer of -f/g.
    best = None
    for mask in range(1, 1 << n):
        p, q = ratio(unchecked_subset(mask, n), f_oracle, g_oracle)
        key = (sign * p, q, mask.bit_count(), mask)
        if best is None or _precedes(key, best):
            best = key
    value = Fraction(sign * best[0], best[1])
    return OptResult(Subset(best[3], n), value, 2 * ((1 << n) - 1), "brute")


def brute_force_min_ratio(f_oracle, g_oracle, n: int) -> OptResult:
    """Exact minimizer of f/g over all nonempty subsets, ascending-mask scan."""
    check_guard(n, "exhaustive ratio search")
    return _search_masks(f_oracle, g_oracle, n, 1)


def brute_force_max_ratio(f_oracle, g_oracle, n: int) -> OptResult:
    """Exact maximizer of f/g over all nonempty subsets, same tie-break as min."""
    check_guard(n, "exhaustive ratio search")
    return _search_masks(f_oracle, g_oracle, n, -1)


def local_search(f_oracle, g_oracle, n: int, budget: int, seed: int) -> OptResult:
    """Best-move strict-improvement descent on f/g from a seeded random start.

    Moves are add-one, drop-one (keeping the set nonempty), and swap-one.
    Every h evaluation charges two queries against `budget`; the search stops
    at a local minimum or when the next evaluation would overrun the budget,
    and returns the best point it ever evaluated.
    """
    validate_ground_size(n)
    if not is_int(budget) or budget < max(n, 2):
        raise ParameterError(f"local search needs an int budget >= max(n, 2) = {max(n, 2)}, got {budget!r}")
    start_queries = f_oracle.count + g_oracle.count
    remaining = budget
    stream = SeededStream(seed, "local-search", n)

    def evaluate(mask: int) -> tuple:
        nonlocal remaining
        remaining -= 2
        p, q = ratio(unchecked_subset(mask, n), f_oracle, g_oracle)
        return (p, q, mask.bit_count(), mask)

    current = stream.nonempty_mask(n)
    best = current_key = evaluate(current)

    improved = True
    while improved and remaining >= 2:
        improved = False
        inside = [i for i in range(n) if current >> i & 1]
        outside = [i for i in range(n) if not current >> i & 1]
        neighbors = [current | (1 << j) for j in outside]
        if len(inside) > 1:
            neighbors += [current & ~(1 << i) for i in inside]
        neighbors += [
            (current & ~(1 << i)) | (1 << j) for i in inside for j in outside
        ]
        move = None
        current_p, current_q = current_key[:2]
        for mask in neighbors:
            if remaining < 2:
                break
            key = evaluate(mask)
            if _precedes(key, best):
                best = key
            if key[0] * current_q < current_p * key[1] and (move is None or _precedes(key, move)):
                move = key
        if move is not None:
            current_key = move
            current = move[3]
            improved = True

    used = (f_oracle.count + g_oracle.count) - start_queries
    return OptResult(Subset(best[3], n), Fraction(best[0], best[1]), used, "local")


def random_search(f_oracle, g_oracle, n: int, budget: int, seed: int) -> OptResult:
    """Evaluate f/g at `budget` seeded uniform nonempty subsets; keep the best."""
    validate_ground_size(n)
    if not is_int(budget) or budget < 1:
        raise ParameterError(f"random search needs an int budget >= 1, got {budget!r}")
    start_queries = f_oracle.count + g_oracle.count
    stream = SeededStream(seed, "random-search", n)
    best = None
    for _ in range(budget):
        mask = stream.nonempty_mask(n)
        p, q = ratio(unchecked_subset(mask, n), f_oracle, g_oracle)
        key = (p, q, mask.bit_count(), mask)
        if best is None or _precedes(key, best):
            best = key
    used = (f_oracle.count + g_oracle.count) - start_queries
    return OptResult(Subset(best[3], n), Fraction(best[0], best[1]), used, "random")


# Method name -> search with signature (f_oracle, g_oracle, n, budget, seed).
# Each entry looks its search up by module-level name at call time, so a
# rebound attribute (perfbench/tracing.py rebinds them) is the one that runs.
SEARCHES = {
    "brute": lambda f, g, n, budget, seed: brute_force_min_ratio(f, g, n),
    "local": lambda f, g, n, budget, seed: local_search(f, g, n, budget, seed),
    "random": lambda f, g, n, budget, seed: random_search(f, g, n, budget, seed),
}


def make_algorithm(method: str, budget: int):
    """Bind a method and budget into the handle shape the game harness runs.

    The handle signature is (f_oracle, g_oracle, n, seed) -> OptResult;
    brute force ignores budget and seed.
    """
    if method not in SEARCHES:
        raise ParameterError(f"method must be brute, local, or random, got {method!r}")
    search = SEARCHES[method]

    def handle(f_oracle, g_oracle, n, seed):
        return search(f_oracle, g_oracle, n, budget, seed)

    return handle


def opt_result_row(result: OptResult, n: int, family: str, seed) -> tuple:
    """One OptResult as a CSV row matching OPT_CSV_COLUMNS."""
    return (
        result.method,
        n,
        family,
        result.value.numerator,
        result.value.denominator,
        result.argset.hex_mask(),
        result.queries_used,
        seed if seed is not None else "",
    )
