"""Exact and heuristic optimization of the ratio objective over nonempty sets.

Brute force is the ground truth at small n.  The two heuristics exist as
representative polynomial-query algorithms for the indistinguishability
game; neither carries any guarantee, and on the adversarial families they
reliably fail, which is the point.

Tie-breaking is global and fixed: optimal value first, then smaller
cardinality, then ascending mask.  `brute_force_max_ratio` uses the same
order, so argmin f/g and argmax g/f are the same set.

Searches query by bit mask, all in one loop, `_best_of`, which takes its
masks in chunks of CHUNK: each chunk is one call of the module attribute
`ratio`, bound to `oracles.query_batch`, which charges both handles once
per mask, extends g's transcript by the chunk and yields each mask's
value-class id, a class being an unreduced integer pair (p, q) and |S|.
The loop compares a chunk's distinct classes as integer cross-products and
settles ties once per class; a Fraction is built only for the returned
value.  The game harness does not read that value: it scores the returned set.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from typing import NamedTuple

from .errors import ParameterError
# The searches compare value classes; the module-level name `ratio`
# is the per-chunk evaluation that perfbench/tracing.py rebinds.
from .oracles import query_batch as ratio
from .sampling import SeededStream
from .sets import Subset, check_count, check_guard, validate_ground_size
# Not called here; kept as an optimize attribute that perfbench/tracing.py rebinds.
from .sets import unchecked_subset  # noqa: F401

# Masks per `ratio` call: the searches hold at most this many masks and their class ids at once.
CHUNK = 4096

OPT_CSV_COLUMNS = ["method", "n", "family", "value_p", "value_q", "argset_hex", "queries", "seed"]


class OptResult(NamedTuple):
    """Outcome of one optimization run: the returned set and its exact value."""

    argset: Subset
    value: Fraction
    queries_used: int
    method: str


def _best_of(masks, n: int, f_oracle, g_oracle, sign: int = 1, best=(1, 0, 0)):
    """The first of `best` and `masks` in search order, as (sign * p, q, mask); 1/0 loses to every mask.

    The one search loop: one `ratio` call per chunk of up to CHUNK masks, in
    order.  Search order is lower sign * p/q (q > 0), then smaller cardinality,
    then smaller mask.  A chunk's best class is found among its distinct ids;
    a chunk that does not reach the best so far costs nothing more.  Every
    class tying it in value and |S| wins: one C-level pass takes the smallest
    winning mask.
    """
    evaluate = ratio
    best_p, best_q, best_mask = best
    masks = iter(masks)
    while chunk := list(islice(masks, CHUNK)):
        ids, classes = evaluate(chunk, n, f_oracle, g_oracle)
        distinct = set(ids)
        p, q, card = 1, 0, 0
        for i in distinct:
            class_p, class_q, class_card = classes[i]
            class_p *= sign
            if (class_p * q, class_card) < (p * class_q, card):
                p, q, card = class_p, class_q, class_card
        key, best_key = (p * best_q, card), (best_p * q, best_mask.bit_count())
        if key > best_key:
            continue
        winners = {i for i in distinct if classes[i][2] == card and sign * classes[i][0] * q == p * classes[i][1]}
        mask = min(compress(chunk, map(winners.__contains__, ids)))
        best_p, best_q, best_mask = p, q, min(mask, best_mask) if key == best_key else mask
    return best_p, best_q, best_mask


def _search_masks(f_oracle, g_oracle, n: int, sign: int) -> OptResult:
    p, q, mask = _best_of(range(1, 1 << n), n, f_oracle, g_oracle, sign)
    return OptResult(Subset(mask, n), Fraction(sign * p, q), 2 * ((1 << n) - 1), "brute")


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
    check_count(budget, max(n, 2), "local search budget")
    start_queries = f_oracle.count + g_oracle.count
    stream = SeededStream(seed, "local-search", n)
    # Each point evaluated is the current one or its neighbour and a move goes to the
    # best neighbour, so the best point ever evaluated is the current one until the last.
    best = _best_of((stream.nonempty_mask(n),), n, f_oracle, g_oracle)
    remaining = budget - 2
    while remaining >= 2:
        current_p, current_q, current = best
        inside = [i for i in range(n) if current >> i & 1]
        outside = [i for i in range(n) if not current >> i & 1]
        neighbors = [current | (1 << j) for j in outside]
        if len(inside) > 1:
            neighbors += [current & ~(1 << i) for i in inside]
        neighbors += [(current & ~(1 << i)) | (1 << j) for i in inside for j in outside]
        neighbors = neighbors[: remaining // 2]
        remaining -= 2 * len(neighbors)
        best = _best_of(neighbors, n, f_oracle, g_oracle, 1, best)
        if best[0] * current_q >= current_p * best[1]:
            break

    used = (f_oracle.count + g_oracle.count) - start_queries
    p, q, mask = best
    return OptResult(Subset(mask, n), Fraction(p, q), used, "local")


def random_search(f_oracle, g_oracle, n: int, budget: int, seed: int) -> OptResult:
    """Evaluate f/g at `budget` seeded uniform nonempty subsets; keep the best."""
    validate_ground_size(n)
    check_count(budget, 1, "random search budget")
    start_queries = f_oracle.count + g_oracle.count
    stream = SeededStream(seed, "random-search", n)
    p, q, mask = _best_of(stream.nonempty_masks(n, budget), n, f_oracle, g_oracle)
    used = (f_oracle.count + g_oracle.count) - start_queries
    return OptResult(Subset(mask, n), Fraction(p, q), used, "random")


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
