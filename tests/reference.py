"""Slow, independent references that only the tests use.

Each of these cross-checks a fast path of the package from the outside:
Monte Carlo and the plain binomial sum against the exact distinguishing
probability, the all-pairs lattice inequality against the pairwise-marginal
supermodularity scan, a one-block-at-a-time stream reader against the
seeded stream, an explicit value table as a third-party set function, the
game's scoring by value lookups and a set-based plant search, and the write
side of the instance descriptor and violation CSV forms.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import is_not

from ratiolab.errors import NoConsistentPlantError, ParameterError, RatioLabError
from ratiolab.game import distinguish_probability, union_bound
from ratiolab.instances import DecreasingInstance
from ratiolab import oracles
from ratiolab.sampling import SeededStream
from ratiolab.serialize import frac_from_str, frac_to_str, render_csv
from ratiolab.sets import Subset, is_int, iter_k_subset_masks, unchecked_subset, validate_ground_size
from ratiolab.verify import VIOLATION_CSV_COLUMNS, violation_row

EXACT_VALUES_ONLY = "oracle values must be int or Fraction"


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

    Cross-checks distinguish_probability, which also validates the query
    parameters here; the fixed query set is {0..s-1}, which is lossless by
    symmetry.
    """
    if not is_int(trials) or trials < 1:
        raise ParameterError(f"trials must be a positive int, got {trials!r}")
    distinguish_probability(n, alpha, beta, s)
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


def binomial_distinguish_probability(n: int, alpha: int, beta: int, s: int) -> Fraction:
    """P[t > s - min{alpha, s} + beta] for hypergeometric t = |S n R|, two binomials per term."""
    t_lo = max(s - min(alpha, s) + beta + 1, 0, alpha - (n - s))
    favorable = sum(math.comb(s, t) * math.comb(n - s, alpha - t) for t in range(t_lo, min(alpha, s) + 1))
    return Fraction(favorable, math.comb(n, alpha))


def batch_lookup(inst, role: str):
    """A list of masks -> one side's values, in order, uncounted and unchecked.

    The mask-native twin of `instance_evaluator`: entry i is the very object
    that `instance_evaluator` returns at the set of masks[i], read through
    the side's value kernel, so equal values from one cached table are one
    object.  Every mask must lie in the ground set, 0 <= mask < 2^n.
    """
    rule, key, values, _, _ = oracles._side(inst, role)
    return oracles._kernel(rule, key, values)


def first_difference(transcript, g_a, g_b) -> int | None:
    """Index of the first transcript entry where the batch lookups g_a and g_b differ.

    Where the lookups agree they index one cached value table and return the
    very same Fraction, so one list `==` settles a transcript without a
    difference; otherwise identity settles almost every set and `!=` keeps
    the rest exact.
    """
    a, b = g_a(transcript.entries), g_b(transcript.entries)
    if a == b:
        return None
    for idx in compress(count(), map(is_not, a, b)):
        if a[idx] != b[idx]:
            return idx
    return None


def score_decreasing(planted, transcript) -> tuple:
    """A decreasing trial's (first_idx, union bound) by value lookups: f against the planted g, and each entry's |S|."""
    first_idx = first_difference(transcript, batch_lookup(planted, "f"), batch_lookup(planted, "g"))
    return first_idx, union_bound(map(int.bit_count, transcript.entries), planted.n, planted.alpha, planted.beta)


def consistent_plant(transcript, n: int) -> Subset:
    """The smallest half-size mask absent from the entries, from the set of half-size entries."""
    k = n // 2
    excluded = {mask for mask in transcript.entries if mask.bit_count() == k}
    for mask in iter_k_subset_masks(n, k):
        if mask not in excluded:
            return Subset(mask, n)
    raise NoConsistentPlantError(f"all {math.comb(n, k)} candidate plants of cardinality {k} were queried")


def score_increasing(unplanted, transcript) -> tuple:
    """An increasing trial's (first_idx, union bound) by the set-based plant search and a lookup recheck."""
    n, entries = unplanted.n, transcript.entries
    try:
        r_star = consistent_plant(transcript, n)
    except NoConsistentPlantError:
        last = next(mask for mask in reversed(dict.fromkeys(entries)) if mask.bit_count() == n // 2)
        return entries.index(last), Fraction(1)
    g, g_star = batch_lookup(unplanted, "g"), batch_lookup(unplanted.with_plant(r_star), "g")
    if first_difference(transcript, g, g_star) is not None:
        raise RatioLabError("planted world disagrees with the transcript; plant search is broken")
    return None, Fraction(0)


def all_pairs_supermodular(fn, n: int) -> bool:
    """Check f(S) + f(T) <= f(S u T) + f(S n T) over all 4^n ordered pairs.

    Independent cross-validation for check_supermodular; practical only at
    tiny n.  The value table is rescaled to integers so the quadratic loop
    compares machine-friendly ints instead of Fractions.
    """
    validate_ground_size(n)
    if n > 10:
        raise ParameterError(f"all-pairs check is quadratic in 2^n; n={n} > 10")
    values = [fn(unchecked_subset(mask, n)) for mask in range(1 << n)]
    try:
        scale = lcm(*{v.denominator for v in values})
    except AttributeError:
        raise ParameterError(EXACT_VALUES_ONLY) from None
    table = [v.numerator * (scale // v.denominator) for v in values]
    size = 1 << n
    for s in range(size):
        vs = table[s]
        for t in range(size):
            if vs + table[t] > table[s | t] + table[s & t]:
                return False
    return True


class ReferenceStream:
    """The seeded stream as the sampling module docstring states it, read slowly.

    It hashes one SHA-256 block at a time into a string of unread bits, reads
    one word per draw and rejects a word by comparing it with its bound.
    """

    def __init__(self, seed: int, *labels) -> None:
        self.key = b"ratiolab|" + "|".join(str(part) for part in (seed, *labels)).encode()
        self.unread = ""
        self.block = 0

    def getbits(self, k: int) -> int:
        while len(self.unread) < k:
            digest = hashlib.sha256(self.key + self.block.to_bytes(8, "big")).digest()
            self.unread += format(int.from_bytes(digest, "big"), "0256b")
            self.block += 1
        word, self.unread = self.unread[:k], self.unread[k:]
        return int(word, 2) if word else 0

    def randbelow(self, bound: int) -> int:
        while True:
            word = self.getbits(bound.bit_length())
            if word < bound:
                return word

    def nonempty_mask(self, n: int) -> int:
        return 1 + self.randbelow((1 << n) - 1)

    def sample_mask(self, n: int, k: int) -> int:
        order = list(range(n))
        mask = 0
        for i in range(k):
            j = i + self.randbelow(n - i)
            order[i], order[j] = order[j], order[i]
            mask |= 1 << order[i]
        return mask


def reference_derive_seed(master: int, *labels) -> int:
    return ReferenceStream(master, *labels).getbits(63)


class FunctionTable:
    """An explicit set function: one exact value per subset, ascending mask order.

    Lets the checkers and searches run against arbitrary functions, not
    just the bundled families.  Instances are callable like an oracle.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        validate_ground_size(n)
        try:
            values = [Fraction(v.numerator, v.denominator) for v in values]
        except AttributeError:
            raise ParameterError(EXACT_VALUES_ONLY) from None
        if len(values) != 1 << n:
            raise ParameterError(
                f"function table for n={n} needs {1 << n} values, got {len(values)}"
            )
        self.n = n
        self.values = values

    def __call__(self, S: Subset) -> Fraction:
        if S.n != self.n:
            raise ParameterError(f"subset ground size {S.n} differs from table n {self.n}")
        return self.values[S.mask]

    @classmethod
    def from_json(cls, payload) -> "FunctionTable":
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict) or set(payload) != {"n", "values"}:
            raise ParameterError('function table JSON must be {"n": ..., "values": [...]}')
        if not isinstance(payload["n"], int):
            raise ParameterError("function table n must be an integer")
        if not isinstance(payload["values"], list):
            raise ParameterError("function table values must be a list of 'p/q' strings")
        return cls(payload["n"], [frac_from_str(v) for v in payload["values"]])

    def to_json(self) -> dict:
        return {"n": self.n, "values": [frac_to_str(v) for v in self.values]}


def instance_to_descriptor(inst) -> dict:
    """Serialize an instance to its JSON descriptor (rationals as 'p/q')."""
    out: dict = {"family": inst.family, "n": inst.n, "epsilon": frac_to_str(inst.epsilon)}
    if isinstance(inst, DecreasingInstance):
        out["alpha"] = inst.alpha
        out["beta"] = inst.beta
    else:
        out["m"] = frac_to_str(inst.m)
    if inst.plant is not None:
        out["plant"] = inst.plant.to_json()
    return out


def violations_to_csv(violations) -> str:
    """CSV rendering of supermodularity violations: base_mask_hex, i, j, lhs, rhs."""
    return render_csv(VIOLATION_CSV_COLUMNS, [violation_row(v) for v in violations])
