"""Slow, independent references that only the tests use.

Each of these cross-checks a fast path of the package from the outside:
Monte Carlo against the exact distinguishing probability, the all-pairs
lattice inequality against the pairwise-marginal supermodularity scan, an
explicit value table as a third-party set function, and the write side of
the instance descriptor and violation CSV forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ratiolab.errors import ParameterError
from ratiolab.game import distinguish_probability
from ratiolab.instances import DecreasingInstance
from ratiolab.sampling import SeededStream
from ratiolab.serialize import frac_from_str, frac_to_str, render_csv
from ratiolab.sets import Subset, is_int, unchecked_subset, validate_ground_size
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
