"""Exact value oracles for both instance families, with query counting.

All values are Fractions; no floating point ever enters an oracle value.
The m * 2^(|S|+1) branch and a tiny epsilon can appear in one expression,
which would shred float precision and muddy every downstream comparison.

A ratio query yields the unreduced integer pair (p, q) of `ratio_terms`:
callers compare ratios by integer cross-multiplication, and a Fraction is
built only for a value that is returned (`ratio`, OptResult.value).

There is one value table per family parameters, shared by the planted and
unplanted evaluators, and every evaluator checks the subset's ground size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import MissingPlantError, ParameterError, UndefinedRatioError
from .instances import DecreasingInstance, IncreasingInstance, Instance
from .sets import Subset


def _ground_error(S: Subset, n: int) -> ParameterError:
    return ParameterError(f"subset ground size {S.n} differs from instance n {n}")


@lru_cache(maxsize=None)
def _dec_values(alpha: int, epsilon: Fraction) -> tuple[Fraction, ...]:
    """alpha + epsilon - t for t = 0..alpha: each decreasing-family value, by subtracted term."""
    return tuple(alpha + epsilon - t for t in range(alpha + 1))


@lru_cache(maxsize=None)
def _inc_values(n: int, m: Fraction, epsilon: Fraction) -> tuple[tuple, tuple]:
    """Per-cardinality (f, g) values of the unplanted increasing pair."""
    half = n // 2
    cards = range(n + 1)
    f = tuple(Fraction(c) if c <= half else m * (1 << (c + 1)) + c for c in cards)
    g = tuple(Fraction(2 * c, n) * epsilon if c <= half else Fraction(2 * (c - half)) for c in cards)
    return f, g


def differs_from_unplanted(S: Subset, inst: DecreasingInstance) -> bool:
    """Whether g differs from f at S: beta + |S minus plant| < min{alpha, |S|}.

    Integer-only test; equivalent to comparing the f and g evaluators at S.
    """
    if S.n != inst.n:
        raise _ground_error(S, inst.n)
    if inst.plant is None:
        raise MissingPlantError("the difference criterion needs a planted set")
    card = S.mask.bit_count()
    outside = (S.mask & ~inst.plant.mask).bit_count()
    return inst.beta + outside < min(inst.alpha, card)


@dataclass
class QueryTranscript:
    """Ordered record of (set, f-value, g-value) queries plus the returned set.

    The returned solution set counts as queried: distinguishing checks and
    plant searches always run over entries plus the returned set.
    """

    entries: list[tuple[Subset, Fraction, Fraction]] = field(default_factory=list)
    returned: Subset | None = None

    def record(self, S: Subset, f_value: Fraction, g_value: Fraction) -> None:
        self.entries.append((S, f_value, g_value))

    def set_returned(self, S: Subset) -> None:
        self.returned = S

    def effective_sets(self):
        """Every queried set in order, with the returned set appended."""
        for S, _, _ in self.entries:
            yield S
        if self.returned is not None:
            yield self.returned

    def cardinalities(self) -> list[int]:
        return [S.mask.bit_count() for S in self.effective_sets()]

    def __len__(self) -> int:
        return len(self.entries)


class CountingOracle:
    """A value oracle that charges one query per evaluation.

    Wraps any Subset -> Fraction callable; `for_instance` binds the right
    family evaluator for a role ("f" or "g").  The plant, when present,
    stays inside the instance: nothing about it leaks through this handle.
    """

    __slots__ = ("_fn", "count", "transcript")

    def __init__(
        self,
        fn: Callable[[Subset], Fraction],
        transcript: QueryTranscript | None = None,
    ) -> None:
        self._fn = fn
        self.count = 0
        self.transcript = transcript

    @classmethod
    def for_instance(
        cls,
        inst: Instance,
        role: str,
        transcript: QueryTranscript | None = None,
    ) -> "CountingOracle":
        return cls(instance_evaluator(inst, role), transcript)

    def __call__(self, S: Subset) -> Fraction:
        self.count += 1
        return self._fn(S)


def instance_evaluator(inst: Instance, role: str) -> Callable[[Subset], Fraction]:
    """The bare evaluation closure for one side of an instance, uncounted.

    The closures index the family's value table, so a query costs a ground
    size compare, a bit_count and a tuple lookup, never Fraction arithmetic.
    A subset of another ground size raises ParameterError.
    """
    if role not in ("f", "g"):
        raise ParameterError(f"oracle role must be 'f' or 'g', got {role!r}")
    n = inst.n
    if isinstance(inst, DecreasingInstance):
        values = _dec_values(inst.alpha, inst.epsilon)
        if role == "f":
            return _by_cardinality([values[min(inst.alpha, c)] for c in range(n + 1)], n)
        if inst.plant is None:
            raise MissingPlantError("decreasing g-oracle needs a planted instance")
        out_mask = ((1 << n) - 1) & ~inst.plant.mask

        def g_dec(S, _t=values, _o=out_mask, _a=inst.alpha, _b=inst.beta, _n=n):
            if S.n != _n:
                raise _ground_error(S, _n)
            mask = S.mask
            return _t[min(_b + (mask & _o).bit_count(), _a, mask.bit_count())]

        return g_dec
    if isinstance(inst, IncreasingInstance):
        f_values, g_values = _inc_values(n, inst.m, inst.epsilon)
        if role == "f":
            return _by_cardinality(f_values, n)
        if inst.plant is None:
            return _by_cardinality(g_values, n)

        def g_inc_planted(S, _t=g_values, _p=inst.plant.mask, _one=Fraction(1), _n=n):
            if S.n != _n:
                raise _ground_error(S, _n)
            return _one if S.mask == _p else _t[S.mask.bit_count()]

        return g_inc_planted
    raise ParameterError(f"unknown instance type: {type(inst).__name__}")


def _by_cardinality(table, n: int) -> Callable[[Subset], Fraction]:
    def evaluate(S, _t=table, _n=n):
        if S.n != _n:
            raise _ground_error(S, _n)
        return _t[S.mask.bit_count()]

    return evaluate


def make_oracles(
    inst: Instance, transcript: QueryTranscript | None = None
) -> tuple[CountingOracle, CountingOracle]:
    """The (f, g) oracle pair for an instance, sharing one transcript."""
    return (
        CountingOracle.for_instance(inst, "f", transcript),
        CountingOracle.for_instance(inst, "g", transcript),
    )


def ratio_terms(S: Subset, f_oracle: CountingOracle, g_oracle: CountingOracle) -> tuple[int, int]:
    """Integers (p, q) with p/q == f(S)/g(S) and q > 0, unreduced.

    Charges both oracles and records the paired query.  Raises on a zero
    denominator instead of inventing an infinity: the empty set is outside
    the optimization domain.  Two ratios compare exactly as p1*q2 against
    p2*q1, with no Fraction arithmetic.
    """
    f_value = f_oracle(S)
    g_value = g_oracle(S)
    transcript = f_oracle.transcript
    if transcript is not None:
        if g_oracle.transcript is not transcript:
            raise ParameterError("f and g oracles must share one transcript")
        transcript.record(S, f_value, g_value)
    try:
        p = f_value.numerator * g_value.denominator
        q = f_value.denominator * g_value.numerator
    except AttributeError:
        raise ParameterError("oracle values must be int or Fraction") from None
    if q > 0:
        return p, q
    if q:
        return -p, -q
    raise UndefinedRatioError(f"g({S!r}) = 0; the ratio is undefined there")


def ratio(S: Subset, f_oracle: CountingOracle, g_oracle: CountingOracle) -> Fraction:
    """f(S)/g(S) exactly, as a Fraction; charges and records like ratio_terms.

    For returning a single value.  Loops that compare many ratios use
    ratio_terms and cross-multiply, building a Fraction only for the result.
    """
    return Fraction(*ratio_terms(S, f_oracle, g_oracle))
