"""Exact value oracles for both instance families, with query counting.

All values are Fractions; no floating point ever enters an oracle value.
The m * 2^(|S|+1) branch and a tiny epsilon can appear in one expression,
which would shred float precision and muddy every downstream comparison.

A ratio query yields the unreduced integer pair (p, q) of `ratio_terms`:
callers compare ratios by integer cross-multiplication, and a Fraction is
built only for a value that is returned (`ratio`, OptResult.value).

Evaluation helpers are cached on the small scalar state they depend on
(cardinality, subtracted term), so repeated queries cost a dict hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import MissingPlantError, ParameterError, UndefinedRatioError
from .instances import DecreasingInstance, IncreasingInstance, Instance
from .sets import Subset


def _check_ground(S: Subset, inst) -> None:
    if S.n != inst.n:
        raise ParameterError(f"subset ground size {S.n} differs from instance n {inst.n}")


@lru_cache(maxsize=None)
def _offset_minus(alpha: int, epsilon: Fraction, subtracted: int) -> Fraction:
    return alpha + epsilon - subtracted


@lru_cache(maxsize=None)
def _inc_f_value(m: Fraction, half: int, card: int) -> Fraction:
    if card <= half:
        return Fraction(card)
    return m * (1 << (card + 1)) + card


@lru_cache(maxsize=None)
def _inc_g_value(n: int, epsilon: Fraction, card: int) -> Fraction:
    if card <= n // 2:
        return Fraction(2 * card, n) * epsilon
    return Fraction(2 * (card - n // 2))


def eval_f_dec(S: Subset, inst: DecreasingInstance) -> Fraction:
    """alpha + epsilon - min{alpha, |S|}; non-increasing, minimum epsilon."""
    _check_ground(S, inst)
    card = S.mask.bit_count()
    return _offset_minus(inst.alpha, inst.epsilon, min(inst.alpha, card))


def eval_g_dec(S: Subset, inst: DecreasingInstance) -> Fraction:
    """alpha + epsilon - min{beta + |S minus plant|, alpha, |S|}."""
    _check_ground(S, inst)
    if inst.plant is None:
        raise MissingPlantError("the decreasing g-side needs a planted set")
    card = S.mask.bit_count()
    outside = (S.mask & ~inst.plant.mask).bit_count()
    return _offset_minus(inst.alpha, inst.epsilon, min(inst.beta + outside, inst.alpha, card))


def differs_from_unplanted(S: Subset, inst: DecreasingInstance) -> bool:
    """Whether g differs from f at S: beta + |S minus plant| < min{alpha, |S|}.

    Integer-only test; equivalent to eval_f_dec(S) != eval_g_dec(S).
    """
    _check_ground(S, inst)
    if inst.plant is None:
        raise MissingPlantError("the difference criterion needs a planted set")
    card = S.mask.bit_count()
    outside = (S.mask & ~inst.plant.mask).bit_count()
    return inst.beta + outside < min(inst.alpha, card)


def eval_f_inc(S: Subset, inst: IncreasingInstance) -> Fraction:
    """|S| up to n//2, then m * 2^(|S|+1) + |S|; non-decreasing."""
    _check_ground(S, inst)
    return _inc_f_value(inst.m, inst.n // 2, S.mask.bit_count())


def eval_g_inc(S: Subset, inst: IncreasingInstance) -> Fraction:
    """(2|S|/n) * epsilon up to n//2, then 2(|S| - n//2); zero only at the empty set."""
    _check_ground(S, inst)
    return _inc_g_value(inst.n, inst.epsilon, S.mask.bit_count())


def eval_g_inc_planted(S: Subset, inst: IncreasingInstance) -> Fraction:
    """As eval_g_inc except the single value 1 at the planted set itself."""
    _check_ground(S, inst)
    if inst.plant is None:
        raise MissingPlantError("the planted increasing g-side needs a planted set")
    if S.mask == inst.plant.mask:
        return Fraction(1)
    return _inc_g_value(inst.n, inst.epsilon, S.mask.bit_count())


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

    __slots__ = ("_fn", "instance", "role", "count", "transcript")

    def __init__(
        self,
        fn: Callable[[Subset], Fraction],
        instance: Instance | None = None,
        role: str | None = None,
        transcript: QueryTranscript | None = None,
    ) -> None:
        self._fn = fn
        self.instance = instance
        self.role = role
        self.count = 0
        self.transcript = transcript

    @classmethod
    def for_instance(
        cls,
        inst: Instance,
        role: str,
        transcript: QueryTranscript | None = None,
    ) -> "CountingOracle":
        return cls(instance_evaluator(inst, role), instance=inst, role=role, transcript=transcript)

    def __call__(self, S: Subset) -> Fraction:
        self.count += 1
        return self._fn(S)


def instance_evaluator(inst: Instance, role: str) -> Callable[[Subset], Fraction]:
    """The bare evaluation closure for one side of an instance, uncounted.

    The closures index precomputed per-cardinality value tables, so a query
    costs a bit_count and a list lookup, never Fraction arithmetic.
    """
    if role not in ("f", "g"):
        raise ParameterError(f"oracle role must be 'f' or 'g', got {role!r}")
    if isinstance(inst, DecreasingInstance):
        if role == "f":
            table = [
                _offset_minus(inst.alpha, inst.epsilon, min(inst.alpha, card))
                for card in range(inst.n + 1)
            ]
            return lambda S, _t=table: _t[S.mask.bit_count()]
        if inst.plant is None:
            raise MissingPlantError("decreasing g-oracle needs a planted instance")
        by_subtracted = [
            _offset_minus(inst.alpha, inst.epsilon, t) for t in range(inst.alpha + 1)
        ]
        out_mask = ((1 << inst.n) - 1) & ~inst.plant.mask

        def g_dec(S, _t=by_subtracted, _o=out_mask, _a=inst.alpha, _b=inst.beta):
            mask = S.mask
            return _t[min(_b + (mask & _o).bit_count(), _a, mask.bit_count())]

        return g_dec
    if isinstance(inst, IncreasingInstance):
        if role == "f":
            table = [_inc_f_value(inst.m, inst.n // 2, card) for card in range(inst.n + 1)]
            return lambda S, _t=table: _t[S.mask.bit_count()]
        table = [_inc_g_value(inst.n, inst.epsilon, card) for card in range(inst.n + 1)]
        if inst.plant is None:
            return lambda S, _t=table: _t[S.mask.bit_count()]

        def g_inc_planted(S, _t=table, _p=inst.plant.mask, _one=Fraction(1)):
            return _one if S.mask == _p else _t[S.mask.bit_count()]

        return g_inc_planted
    raise ParameterError(f"unknown instance type: {type(inst).__name__}")


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
