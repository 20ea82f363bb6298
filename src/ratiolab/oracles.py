"""Exact value oracles for both instance families, with query counting.

All values are Fractions; no floating point ever enters an oracle value.
The m * 2^(|S|+1) branch and a tiny epsilon can appear in one expression,
which would shred float precision and muddy every downstream comparison.

A ratio query yields the unreduced integer pair (p, q) of `ratio_terms`:
callers compare ratios by integer cross-multiplication, and a Fraction is
built only for a value that is returned (`ratio`, OptResult.value).  The
searches query by bit mask through `query_terms`, which a handle from
`make_oracles` answers from integer (numerator, denominator) pairs of the
same cached value table that `instance_evaluator` indexes: no Subset, no
Fraction.  There is one table per family parameters.

In both families f is the same function in every world and the plant
lives only in g, so the sets at which g was evaluated are all an algorithm
can learn about the plant.  `make_oracles` therefore attaches a transcript
to the g handle alone, which records the mask of every set it evaluates,
however the algorithm calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable

from .errors import MissingPlantError, ParameterError, UndefinedRatioError
from .instances import DecreasingInstance, IncreasingInstance, Instance
from .sets import Subset, unchecked_subset


def _ground_error(size: int, n: int) -> ParameterError:
    return ParameterError(f"subset ground size {size} differs from instance n {n}")


def _pairs(values) -> tuple[tuple[int, int], ...]:
    return tuple((v.numerator, v.denominator) for v in values)


@lru_cache(maxsize=None)
def _dec_tables(alpha: int, epsilon: Fraction) -> tuple[tuple, tuple]:
    """alpha + epsilon - t for t = 0..alpha, by subtracted term: the values and their pairs."""
    values = tuple(alpha + epsilon - t for t in range(alpha + 1))
    return values, _pairs(values)


@lru_cache(maxsize=None)
def _dec_grid(n: int, alpha: int, beta: int, epsilon: Fraction) -> tuple[tuple, tuple]:
    """The planted decreasing g on one flat (|S minus R|, |S|) grid: the values and their pairs.

    Cell x * (n + 1) + c holds alpha + epsilon - min(beta + x, alpha, c): row x is the
    term table sliced at k = min(beta + x, alpha), so equal values are one object.
    """
    ks = [min(beta + x, alpha) for x in range(n + 1)]
    return tuple(
        tuple(chain.from_iterable(table[:k] + table[k:k + 1] * (n + 1 - k) for k in ks))
        for table in _dec_tables(alpha, epsilon)
    )


@lru_cache(maxsize=None)
def _inc_tables(n: int, m: Fraction, epsilon: Fraction) -> tuple[tuple, tuple]:
    """Per-cardinality (f, g) of the unplanted increasing pair: the values and their pairs."""
    half = n // 2
    cards = range(n + 1)
    f = tuple(Fraction(c) if c <= half else m * (1 << (c + 1)) + c for c in cards)
    g = tuple(Fraction(2 * c, n) * epsilon if c <= half else Fraction(2 * (c - half)) for c in cards)
    return (f, g), (_pairs(f), _pairs(g))


def differs_from_unplanted(S: Subset, inst: DecreasingInstance) -> bool:
    """Whether g differs from f at S: beta + |S minus plant| < min{alpha, |S|}.

    Integer-only test; equivalent to comparing the f and g evaluators at S.
    """
    if S.n != inst.n:
        raise _ground_error(S.n, inst.n)
    if inst.plant is None:
        raise MissingPlantError("the difference criterion needs a planted set")
    card = S.mask.bit_count()
    outside = (S.mask & ~inst.plant.mask).bit_count()
    return inst.beta + outside < min(inst.alpha, card)


class QueryTranscript:
    """The masks of the sets at which g was evaluated, in order, plus the returned set's.

    The returned solution set counts as queried: distinguishing checks and
    plant searches always run over entries plus the returned set.
    """

    __slots__ = ("entries", "returned")

    def __init__(self) -> None:
        self.entries: list[int] = []
        self.returned: int | None = None

    def record(self, mask: int) -> None:
        self.entries.append(mask)

    def set_returned(self, S: Subset) -> None:
        self.returned = S.mask

    def effective_sets(self):
        """Every queried mask in order, with the returned set's mask appended."""
        yield from self.entries
        if self.returned is not None:
            yield self.returned

    def cardinalities(self) -> list[int]:
        return [mask.bit_count() for mask in self.effective_sets()]

    def __len__(self) -> int:
        return len(self.entries)


class CountingOracle:
    """A value oracle that charges one query per evaluation.

    Wraps any Subset -> Fraction callable; `for_instance` binds the right
    family evaluator for a role ("f" or "g") and its pair table, which
    `query_terms` reads.  A handle with a transcript records the mask of
    every set it evaluates.  The plant, when present, stays inside the
    instance: nothing about it leaks through this handle.
    """

    __slots__ = ("_fn", "count", "transcript", "_pairs")

    def __init__(self, fn: Callable[[Subset], Fraction], transcript: QueryTranscript | None = None) -> None:
        self._fn = fn
        self.count = 0
        self.transcript = transcript
        self._pairs = None

    @classmethod
    def for_instance(
        cls, inst: Instance, role: str, transcript: QueryTranscript | None = None
    ) -> "CountingOracle":
        oracle = cls(instance_evaluator(inst, role), transcript)
        oracle._pairs = (inst.n, pair_lookup(inst, role))
        return oracle

    def __call__(self, S: Subset) -> Fraction:
        self.count += 1
        value = self._fn(S)
        if self.transcript is not None:
            self.transcript.record(S.mask)
        return value


_BY_CARDINALITY, _BY_GRID, _BY_PLANT = range(3)


def _side(inst: Instance, role: str, column: int) -> tuple:
    """One side of an instance as (rule, table, key); column 0 reads Fractions, 1 their pairs.

    The rule names the value class: |S|; the planted decreasing g's cell
    |S & out| * (n + 1) + |S| of its grid, key (out, n + 1); or |S| with the
    increasing plant test, key (plant mask, the value 1).
    """
    if role not in ("f", "g"):
        raise ParameterError(f"oracle role must be 'f' or 'g', got {role!r}")
    n = inst.n
    if isinstance(inst, DecreasingInstance):
        if role == "f":
            table = _dec_tables(inst.alpha, inst.epsilon)[column]
            return _BY_CARDINALITY, table + table[inst.alpha:] * (n - inst.alpha), None
        if inst.plant is None:
            raise MissingPlantError("decreasing g-oracle needs a planted instance")
        grid = _dec_grid(n, inst.alpha, inst.beta, inst.epsilon)[column]
        return _BY_GRID, grid, (((1 << n) - 1) & ~inst.plant.mask, n + 1)
    if isinstance(inst, IncreasingInstance):
        f_table, g_table = _inc_tables(n, inst.m, inst.epsilon)[column]
        if role == "f":
            return _BY_CARDINALITY, f_table, None
        if inst.plant is None:
            return _BY_CARDINALITY, g_table, None
        return _BY_PLANT, g_table, (inst.plant.mask, (1, 1) if column else Fraction(1))
    raise ParameterError(f"unknown instance type: {type(inst).__name__}")


def instance_evaluator(inst: Instance, role: str) -> Callable[[Subset], Fraction]:
    """The bare evaluation closure for one side of an instance, uncounted.

    The closures index the family's value table, so a query costs a ground
    size compare, a bit_count and a tuple lookup, never Fraction arithmetic.
    A subset of another ground size raises ParameterError.
    """
    rule, table, key = _side(inst, role, 0)
    n = inst.n
    if rule == _BY_CARDINALITY:
        def by_cardinality(S, _t=table, _n=n):
            if S.n != _n:
                raise _ground_error(S.n, _n)
            return _t[S.mask.bit_count()]

        return by_cardinality
    if rule == _BY_GRID:
        def by_grid(S, _t=table, _o=key[0], _w=key[1], _n=n):
            if S.n != _n:
                raise _ground_error(S.n, _n)
            mask = S.mask
            return _t[(mask & _o).bit_count() * _w + mask.bit_count()]

        return by_grid

    def by_plant(S, _t=table, _p=key[0], _one=key[1], _n=n):
        if S.n != _n:
            raise _ground_error(S.n, _n)
        return _one if S.mask == _p else _t[S.mask.bit_count()]

    return by_plant


def pair_lookup(inst: Instance, role: str) -> Callable[[int], tuple[int, int]]:
    """Mask -> (numerator, denominator) of one side's value, uncounted and unchecked.

    The mask-native twin of `instance_evaluator`, over the pairs of the same
    cached table: equal values are the very same tuple.  The caller vouches
    for the mask's ground size.
    """
    rule, table, key = _side(inst, role, 1)
    if rule == _BY_CARDINALITY:
        return lambda mask, _t=table: _t[mask.bit_count()]
    if rule == _BY_GRID:
        return lambda mask, _t=table, _o=key[0], _w=key[1]: _t[
            (mask & _o).bit_count() * _w + mask.bit_count()]
    return lambda mask, _t=table, _p=key[0], _one=key[1]: _one if mask == _p else _t[mask.bit_count()]


def make_oracles(
    inst: Instance, transcript: QueryTranscript | None = None
) -> tuple[CountingOracle, CountingOracle]:
    """The (f, g) oracle pair for an instance; the transcript records g's queries."""
    return (
        CountingOracle.for_instance(inst, "f"),
        CountingOracle.for_instance(inst, "g", transcript),
    )


def ratio_terms(S: Subset, f_oracle: CountingOracle, g_oracle: CountingOracle) -> tuple[int, int]:
    """Integers (p, q) with p/q == f(S)/g(S) and q > 0, unreduced.

    Charges both oracles.  Raises on a zero denominator instead of
    inventing an infinity: the empty set is outside the optimization
    domain.  Two ratios compare exactly as p1*q2 against p2*q1, with no
    Fraction arithmetic.
    """
    f_value = f_oracle(S)
    g_value = g_oracle(S)
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


def query_terms(mask: int, n: int, f_oracle: CountingOracle, g_oracle: CountingOracle) -> tuple[int, int]:
    """`ratio_terms` at Subset(mask, n): the same (p, q), charges, records and errors.

    Handles from `for_instance` answer from their pair tables; any other
    handle is called on unchecked_subset(mask, n) through `ratio_terms`.
    """
    try:
        f_size, f_pair = f_oracle._pairs
        g_size, g_pair = g_oracle._pairs
    except (AttributeError, TypeError):
        return ratio_terms(unchecked_subset(mask, n), f_oracle, g_oracle)
    f_oracle.count += 1
    if f_size != n:
        raise _ground_error(n, f_size)
    f_num, f_den = f_pair(mask)
    if f_oracle.transcript is not None:
        f_oracle.transcript.record(mask)
    g_oracle.count += 1
    if g_size != n:
        raise _ground_error(n, g_size)
    g_num, g_den = g_pair(mask)
    if g_oracle.transcript is not None:
        g_oracle.transcript.record(mask)
    p = f_num * g_den
    q = f_den * g_num
    if q > 0:
        return p, q
    if q:
        return -p, -q
    raise UndefinedRatioError(f"g({unchecked_subset(mask, n)!r}) = 0; the ratio is undefined there")


def ratio(S: Subset, f_oracle: CountingOracle, g_oracle: CountingOracle) -> Fraction:
    """f(S)/g(S) exactly, as a Fraction; charges like ratio_terms.

    For returning a single value.  Loops that compare many ratios use
    ratio_terms and cross-multiply, building a Fraction only for the result.
    """
    return Fraction(*ratio_terms(S, f_oracle, g_oracle))
