"""Exact value oracles for both instance families, with query counting.

All values are Fractions; no floating point ever enters an oracle value.
The m * 2^(|S|+1) branch and a tiny epsilon can appear in one expression,
which would shred float precision and muddy every downstream comparison.

A ratio query yields the unreduced integer pair (p, q) of `ratio_terms`:
callers compare ratios by integer cross-multiplication, and a Fraction is
built only for a value that is returned (`ratio`, OptResult.value).  The
searches query bit masks through `query_batch`, which gives each mask's
small-int class id and the classes by id: a class is one distinct
(p, q, |S|) of f/g, or None where g = 0.  `ratio_terms` alone defines a
query's charges, records and errors; `query_batch` calls it mask by mask
wherever its table shortcut would differ.  Each side of an instance is
one cached table form, `_side`'s (rows, out, plant): its values, the
Fractions `instance_evaluator` returns, and for g the class ids in the same
rows, read off those values once at build time.  `_id_kernel` alone maps
masks to class ids, so a search query on a `make_oracles` pair builds no
Subset, Fraction or tuple per mask.  A pair with at most 256 classes gives
them as `bytes`: a step-1 range inside one aligned block of BLOCK masks, as
brute force asks, with one `bytes.translate`, and drawn and neighbour lists
with one more by |S| (where out is set, or at the plant, one comprehension
over the masks' cells, put into `bytes`); a larger pair, a planted grid,
gets the comprehension's list.  `query_batch` looks for a set where g = 0
(id 0) with one `0 not in ids`, a C `memchr` on `bytes`; no bundled pair
has both a list's many classes and such a set.

In both families f is the same function in every world and the plant
lives only in g, so the sets at which g was evaluated are all an algorithm
can learn about the plant.  `make_oracles` therefore attaches a transcript
to the g handle alone, which records the mask of every set it evaluates,
however the algorithm calls it, and its |S|.
Where the planted decreasing g differs from f is the game's rule, `game._threshold`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import ParameterError, UndefinedRatioError
from .instances import DecreasingInstance, Instance
from .sets import BLOCK, Subset, unchecked_subset

# Range queries are answered an aligned block of BLOCK masks at a time.  A low
# part m < BLOCK has state _STRIDE * |m & out| + |m|, at most 168: one byte.
_STRIDE = 13


def _ground_error(size: int, n: int) -> ParameterError:
    return ParameterError(f"subset ground size {size} differs from instance n {n}")


def _f_over_g(f_row: tuple, g_rows, cards) -> tuple[list[tuple], tuple]:
    """Per g row, each cell's f/g class id, and the classes by id.

    A class is one distinct (p, q, |S|), f/g unreduced with q > 0 as g >= 0, or None (id 0) where g = 0.
    """
    ids: dict = {None: 0} if any(0 in row for row in g_rows) else {}
    keys = [[None if not g.numerator else (f.numerator * g.denominator, f.denominator * g.numerator, c)
             for f, g, c in zip(f_row, g_row, cards)] for g_row in g_rows]
    return [tuple(ids.setdefault(key, len(ids)) for key in row) for row in keys], tuple(ids)


@lru_cache(maxsize=None)
def _dec_grid(n: int, alpha: int, beta: int, epsilon: Fraction) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The decreasing pair: the planted g's n + 1 rows by x = |S minus R|, its f/g ids and classes, and the unplanted g's.

    Row x holds alpha + epsilon - min(beta + x, alpha, c) at c = |S|, sliced from one
    term table, so equal values are one object.  Every row from x = alpha - beta on is
    one shared tuple, f's own row, and so is its id row.  The unplanted g is f: its one
    id row holds the f/f classes, one per |S|.
    """
    table = tuple(alpha + epsilon - t for t in range(alpha + 1))
    rows = [table[:k] + table[k:k + 1] * (n + 1 - k) for k in range(beta, alpha + 1)]
    ids, classes = _f_over_g(rows[-1], rows, range(n + 1))
    ff_ids, ff_classes = _f_over_g(rows[-1], rows[-1:], range(n + 1))
    tail = n + 1 - len(rows)
    return tuple(rows + rows[-1:] * tail), tuple(ids + ids[-1:] * tail), classes, tuple(ff_ids), ff_classes


@lru_cache(maxsize=None)
def _inc_tables(n: int, m: Fraction, epsilon: Fraction) -> tuple[tuple, tuple, tuple, tuple]:
    """The increasing pair: f by |S|, and g and the f/g class ids by |S| with the plant's entry at n + 1, and the classes.

    No |S| reaches index n + 1, so only the plant reads the plant's entry (g = 1).
    """
    half = n // 2
    cards = range(n + 1)
    f = tuple(Fraction(c) if c <= half else m * (1 << (c + 1)) + c for c in cards)
    g = tuple(Fraction(2 * c, n) * epsilon if c <= half else Fraction(2 * (c - half)) for c in cards) + (Fraction(1),)
    [ids], classes = _f_over_g(f + f[half:half + 1], [g], [*cards, half])
    return f, g, ids, classes


class QueryTranscript:
    """The masks of the sets at which g was evaluated, in order, and each one's |S|.

    One entry per answered g evaluation: a g call its evaluator refuses
    (a set of another ground size) is charged but not recorded.  The game
    scores the returned set on the trial's own pair, so after a trial the
    last entry is the returned set, and `len(transcript) == g.count` holds
    when every g charge was answered.  `cards[i]` is |S| at entries[i], one
    byte as n <= 128: `record` counts the bits, and a chunk the class-id
    table answered reads them off its ids' classes (`query_batch`).
    """

    __slots__ = ("entries", "cards")

    def __init__(self) -> None:
        self.entries: list[int] = []
        self.cards = bytearray()

    def record(self, mask: int) -> None:
        self.entries.append(mask)
        self.cards.append(mask.bit_count())

    def __len__(self) -> int:
        return len(self.entries)


class CountingOracle:
    """A value oracle that charges one query per evaluation.

    Wraps any Subset -> Fraction callable; `for_instance` binds the right
    family evaluator for a role ("f" or "g").  A handle with a transcript
    records the mask of every set it evaluates.  `answers` evaluates many
    sets, charged and recorded as the same calls one by one.  A
    `make_oracles` g handle also holds `_classes`, (its f handle, n, masks
    -> f/g class ids, the classes by id, class id -> |S|), read by
    `query_batch` with that f handle alone.  A planted pair's g closure
    holds the plant, or its complement, so the games hand an algorithm a
    planted pair only to run again a trial that the plant already separated.
    """

    __slots__ = ("_fn", "count", "transcript", "_classes")

    def __init__(self, fn: Callable[[Subset], Fraction], transcript: QueryTranscript | None = None) -> None:
        self._fn = fn
        self.count = 0
        self.transcript = transcript
        self._classes = None

    @classmethod
    def for_instance(
        cls, inst: Instance, role: str, transcript: QueryTranscript | None = None
    ) -> "CountingOracle":
        return cls(instance_evaluator(inst, role), transcript)

    def __call__(self, S: Subset) -> Fraction:
        self.count += 1
        value = self._fn(S)
        if self.transcript is not None:
            self.transcript.record(S.mask)
        return value

    def answers(self, subsets) -> list:
        """`[self(S) for S in subsets]`: the same values, charges, records and errors.

        Without a transcript the evaluator runs through one C-level `map`,
        with no call of this handle per set.  If it raises at the j-th set,
        `count` has grown by j, the raising call included, as `__call__`
        charges before it evaluates.  A handle with a transcript is called
        once per set, so it records what those calls would.
        """
        if self.transcript is not None:
            return [self(S) for S in subsets]
        values = []
        try:
            values.extend(map(self._fn, subsets))
        except BaseException:
            self.count += len(values) + 1
            raise
        self.count += len(values)
        return values


def _side(inst: Instance, role: str) -> tuple:
    """One side of an instance as (rows, out, plant, ids, classes), its cached tables.

    At the plant the side's value is rows[0][n + 1]; anywhere else it is
    rows[|S & out|][|S|].  `plant` is the mask read at rows[0][n + 1], or -1
    on every side but the planted increasing g.  `ids` holds the pair's f/g class ids in the same rows and
    `classes` the classes by id, for g only (None for f).  Every side but the
    planted decreasing g has one row and out = 0: decreasing f is the grid's
    last row, and so is the unplanted decreasing g, with the f/f classes.
    """
    if role not in ("f", "g"):
        raise ParameterError(f"oracle role must be 'f' or 'g', got {role!r}")
    if not isinstance(inst, Instance):
        raise ParameterError(f"unknown instance type: {type(inst).__name__}")
    n = inst.n
    if isinstance(inst, DecreasingInstance):
        rows, ids, classes, ff_ids, ff_classes = _dec_grid(n, inst.alpha, inst.beta, inst.epsilon)
        if role == "f":
            return rows[-1:], 0, -1, None, None
        if inst.plant is None:
            return rows[-1:], 0, -1, ff_ids, ff_classes
        return rows, ((1 << n) - 1) & ~inst.plant.mask, -1, ids, classes
    f, g, ids, classes = _inc_tables(n, inst.m, inst.epsilon)
    if role == "f":
        return (f,), 0, -1, None, None
    return (g,), 0, -1 if inst.plant is None else inst.plant.mask, (ids,), classes


def instance_evaluator(inst: Instance, role: str) -> Callable[[Subset], Fraction]:
    """The bare evaluation closure for one side of an instance, uncounted.

    The closure reads the side's `_side` form, specialised to it: `by_grid`
    when out is set, `by_plant` when there is a plant, else `by_cardinality`.
    A query costs a ground size compare and a bit_count and tuple index per
    axis, never Fraction arithmetic.  A subset of another ground size raises
    ParameterError.
    """
    rows, out, plant, _, _ = _side(inst, role)
    n = inst.n
    if out:
        def by_grid(S, _t=rows, _o=out, _n=n):
            if S.n != _n:
                raise _ground_error(S.n, _n)
            mask = S.mask
            return _t[(mask & _o).bit_count()][mask.bit_count()]

        return by_grid
    if plant >= 0:
        def by_plant(S, _t=rows[0], _v=rows[0][n + 1], _p=plant, _n=n):
            if S.n != _n:
                raise _ground_error(S.n, _n)
            return _v if S.mask == _p else _t[S.mask.bit_count()]

        return by_plant

    def by_cardinality(S, _t=rows[0], _n=n):
        if S.n != _n:
            raise _ground_error(S.n, _n)
        return _t[S.mask.bit_count()]

    return by_cardinality


@lru_cache(maxsize=64)
def _low_states(out_low: int) -> bytes:
    """The state of each low part m < BLOCK, by doubling: bit b adds 1, plus _STRIDE where b is in out_low."""
    states = b"\0"
    while len(states) < BLOCK:
        step = _STRIDE + 1 if out_low & len(states) else 1
        states += states.translate(bytes(range(step, 256)).ljust(256, b"\0"))
    return states


def _id_kernel(rows: tuple, out: int, plant: int, classes: tuple, n: int) -> Callable:
    """Masks -> the pair's f/g class ids, read off g's `_side` form: `bytes` up to 256 classes, else `by_cell`'s list.

    `by_cell` reads a list's ids cell by cell, as the form states them.  A
    list, or a range that is not a step-1 range inside one aligned block,
    takes its masks' counts through one translate table by |S|, or, when out
    is set or it holds the plant, `by_cell`'s list put into `bytes`.  On a
    block, a cell adds the high part's counts, one pair per block, to the low
    part's: a block is a slice of `_low_states` put through a 256-byte
    translate table of the high counts, with the plant's byte patched in.
    Block tables are built on first use, so a pair that never queries a range
    pays for none of them.
    """
    def by_cell(masks):
        return [rows[0][n + 1] if mask == plant else rows[(mask & out).bit_count()][mask.bit_count()] for mask in masks]

    if len(classes) > 256:
        return by_cell
    by_card = bytes(rows[0]).ljust(256, b"\0")
    tables = {}

    def listed(masks):
        if out or plant >= 0 and plant in masks:
            return bytes(by_cell(masks))
        return bytes(map(int.bit_count, masks)).translate(by_card)

    def by_block(masks):
        if type(masks) is not range or masks.step != 1:
            return listed(masks)
        start, stop = masks.start, masks.stop
        high = start & -BLOCK
        if not 0 <= start < stop <= min(high + BLOCK, 1 << n):
            return listed(masks)
        out_high, card_high = counts = (high & out).bit_count(), high.bit_count()
        if counts not in tables:
            # state _STRIDE * a + c -> rows[out_high + a][card_high + c]; cells past the grid are never read
            tables[counts] = b"".join(bytes(row[card_high:card_high + _STRIDE]).ljust(_STRIDE, b"\0")
                                      for row in rows[out_high:out_high + _STRIDE]).ljust(256, b"\0")
        block = _low_states(out & (BLOCK - 1))[start - high:stop - high].translate(tables[counts])
        if start <= plant < stop:
            block = block[:plant - start] + bytes((rows[0][n + 1],)) + block[plant - start + 1:]
        return block

    return by_block


def make_oracles(
    inst: Instance, transcript: QueryTranscript | None = None
) -> tuple[CountingOracle, CountingOracle]:
    """The (f, g) oracle pair for an instance; the transcript records g's queries.

    The g handle holds this f handle, n, the pair's class-id kernel and
    classes, and a translate table from class id to |S|, which `query_batch`
    reads on exactly this pair in (f, g) order.  The kernel (`_id_kernel`)
    answers with `bytes` when the pair has at most 256 classes, else with a
    list; the table holds the |S| of the first 256 classes, all a byte names.
    """
    f_oracle = CountingOracle.for_instance(inst, "f")
    g_oracle = CountingOracle.for_instance(inst, "g", transcript)
    kernel, classes = class_lookup(inst)
    card_of = bytes(key[2] if key else 0 for key in classes[:256]).ljust(256, b"\0")
    g_oracle._classes = (f_oracle, inst.n, kernel, classes, card_of)
    return f_oracle, g_oracle


def class_lookup(inst: Instance) -> tuple[Callable, tuple]:
    """(masks -> the pair's f/g class ids, as `query_batch` gives them, the classes by id), uncounted and unchecked.

    The caller vouches, as for `query_batch`, that every mask lies in the ground set.
    """
    _, out, plant, ids, classes = _side(inst, "g")
    return _id_kernel(ids, out, plant, classes, inst.n), classes


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


def query_batch(masks: list[int] | range, n: int, f_oracle: CountingOracle, g_oracle: CountingOracle) -> tuple[list, tuple | list]:
    """`ratio_terms` at each of `masks` as (ids, classes): the same charges, records and errors.

    `masks` is a list or a range.  `classes[ids[i]]` is (p, q, |S|) at masks[i], (p, q) as
    `ratio_terms` gives.  The class-id table answers the common case only: a `make_oracles` pair as
    built, in (f, g) order, f without a transcript, queried at the table's n, with no set where
    g = 0 (id 0 is None).  It charges each handle len(masks), extends g's transcript by the masks
    and their |S| and returns the cached classes; ids are `bytes` on a pair with at most 256
    classes, put through the pair's class -> |S| table by one translate, else a list, whose masks'
    |S| is their bit_count.  Every other call goes one mask at a time through `ratio_terms`, one
    class per mask.  The caller vouches, as for `class_lookup` and `unchecked_subset`, that every
    mask lies in the ground set, 0 <= mask < 2^n: neither path checks it, and outside it the answer,
    or the error, is unspecified.
    """
    partner, size, kernel, classes, card_of = getattr(g_oracle, "_classes", None) or (None,) * 5
    if partner is f_oracle and f_oracle.transcript is None and size == n:
        ids = kernel(masks)
        if classes[0] is not None or 0 not in ids:
            f_oracle.count += len(masks)
            g_oracle.count += len(masks)
            transcript = g_oracle.transcript
            if transcript is not None:
                transcript.entries.extend(masks)
                transcript.cards += ids.translate(card_of) if type(ids) is bytes else bytes(map(int.bit_count, masks))
            return ids, classes
    classes = [ratio_terms(unchecked_subset(mask, n), f_oracle, g_oracle) + (mask.bit_count(),) for mask in masks]
    return list(range(len(classes))), classes


def ratio(S: Subset, f_oracle: CountingOracle, g_oracle: CountingOracle) -> Fraction:
    """f(S)/g(S) exactly, as a Fraction; charges like ratio_terms.

    For returning a single value.  Loops that compare many ratios use
    ratio_terms and cross-multiply, building a Fraction only for the result.
    """
    return Fraction(*ratio_terms(S, f_oracle, g_oracle))
