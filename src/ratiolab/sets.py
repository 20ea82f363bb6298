"""Bit-mask subsets: the type that carries a set across the package's API.

A subset of a ground set {0, ..., n-1} is a single integer mask whose bit i
records membership of element i.  Hot loops work on the masks themselves;
`Subset` wraps a mask only where a set crosses an API boundary (oracle
queries, returned sets, violation records, wire forms).  Values are
immutable and hashable.  Enumeration is always in ascending mask order;
that ordering is the canonical tie-break used by every consumer in this
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import EnumerationGuardError, ParameterError

MAX_GROUND_SIZE = 128
ENUMERATION_GUARD = 24
# Masks per batch: an aligned block of the oracles' range queries and of the
# structural checks, a brute-force chunk, and a list of the stream's draws.
BLOCK = 4096


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(value, least: int, what: str) -> None:
    """Refuse a count argument that is not an int >= least."""
    if not is_int(value) or value < least:
        raise ParameterError(f"{what} must be an int >= {least}, got {value!r}")


def validate_ground_size(n: int) -> None:
    if not is_int(n):
        raise ParameterError(f"ground size must be an integer, got {n!r}")
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ParameterError(f"ground size must satisfy 1 <= n <= {MAX_GROUND_SIZE}, got {n}")


def check_guard(n: int, what: str = "subset enumeration") -> None:
    """Validate the ground size, then refuse full subset enumeration above n = ENUMERATION_GUARD."""
    validate_ground_size(n)
    if n > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"n={n} exceeds the enumeration guard {ENUMERATION_GUARD} for {what}"
        )


@dataclass(frozen=True, slots=True)
class Subset:
    """An immutable subset of {0, ..., n-1}, stored as a bit mask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        validate_ground_size(self.n)
        if not is_int(self.mask):
            raise ParameterError(f"a subset mask must be an int, got {self.mask!r}")
        if not 0 <= self.mask < (1 << self.n):
            raise ParameterError(
                f"mask {self.mask:#x} has bits outside the ground set of size {self.n}"
            )

    @classmethod
    def empty(cls, n: int) -> Subset:
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> Subset:
        return cls((1 << n) - 1, n)

    @classmethod
    def from_elements(cls, elements, n: int) -> Subset:
        mask = 0
        for e in elements:
            if not is_int(e):
                raise ParameterError(f"a subset element must be an int, got {e!r}")
            if not 0 <= e < n:
                raise ParameterError(f"element {e} outside ground set of size {n}")
            mask |= 1 << e
        return cls(mask, n)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def to_json(self) -> list[int]:
        """Sorted element-index list, the JSON wire form."""
        return list(self.elements())

    def hex_mask(self) -> str:
        """Lowercase hex mask without prefix, the CSV wire form."""
        return format(self.mask, "x")

    def __repr__(self) -> str:
        return f"Subset({{{','.join(map(str, self.elements()))}}}, n={self.n})"


# The slot descriptors' own setters: they fill a new Subset without the frozen __setattr__.
_set_mask = Subset.__dict__["mask"].__set__
_set_n = Subset.__dict__["n"].__set__


def unchecked_subset(mask: int, n: int) -> Subset:
    """Build a Subset skipping validation.  For hot loops over known-valid masks."""
    s = object.__new__(Subset)
    _set_mask(s, mask)
    _set_n(s, n)
    return s


def iter_k_subset_masks(n: int, k: int) -> Iterator[int]:
    """Masks of all cardinality-k subsets in ascending order (Gosper's hack).

    Unguarded; callers either bound n or consume a bounded prefix.
    """
    if not 0 <= k <= n:
        raise ParameterError(f"cardinality filter k={k} outside 0..{n}")
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
