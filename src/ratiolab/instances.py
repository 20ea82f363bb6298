"""Adversarial instance families for the supermodular-ratio query game.

Two parameterized families live here.  The "decreasing" family plants a
hidden set R of cardinality alpha inside the denominator function; the
"increasing" family plants a hidden half-size set whose ratio value drops
to floor(n/2) while every other set's ratio stays at least min{n/(2eps), m};
it needs n >= 2, so that the plant is nonempty.
Instances are frozen: oracles, games, and optimizers share them freely.

The constructors validate every parameter; descriptor values reach them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .sampling import random_k_subset
from .sets import Subset, is_int, validate_ground_size
from .serialize import frac_from_str
# Not called here; kept as an instances attribute that perfbench/tracing.py rebinds.
from .serialize import frac_to_str  # noqa: F401


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, (float, bool)):
        raise ParameterError(f"{what} must be exact (int, Fraction, or 'p/q'), got {type(value).__name__}")
    try:
        return frac_from_str(value) if isinstance(value, str) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{what} is not a valid rational: {value!r}") from exc


def _check_plant(plant: Subset | None, n: int, k: int, name: str) -> None:
    if plant is None:
        return
    if not isinstance(plant, Subset):
        raise ParameterError(f"plant must be a Subset, got {type(plant).__name__}")
    if plant.n != n:
        raise ParameterError("plant ground size differs from instance n")
    if plant.cardinality != k:
        raise ParameterError(f"plant must have cardinality {name}={k}, got {plant.cardinality}")


@dataclass(frozen=True, slots=True)
class DecreasingInstance:
    """Non-increasing pair: f(S) = a + e - min{a, |S|} and its planted twin.

    Requires beta + 1 <= alpha <= n so the planted ratio e/(a+e-b) stays
    below 1, and a plant (when present) of cardinality exactly alpha.
    """

    n: int
    alpha: int
    beta: int
    epsilon: Fraction
    plant: Subset | None = None

    def __post_init__(self):
        validate_ground_size(self.n)
        if not all(is_int(v) for v in (self.alpha, self.beta)):
            raise ParameterError("alpha and beta must be integers")
        if self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if not self.beta + 1 <= self.alpha <= self.n:
            raise ParameterError(
                f"need beta + 1 <= alpha <= n, got alpha={self.alpha}, "
                f"beta={self.beta}, n={self.n}"
            )
        object.__setattr__(self, "epsilon", _as_fraction(self.epsilon, "epsilon"))
        if self.epsilon <= 0:
            raise ParameterError(f"epsilon must be > 0, got {self.epsilon}")
        _check_plant(self.plant, self.n, self.alpha, "alpha")

    @property
    def family(self) -> str:
        return "decreasing"

    def planted_ratio(self) -> Fraction:
        """Exact f/g value at the plant: epsilon / (alpha + epsilon - beta)."""
        return self.epsilon / (self.alpha + self.epsilon - self.beta)

    def with_plant(self, plant: Subset) -> "DecreasingInstance":
        return DecreasingInstance(self.n, self.alpha, self.beta, self.epsilon, plant)


@dataclass(frozen=True, slots=True)
class IncreasingInstance:
    """Non-decreasing pair: f jumps by a factor m past cardinality n//2.

    epsilon must lie in (0, n/(n+2)]; that range keeps the denominator
    function supermodular (checked exhaustively in the verify module).
    n >= 2, and a plant, when present, has cardinality exactly n//2.
    """

    n: int
    m: Fraction
    epsilon: Fraction
    plant: Subset | None = None

    def __post_init__(self):
        validate_ground_size(self.n)
        if self.n < 2:
            raise ParameterError(f"the increasing family needs n >= 2 for a nonempty plant, got n={self.n}")
        object.__setattr__(self, "m", _as_fraction(self.m, "m"))
        object.__setattr__(self, "epsilon", _as_fraction(self.epsilon, "epsilon"))
        if self.m <= 0:
            raise ParameterError(f"m must be > 0, got {self.m}")
        bound = Fraction(self.n, self.n + 2)
        if not 0 < self.epsilon <= bound:
            raise ParameterError(
                f"epsilon must lie in (0, n/(n+2)] = (0, {bound}], got {self.epsilon}"
            )
        _check_plant(self.plant, self.n, self.n // 2, "n//2")

    @property
    def family(self) -> str:
        return "increasing"

    def planted_ratio(self) -> Fraction:
        """Exact ratio at the plant: floor(n/2)."""
        return Fraction(self.n // 2)

    def min_ratio_floor(self) -> Fraction:
        """Lower bound min{n/(2*epsilon), m} on the unplanted ratio."""
        return min(Fraction(self.n) / (2 * self.epsilon), self.m)

    def gap_bound(self) -> Fraction:
        """Guaranteed ratio gap min{1/epsilon, 2m/n} between floor and plant."""
        return min(1 / self.epsilon, 2 * self.m / self.n)

    def with_plant(self, plant: Subset) -> "IncreasingInstance":
        return IncreasingInstance(self.n, self.m, self.epsilon, plant)


Instance = DecreasingInstance | IncreasingInstance


def derive_decreasing_params(n: int, x) -> tuple[int, int]:
    """Map a growth parameter x to (alpha, beta) = (floor(x*sqrt(n)/5), floor(x^2/5)).

    Rejects pairs violating beta + 1 <= alpha <= n instead of clamping: the
    recipe is asymptotic and many small (n, x) combinations are infeasible.
    Pure arithmetic, so any positive int n is accepted; the instance
    constructors bound the ground size.
    """
    if not is_int(n) or n < 1:
        raise ParameterError(f"n must be a positive int, got {n!r}")
    x = _as_fraction(x, "x")
    if x <= 0:
        raise ParameterError(f"x must be > 0, got {x}")
    p, q = x.numerator, x.denominator
    # floor(p*sqrt(n)/(5q)) = isqrt(p^2 n) // (5q), exact in integers
    alpha = math.isqrt(p * p * n) // (5 * q)
    beta = (p * p) // (5 * q * q)
    if not beta + 1 <= alpha <= n:
        raise ParameterError(
            f"derived alpha={alpha}, beta={beta} violate beta + 1 <= alpha <= n "
            f"(n={n}, x={x})"
        )
    return alpha, beta


def _plant_from_descriptor(spec, n: int, k: int, what: str) -> Subset:
    if isinstance(spec, dict):
        if set(spec) != {"seed"} or not is_int(spec["seed"]):
            raise ParameterError(f'{what}: plant object must be {{"seed": int}}')
        return random_k_subset(n, k, spec["seed"])
    if isinstance(spec, list):
        if not all(is_int(e) for e in spec):
            raise ParameterError(f"{what}: plant list must contain integers")
        if len(set(spec)) != len(spec):
            raise ParameterError(f"{what}: plant list repeats an element")
        return Subset.from_elements(spec, n)
    raise ParameterError(f"{what}: plant must be an element list or a seed object")


def instance_from_descriptor(desc: dict) -> Instance:
    """Map a JSON instance descriptor onto its family's constructor, which validates the values."""
    if not isinstance(desc, dict):
        raise ParameterError("descriptor must be a JSON object")
    layouts = {
        "decreasing": (DecreasingInstance, ("alpha", "beta")),
        "increasing": (IncreasingInstance, ("m",)),
    }
    family = desc.get("family")
    if not isinstance(family, str) or family not in layouts:
        raise ParameterError(f"unknown family: {family!r}")
    cls, fields = layouts[family]
    required = {"family", "n", *fields, "epsilon"}
    extra = set(desc) - required - {"plant"}
    if extra:
        raise ParameterError(f"unexpected descriptor fields for {family}: {sorted(extra)}")
    missing = required - set(desc)
    if missing:
        raise ParameterError(f"{family} descriptor is missing {sorted(missing)}")
    inst = cls(desc["n"], *(desc[name] for name in fields), desc["epsilon"])
    if "plant" not in desc:
        return inst
    k = inst.alpha if family == "decreasing" else inst.n // 2
    return inst.with_plant(_plant_from_descriptor(desc["plant"], inst.n, k, family))
