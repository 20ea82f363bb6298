"""Adversarial instance families for the supermodular-ratio query game.

Two parameterized families live here.  The "decreasing" family plants a
hidden set R of cardinality alpha inside the denominator function; the
"increasing" family plants a hidden half-size set whose ratio value drops
to floor(n/2) while every other set's ratio stays at least min{n/(2eps), m}.
Instances are frozen: oracles, games, and optimizers share them freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .sampling import random_k_subset
from .sets import Subset, validate_ground_size
from .serialize import frac_from_str, frac_to_str


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, (float, bool)):
        raise ParameterError(f"{what} must be exact (int, Fraction, or 'p/q'), got {type(value).__name__}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{what} is not a valid rational: {value!r}") from exc


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
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.alpha, self.beta)):
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
        if self.plant is not None:
            if self.plant.n != self.n:
                raise ParameterError("plant ground size differs from instance n")
            if self.plant.cardinality != self.alpha:
                raise ParameterError(
                    f"plant must have cardinality alpha={self.alpha}, "
                    f"got {self.plant.cardinality}"
                )

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
    A plant, when present, has cardinality exactly n//2.
    """

    n: int
    m: Fraction
    epsilon: Fraction
    plant: Subset | None = None

    def __post_init__(self):
        validate_ground_size(self.n)
        object.__setattr__(self, "m", _as_fraction(self.m, "m"))
        object.__setattr__(self, "epsilon", _as_fraction(self.epsilon, "epsilon"))
        if self.m <= 0:
            raise ParameterError(f"m must be > 0, got {self.m}")
        bound = Fraction(self.n, self.n + 2)
        if not 0 < self.epsilon <= bound:
            raise ParameterError(
                f"epsilon must lie in (0, n/(n+2)] = (0, {bound}], got {self.epsilon}"
            )
        if self.plant is not None:
            if self.plant.n != self.n:
                raise ParameterError("plant ground size differs from instance n")
            if self.plant.cardinality != self.n // 2:
                raise ParameterError(
                    f"plant must have cardinality n//2={self.n // 2}, "
                    f"got {self.plant.cardinality}"
                )

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
    """
    validate_ground_size(n)
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
        if set(spec) != {"seed"} or not isinstance(spec["seed"], int):
            raise ParameterError(f'{what}: plant object must be {{"seed": int}}')
        return random_k_subset(n, k, spec["seed"])
    if isinstance(spec, list):
        if not all(isinstance(e, int) for e in spec):
            raise ParameterError(f"{what}: plant list must contain integers")
        return Subset.from_elements(spec, n)
    raise ParameterError(f"{what}: plant must be an element list or a seed object")


def instance_to_descriptor(inst: Instance) -> dict:
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


def instance_from_descriptor(desc: dict) -> Instance:
    """Parse and validate a JSON instance descriptor."""
    if not isinstance(desc, dict):
        raise ParameterError("descriptor must be a JSON object")
    family = desc.get("family")
    if family not in ("decreasing", "increasing"):
        raise ParameterError(f"unknown family: {family!r}")
    n = desc.get("n")
    if not isinstance(n, int):
        raise ParameterError("descriptor field n must be an integer")
    if "epsilon" not in desc:
        raise ParameterError("descriptor is missing epsilon")
    epsilon = _descriptor_rational(desc["epsilon"], "epsilon")

    allowed = {"family", "n", "epsilon", "plant"}
    allowed |= {"alpha", "beta"} if family == "decreasing" else {"m"}
    extra = set(desc) - allowed
    if extra:
        raise ParameterError(f"unexpected descriptor fields for {family}: {sorted(extra)}")

    if family == "decreasing":
        alpha, beta = desc.get("alpha"), desc.get("beta")
        if not isinstance(alpha, int) or not isinstance(beta, int):
            raise ParameterError("decreasing descriptor needs integer alpha and beta")
        plant = None
        if "plant" in desc:
            plant = _plant_from_descriptor(desc["plant"], n, alpha, "decreasing")
        return DecreasingInstance(n, alpha, beta, epsilon, plant)

    if "m" not in desc:
        raise ParameterError("increasing descriptor needs m")
    m = _descriptor_rational(desc["m"], "m")
    plant = None
    if "plant" in desc:
        plant = _plant_from_descriptor(desc["plant"], n, n // 2, "increasing")
    return IncreasingInstance(n, m, epsilon, plant)


def _descriptor_rational(value, what: str) -> Fraction:
    if isinstance(value, str):
        return frac_from_str(value)
    if isinstance(value, int):
        return Fraction(value)
    raise ParameterError(f"{what} must be an int or a 'p/q' string, got {value!r}")
