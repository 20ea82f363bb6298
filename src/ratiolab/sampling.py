"""Deterministic counter-mode randomness.

Replayability contract: every random draw in this package comes from a
SeededStream, a counter-mode generator whose block j for the stream keyed by
``(seed, labels...)`` is

    SHA-256(b"ratiolab|" + "{seed}|{label_0}|...|{label_k}".encode() + j.to_bytes(8, "big"))

so a draw is a pure function of (seed, labels, position).  Independent
streams come from distinct label tuples, and `derive_seed` turns one into a
recordable seed: trial i of a game run with master seed s has seed
derive_seed(s, "trial", i), and its plant and algorithm draw from seeds
derived from that with the labels "plant" and "alg".  The scheme is stable
across platforms and Python versions.  A search's draw, `nonempty_mask`,
is one call: it reads n-bit words off the pool and rejects the all-ones word.
"""

from __future__ import annotations

from hashlib import sha256

from .errors import ParameterError
from .sets import Subset, validate_ground_size

_PREFIX = b"ratiolab|"


class SeededStream:
    """Counter-mode deterministic bit source keyed by a seed and labels."""

    def __init__(self, seed: int, *labels) -> None:
        key = "|".join(str(part) for part in (seed, *labels))
        self._key = _PREFIX + key.encode()
        self._counter = 0
        self._pool = 0
        self._pool_bits = 0

    def _block(self) -> int:
        block = sha256(self._key + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        return int.from_bytes(block, "big")

    def getbits(self, k: int) -> int:
        """The next k bits of the stream as an unsigned integer."""
        if k < 0:
            raise ParameterError(f"bit count must be non-negative, got {k}")
        while self._pool_bits < k:
            self._pool = (self._pool << 256) | self._block()
            self._pool_bits += 256
        self._pool_bits -= k
        out = self._pool >> self._pool_bits
        self._pool &= (1 << self._pool_bits) - 1
        return out

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (exactly uniform)."""
        if bound <= 0:
            raise ParameterError(f"bound must be positive, got {bound}")
        k = bound.bit_length()
        while True:
            value = self.getbits(k)
            if value < bound:
                return value

    def sample_mask(self, n: int, k: int) -> int:
        """Mask of a uniform cardinality-k subset of {0..n-1} (partial Fisher-Yates)."""
        if not 0 <= k <= n:
            raise ParameterError(f"cannot sample {k} elements from a ground set of size {n}")
        pool = list(range(n))
        mask = 0
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            mask |= 1 << pool[i]
        return mask

    def nonempty_mask(self, n: int) -> int:
        """Mask of a uniform nonempty subset of {0..n-1}: 1 + randbelow(2^n - 1), bit for bit."""
        full = (1 << n) - 1
        if full <= 0:
            raise ParameterError(f"bound must be positive, got {full}")
        pool, bits = self._pool, self._pool_bits
        while True:
            while bits < n:
                pool = (pool << 256) | self._block()
                bits += 256
            bits -= n
            word = pool >> bits
            pool &= (1 << bits) - 1
            if word != full:
                self._pool, self._pool_bits = pool, bits
                return word + 1


def derive_seed(master: int, *labels) -> int:
    """A 63-bit seed deterministically derived from a master seed and labels.

    Used to give each trial of a multi-trial run its own recordable seed.
    """
    return SeededStream(master, *labels).getbits(63)


def random_k_subset(n: int, k: int, seed: int) -> Subset:
    """A uniform cardinality-k subset; identical for fixed (n, k, seed) everywhere."""
    validate_ground_size(n)
    if k > n:
        raise ParameterError(f"requested cardinality k={k} exceeds ground size n={n}")
    if k < 0:
        raise ParameterError(f"requested cardinality k={k} is negative")
    stream = SeededStream(seed, "k-subset", n, k)
    return Subset(stream.sample_mask(n, k), n)
