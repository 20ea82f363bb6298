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
across platforms and Python versions.  A search draws its masks as one
batch, `nonempty_masks(n, count)`: it reads n-bit words off the stream,
rejects the all-ones word and refills several blocks at a time, yet yields
the masks of, and leaves the stream where, `count` calls of `nonempty_mask`
would, bit for bit.  Every count argument is an int, checked by `is_int`.
"""

from __future__ import annotations

from hashlib import sha256

from .errors import ParameterError
from .sets import Subset, is_int, validate_ground_size

_PREFIX = b"ratiolab|"
# Most blocks one batch-draw refill hashes: enough to amortise the join and
# the conversion, few enough that the pool's shifts stay cheap.
_REFILL_BLOCKS = 8


def _blocks(key: bytes, start: int, count: int) -> int:
    """Blocks start .. start + count - 1 of the stream keyed by `key`, as one 256*count-bit int."""
    digests = [sha256(key + j.to_bytes(8, "big")).digest() for j in range(start, start + count)]
    return int.from_bytes(b"".join(digests), "big")


def _check_count(value, least: int, what: str) -> None:
    if not is_int(value) or value < least:
        raise ParameterError(f"{what} must be an int >= {least}, got {value!r}")


class SeededStream:
    """Counter-mode deterministic bit source keyed by a seed and labels.

    The stream's state is the unread bits of its last blocks (`_pool`, the
    low `_pool_bits` bits) and the index of its next block (`_counter`).
    """

    def __init__(self, seed: int, *labels) -> None:
        key = "|".join(str(part) for part in (seed, *labels))
        self._key = _PREFIX + key.encode()
        self._counter = 0
        self._pool = 0
        self._pool_bits = 0

    def getbits(self, k: int) -> int:
        """The next k bits of the stream as an unsigned integer."""
        _check_count(k, 0, "bit count")
        pool, bits = self._pool, self._pool_bits
        if bits < k:
            blocks = (k - bits + 255) >> 8
            pool = pool << (blocks << 8) | _blocks(self._key, self._counter, blocks)
            self._counter += blocks
            bits += blocks << 8
        bits -= k
        self._pool, self._pool_bits = pool & ((1 << bits) - 1), bits
        return pool >> bits

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (exactly uniform)."""
        _check_count(bound, 1, "bound")
        k = bound.bit_length()
        while True:
            value = self.getbits(k)
            if value < bound:
                return value

    def sample_mask(self, n: int, k: int) -> int:
        """Mask of a uniform cardinality-k subset of {0..n-1} (partial Fisher-Yates)."""
        if not (is_int(n) and is_int(k) and 0 <= k <= n):
            raise ParameterError(f"cannot sample {k!r} elements from a ground set of size {n!r}")
        pool = list(range(n))
        mask = 0
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            mask |= 1 << pool[i]
        return mask

    def nonempty_mask(self, n: int) -> int:
        """Mask of a uniform nonempty subset of {0..n-1}, 1 + randbelow(2^n - 1): the batch draw with count 1."""
        (mask,) = self.nonempty_masks(n, 1)
        return mask

    def nonempty_masks(self, n: int, count: int):
        """An iterator over `count` masks of uniform nonempty subsets of {0..n-1}.

        Each mask is 1 + randbelow(2^n - 1), bit for bit: the stream is read
        in n-bit words and the all-ones word is rejected.  The iterator yields
        exactly the masks, and leaves the stream exactly where, `count` calls
        of `nonempty_mask` would; closed early, it leaves the stream right
        after its last yielded mask.  It holds the stream's state until it
        ends or is closed, so draw nothing else from the stream meanwhile.
        The arguments are checked here, before the first draw.
        """
        _check_count(n, 1, "ground size")
        _check_count(count, 0, "draw count")
        return self._nonempty_masks(n, count)

    def _nonempty_masks(self, n: int, count: int):
        # The pool is masked only at refills: a word is read off the top of
        # the unread bits and the read bits stay above them until then.  A
        # refill hashes at most the blocks the remaining draws must read.
        key, full = self._key, (1 << n) - 1
        pool, bits, counter = self._pool, self._pool_bits, self._counter
        try:
            while count:
                while bits < n:
                    blocks = min(_REFILL_BLOCKS, (n * count - bits + 255) >> 8)
                    pool = (pool & ((1 << bits) - 1)) << (blocks << 8) | _blocks(key, counter, blocks)
                    counter += blocks
                    bits += blocks << 8
                bits -= n
                word = pool >> bits & full
                if word != full:
                    count -= 1
                    yield word + 1
        finally:
            self._pool, self._pool_bits, self._counter = pool & ((1 << bits) - 1), bits, counter


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
