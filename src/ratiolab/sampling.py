"""Deterministic counter-mode randomness.

Replayability contract: every random draw in this package comes from a
SeededStream, a counter-mode generator whose block j for the stream keyed by
``(seed, labels...)`` is

    SHA-256(b"ratiolab|" + "{seed}|{label_0}|...|{label_k}".encode() + j.to_bytes(8, "big"))

The stream is its blocks in order, each read most significant bit first,
so a draw is a pure function of (seed, labels, position).  `getbits(k)` is
the next k bits as an unsigned int; `randbelow(b)` reads words of
b.bit_length() bits until one is below b; `nonempty_mask(n)` is
1 + randbelow(2^n - 1), and `nonempty_masks(n, count)` yields `count` of
them in turn; `sample_mask(n, k)` is the mask of the first k elements of
[0, ..., n-1] after swapping position i with position i + randbelow(n - i)
for i = 0..k-1; `derive_seed(master, *labels)` is getbits(63) of the stream
keyed by ``(master, labels...)``.  Independent streams come from distinct
label tuples, and `derive_seed` turns one into a recordable seed: trial i of
a game run with master seed s has seed derive_seed(s, "trial", i), and its
plant and algorithm draw from seeds derived from that with the labels
"plant" and "alg".  The scheme is stable across platforms and Python
versions.  Every draw reads through one generator, which refills several
blocks at a time and never more than its remaining words must read.  Every
count argument is an int, checked by `check_count`, and so is every seed.
"""

from __future__ import annotations

from hashlib import sha256

from .errors import ParameterError
from .sets import Subset, check_count, is_int, validate_ground_size

_PREFIX = b"ratiolab|"
# Most blocks one refill hashes: enough to amortise the join and the
# conversion, few enough that the pool's shifts stay cheap.
_REFILL_BLOCKS = 8


class SeededStream:
    """Counter-mode deterministic bit source keyed by a seed and labels.

    The stream's state is the unread bits of its last blocks (`_pool`, the
    low `_pool_bits` bits) and the index of its next block (`_counter`).
    Every draw reads through one generator, `_words`.
    """

    def __init__(self, seed: int, *labels) -> None:
        if not is_int(seed):
            raise ParameterError(f"a seed must be an int, got {seed!r}")
        key = "|".join(str(part) for part in (seed, *labels))
        self._key = _PREFIX + key.encode()
        self._counter = 0
        self._pool = 0
        self._pool_bits = 0

    def getbits(self, k: int) -> int:
        """The next k bits of the stream as an unsigned integer."""
        check_count(k, 0, "bit count")
        (value,) = self._words(k, 1 << k, 0, 1)
        return value

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (exactly uniform)."""
        check_count(bound, 1, "bound")
        (value,) = self._words(bound.bit_length(), bound, 0, 1)
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

        It yields exactly the masks, and leaves the stream exactly where,
        `count` calls of `nonempty_mask` would; closed early, it leaves the
        stream right after its last yielded mask.  It holds the stream's state
        until it ends or is closed, so draw nothing else from the stream
        meanwhile.  The arguments are checked here, before the first draw.
        """
        check_count(n, 1, "ground size")
        check_count(count, 0, "draw count")
        return self._words(n, (1 << n) - 1, 1, count)

    def _words(self, k: int, bound: int, offset: int, count: int):
        """An iterator over the next `count` k-bit words below `bound`, each plus `offset`.

        The stream's state lives in locals and is written back when the
        iterator ends or is closed.  The pool is masked only at refills: a
        word is read off the top of the unread bits and the read bits stay
        above them until then.
        """
        key, word_mask = self._key, (1 << k) - 1
        pool, bits, counter = self._pool, self._pool_bits, self._counter
        try:
            while count:
                while bits < k:
                    blocks = min(_REFILL_BLOCKS, (k * count - bits + 255) >> 8)
                    fresh = b"".join([sha256(key + j.to_bytes(8, "big")).digest()
                                      for j in range(counter, counter + blocks)])
                    pool = (pool & ((1 << bits) - 1)) << (blocks << 8) | int.from_bytes(fresh, "big")
                    counter += blocks
                    bits += blocks << 8
                bits -= k
                word = pool >> bits & word_mask
                if word < bound:
                    count -= 1
                    yield word + offset
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
    stream = SeededStream(seed, "k-subset", n, k)
    return Subset(stream.sample_mask(n, k), n)
