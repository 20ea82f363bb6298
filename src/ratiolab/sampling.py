"""Deterministic counter-mode randomness.

Replayability contract: every random draw in this package comes from a
SeededStream, a counter-mode generator whose block j for the stream keyed by
``(seed, labels...)`` is

    SHA-256(b"ratiolab|" + "{seed}|{label_0}|...|{label_k}".encode() + j.to_bytes(8, "big"))

The stream is its blocks in order, each read most significant bit first, so
a draw is a pure function of (seed, labels, position).  `getbits(k)` is the
next k bits as an unsigned int; `randbelow(b)` reads words of b.bit_length()
bits until one is below b; `nonempty_mask(n)` is 1 + randbelow(2^n - 1), and
`nonempty_mask_lists(n, count)` hands `count` of them on as lists of 4,096;
`sample_mask(n, k)` is the mask of the first k elements of [0, ..., n-1]
after swapping position i with position i + randbelow(n - i) for i = 0..k-1;
`derive_seed(master, *labels)` is getbits(63) of the stream keyed by
``(master, labels...)``.  Independent streams come from distinct label
tuples, and `derive_seed` turns one into a recordable seed: trial i of a
game run with master seed s has seed derive_seed(s, "trial", i), and its
plant and algorithm draw from seeds derived from that with the labels
"plant" and "alg".  The scheme is stable across platforms and Python
versions.

Every draw reads through one reader of k-bit words, `_words`, which returns
a call's words as a list and keeps the stream's state on the stream between
calls; a single draw is one call, with no generator.  It refills several
blocks at a time and never more than its remaining words must read.  A call
for 64 or more words of under 64 bits cuts each refill into its words in
bulk, with no Python step per word: the m whole words it will read come off
the pool as one integer, are spread into byte-aligned slots (the power of
two above k, at least 8 bits) by log2(m) mask-and-shift steps, and are read
back through `to_bytes` and an `array` as a list, which extends the call's
list.  Single draws and wider words are cut off the pool one word at a
time.  Every count argument is an int, checked by `check_count`, and so is
every seed.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from hashlib import sha256

from .errors import ParameterError
from .sets import Subset, check_count, is_int, validate_ground_size

_PREFIX = b"ratiolab|"
# Most blocks one refill hashes.  A bulk cut costs a few big-int operations
# per batch, so its pool is large; a word-at-a-time cut shifts the pool once
# per word, so its pool stays small.
_BULK_BLOCKS = 64
_WORD_BLOCKS = 8
# Fewest words a bulk cut takes.  Its fixed cost, about forty big-int
# operations and an array, is more than the word-at-a-time loop spends on
# fewer than 32 to 48 words.
_MIN_BATCH = 64
# Masks in each list of `nonempty_mask_lists`: one brute-force block, and
# random search's chunk.
_EACH = 4096
# An array typecode for each slot width in bits.
_TYPECODES = {array(code).itemsize * 8: code for code in "BHILQ"}
_SWAP = sys.byteorder == "little"


def _slot(k: int) -> int:
    """The bits of a k-bit word's slot in a bulk cut: the power of two above k, at least 8."""
    return 1 << max(k.bit_length(), 3)


@cache
def _spread_plan(k: int, size: int) -> tuple[list[tuple[int, int]], int]:
    """The steps that spread `size` packed k-bit words into slots, as (mask, shift) pairs, and a 1 in each slot.

    `size` is a power of two.  The steps run from one field of `size` slots
    down to single slots: each field keeps its lower half of words where
    they are (the mask) and moves its upper half up by half * (slot - k)
    bits, to the bottom of its upper half.  Fewer words than `size` spread
    the same way: they are the low words of `size`, the rest zero.  The
    draws ask for at most a few hundred plans: 6 <= k < 64 and
    64 <= size <= 2048.
    """
    slot = _slot(k)
    steps, group = [], size
    while group > 1:
        half = group >> 1
        field = ((1 << half * k) - 1).to_bytes(group * slot >> 3, "big")
        steps.append((int.from_bytes(field * (size // group), "big"), half * (slot - k)))
        group = half
    return steps, int.from_bytes((1).to_bytes(slot >> 3, "big") * size, "big")


def _cut(x: int, k: int, m: int, bound: int, offset: int) -> tuple[list[int], bool]:
    """The m k-bit words packed in x, the first on top, cut just before the first word >= bound.

    Returns the words before it, each plus offset, as a list, and whether a
    word >= bound ended them.  k < 64 and bound + offset <= 2^k, so a word
    plus offset, and plus 2^k - bound - offset after that, stays below
    2^(k+1), within its slot: a word is >= bound exactly when the second
    sum carries into bit k, and the first such word holds the top carry.
    """
    size = 1 << (m - 1).bit_length()
    steps, ones = _spread_plan(k, size)
    for mask, shift in steps:
        low = x & mask
        x = low | (x ^ low) << shift
    slot = _slot(k)
    ones >>= (size - m) * slot
    x += offset * ones
    kept = m
    over = (x + ((1 << k) - bound - offset) * ones) & ones << k
    if over:
        kept = (m * slot - over.bit_length()) // slot
        x >>= (m - kept) * slot
    words = array(_TYPECODES[slot], x.to_bytes(kept * slot >> 3, "big"))
    if _SWAP:
        words.byteswap()
    return words.tolist(), kept < m


class SeededStream:
    """Counter-mode deterministic bit source keyed by a seed and labels.

    The stream's state is the unread bits of its last blocks (`_pool`, the
    low `_pool_bits` bits) and the index of its next block (`_counter`).
    Every draw reads through one word reader, `_words`, which keeps that
    state on the stream between calls.
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
        return self._words(k, 1 << k, 0, 1)[0]

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (exactly uniform)."""
        check_count(bound, 1, "bound")
        return self._words(bound.bit_length(), bound, 0, 1)[0]

    def sample_mask(self, n: int, k: int) -> int:
        """Mask of a uniform cardinality-k subset of {0..n-1} (partial Fisher-Yates)."""
        if not (is_int(n) and is_int(k) and 0 <= k <= n):
            raise ParameterError(f"cannot sample {k!r} elements from a ground set of size {n!r}")
        pool = list(range(n))
        mask = 0
        for i in range(k):
            j = i + self._words((n - i).bit_length(), n - i, 0, 1)[0]
            pool[i], pool[j] = pool[j], pool[i]
            mask |= 1 << pool[i]
        return mask

    def nonempty_mask(self, n: int) -> int:
        """Mask of a uniform nonempty subset of {0..n-1}, 1 + randbelow(2^n - 1)."""
        check_count(n, 1, "ground size")
        return self._words(n, (1 << n) - 1, 1, 1)[0]

    def nonempty_mask_lists(self, n: int, count: int):
        """An iterator over `count` nonempty masks as lists of _EACH, the last one shorter.

        The lists hold, in turn, exactly the masks of `count` calls of
        `nonempty_mask`, and each is drawn when it is asked for, so the
        stream stands right after the last mask handed on.  The arguments
        are checked here, before the first draw.
        """
        check_count(n, 1, "ground size")
        check_count(count, 0, "draw count")
        return (self._words(n, (1 << n) - 1, 1, min(_EACH, count - done)) for done in range(0, count, _EACH))

    def _words(self, k: int, bound: int, offset: int, count: int) -> list[int]:
        """The next `count` k-bit words below `bound`, each plus `offset`, as a list.

        bound + offset <= 2^k.  The state is read into locals and written
        back to the stream before returning.  The pool is masked only at
        refills: words are read off the top of the unread bits and the read
        bits stay above them until then.  A draw of at least _MIN_BATCH words
        of under 64 bits refills up to _BULK_BLOCKS blocks and cuts the whole
        unread words with one `_cut` per batch: as many as the pool holds,
        the count left and the expected run of words below `bound` allow,
        ended just before a word >= bound.  Every other draw refills up to
        _WORD_BLOCKS blocks, and the words a batch cannot take are cut one at
        a time until the pool runs short.
        """
        key, word_mask = self._key, (1 << k) - 1
        pool, bits, counter = self._pool, self._pool_bits, self._counter
        bulk = count >= _MIN_BATCH and _slot(k) in _TYPECODES
        most = _WORD_BLOCKS
        if bulk:
            # a batch is no longer than the expected run of words below bound
            most, run = _BULK_BLOCKS, (1 << k) // ((1 << k) - bound or 1)
        words = []
        while count:
            while bits < k:
                blocks = min(most, (k * count - bits + 255) >> 8)
                fresh = b"".join([sha256(key + j.to_bytes(8, "big")).digest()
                                  for j in range(counter, counter + blocks)])
                pool = (pool & ((1 << bits) - 1)) << (blocks << 8) | int.from_bytes(fresh, "big")
                counter += blocks
                bits += blocks << 8
            if bulk and (m := min(bits // k, count, run)) >= _MIN_BATCH:
                batch, ended = _cut(pool >> (bits - m * k) & ((1 << m * k) - 1), k, m, bound, offset)
                words += batch
                count -= len(batch)
                bits -= k * (len(batch) + ended)
                continue
            while count and bits >= k:
                bits -= k
                word = pool >> bits & word_mask
                if word < bound:
                    count -= 1
                    words.append(word + offset)
        self._pool, self._pool_bits, self._counter = pool & ((1 << bits) - 1), bits, counter
        return words


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
