"""Deterministic randomness: replayability, labeling, and uniformity checks."""

import copy
import hashlib
import importlib.util
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from reference import ReferenceStream, reference_derive_seed

import ratiolab
from ratiolab.errors import ParameterError
from ratiolab.game import run_game_decreasing
from ratiolab.instances import DecreasingInstance
from ratiolab.optimize import local_search, make_algorithm, random_search
from ratiolab.oracles import make_oracles
from ratiolab import sampling
from ratiolab.sampling import SeededStream, derive_seed, random_k_subset
from ratiolab.sets import BLOCK, Subset


def test_stream_matches_hash_construction():
    # Block j of the stream keyed by (seed, labels...) is the SHA-256 digest of
    # b"ratiolab|" + "seed|label0|...".encode() + j.to_bytes(8, "big").
    stream = SeededStream(7, "alpha", 3)
    block0 = hashlib.sha256(b"ratiolab|7|alpha|3" + (0).to_bytes(8, "big")).digest()
    assert stream.getbits(256) == int.from_bytes(block0, "big")
    block1 = hashlib.sha256(b"ratiolab|7|alpha|3" + (1).to_bytes(8, "big")).digest()
    assert stream.getbits(256) == int.from_bytes(block1, "big")


needs_builtin_sha256 = pytest.mark.skipif(
    importlib.util.find_spec("_sha256") is None,
    reason="this interpreter has no built-in _sha256 (3.12 on), so the stream hashes through hashlib",
)


@needs_builtin_sha256
def test_the_stream_hashes_with_the_builtin_sha256():
    # The provider is taken by name at run time, so the static stdlib-only
    # check of tests/test_api.py does not see it; this checks it instead.
    import _sha256

    assert sampling.sha256 is _sha256.sha256
    assert sampling.sha256.__module__ in sys.stdlib_module_names


@needs_builtin_sha256
def test_drawing_loads_neither_hashlib_nor_openssl():
    # A fresh interpreter without site imports the package, its CLI and a
    # draw of each kind from the src/ this package was imported from.  -E
    # drops PYTHONDONTWRITEBYTECODE, so -B keeps it from writing bytecode there.
    src = Path(ratiolab.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import ratiolab, ratiolab.cli\n"
        "from ratiolab.sampling import SeededStream, random_k_subset\n"
        "assert len(next(SeededStream(5, 'rss').nonempty_mask_lists(100, 100))) == 100\n"
        "random_k_subset(30, 15, 5)\n"
        "print(sorted(name for name in ('hashlib', '_hashlib') if name in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-B", "-S", "-E", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("label", ["x", "y" * 60, "z" * 130])
def test_blocks_hash_the_key_then_the_counter_across_refills(label):
    # Keys of 13, 72 and 142 bytes fill under one, over one and over two
    # 64-byte SHA-256 input blocks.  A 2,600-bit word crosses the refill of
    # 8 blocks, and 600 masks of 30 bits the refill of 64, to 71 blocks.
    key = b"ratiolab|21|" + label.encode()
    blocks = b"".join(hashlib.sha256(key + j.to_bytes(8, "big")).digest() for j in range(11))
    assert SeededStream(21, label).getbits(2600) == int.from_bytes(blocks, "big") >> 216
    reference = ReferenceStream(21, label)
    expected = [reference.nonempty_mask(30) for _ in range(600)]
    assert _listed(SeededStream(21, label), 30, 600) == expected
    assert reference.block == 71


def test_stream_replayable():
    a = SeededStream(42, "x")
    b = SeededStream(42, "x")
    assert [a.getbits(13) for _ in range(50)] == [b.getbits(13) for _ in range(50)]


def test_distinct_labels_distinct_streams():
    a = SeededStream(42, "x")
    b = SeededStream(42, "y")
    c = SeededStream(43, "x")
    va, vb, vc = a.getbits(64), b.getbits(64), c.getbits(64)
    assert len({va, vb, vc}) == 3


def test_getbits_boundaries():
    s = SeededStream(0)
    assert s.getbits(0) == 0
    assert 0 <= s.getbits(1) <= 1
    big = s.getbits(1000)
    assert 0 <= big < 1 << 1000
    with pytest.raises(ParameterError):
        s.getbits(-1)


def test_randbelow_range_and_errors():
    s = SeededStream(1)
    for _ in range(200):
        assert 0 <= s.randbelow(7) < 7
    assert SeededStream(9).randbelow(1) == 0
    with pytest.raises(ParameterError):
        s.randbelow(0)
    with pytest.raises(ParameterError):
        s.randbelow(-2)


def test_randbelow_uniformity_chi_square():
    # 10 bins, 10000 draws.  Chi-square with 9 degrees of freedom stays below
    # 27.88 (the 0.1% tail) for a healthy generator.
    s = SeededStream(2024, "chi")
    counts = Counter(s.randbelow(10) for _ in range(10000))
    expected = 1000.0
    chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(10))
    assert chi2 < 27.88


def test_sample_mask_cardinality_and_bounds():
    s = SeededStream(3)
    for k in range(0, 13):
        mask = s.sample_mask(12, k)
        assert mask.bit_count() == k
        assert 0 <= mask < 1 << 12
    with pytest.raises(ParameterError):
        s.sample_mask(4, 5)
    with pytest.raises(ParameterError):
        s.sample_mask(4, -1)


def test_nonempty_mask_never_empty():
    s = SeededStream(4)
    for _ in range(300):
        mask = s.nonempty_mask(5)
        assert 1 <= mask < 1 << 5


@pytest.mark.parametrize("n", [1, 2, 3, 30, 100, 128])
def test_nonempty_mask_is_one_plus_randbelow(n):
    # The one-call draw against its reference on a twin stream, with other
    # draws interleaved so that the pools are shared mid-word; at n = 1 half
    # of all words are the rejected all-ones word.
    fast, slow = SeededStream(11, "draw", n), SeededStream(11, "draw", n)
    for step in range(400):
        assert fast.nonempty_mask(n) == 1 + slow.randbelow((1 << n) - 1), step
        if step % 7 == 3:
            assert fast.getbits(13) == slow.getbits(13)
        if step % 11 == 5:
            assert fast.sample_mask(n, n // 2) == slow.sample_mask(n, n // 2)
    assert fast.getbits(256) == slow.getbits(256)


def test_nonempty_mask_needs_a_nonempty_ground_set():
    with pytest.raises(ParameterError):
        SeededStream(0).nonempty_mask(0)


DRAW_NS = [1, 2, 3, 7, 8, 9, 16, 30, 31, 32, 63, 64, 65, 100, 127, 128]


def _twin_draws(stream, n, count):
    return [stream.nonempty_mask(n) for _ in range(count)]


def _listed(stream, n, count):
    """`count` masks drawn as `nonempty_mask_lists`, flattened."""
    return [mask for masks in stream.nonempty_mask_lists(n, count) for mask in masks]


@pytest.mark.parametrize("n", DRAW_NS)
@pytest.mark.parametrize("count", [0, 1, 2, 40, 3000])
def test_mask_lists_are_nonempty_mask_bit_for_bit(n, count):
    # Three twin streams, each 5 bits in so that words straddle block
    # boundaries: the lists, `count` single draws and `count` reference draws.  3,000 draws cross
    # several refills at every n (at n = 128 one refill feeds 16 draws).
    batch, single, slow = (SeededStream(12, "batch", n) for _ in range(3))
    for stream in (batch, single, slow):
        stream.getbits(5)
    drawn = _listed(batch, n, count)
    assert drawn == _twin_draws(single, n, count)
    assert drawn == [1 + slow.randbelow((1 << n) - 1) for _ in range(count)]
    assert vars(batch) == vars(single) == vars(slow)
    after = [(s.getbits(13), s.sample_mask(n, n // 2), s.nonempty_mask(n), s.getbits(300))
             for s in (batch, single, slow)]
    assert after[0] == after[1] == after[2]


@pytest.mark.parametrize("n", DRAW_NS)
@pytest.mark.parametrize("lists", [0, 1, 2])
def test_lists_taken_in_part_leave_the_stream_after_their_masks(n, lists):
    # A draw whose later lists are never asked for stops after the lists
    # handed on: the bits its refills left in the pool stay there, so the
    # stream reads on from the first bit after the last mask handed on.
    batch, single = SeededStream(13, "partial", n), SeededStream(13, "partial", n)
    handed = list(islice(batch.nonempty_mask_lists(n, 2 * BLOCK + 50), lists))
    assert [mask for masks in handed for mask in masks] == _twin_draws(single, n, lists * BLOCK)
    after = [(s.getbits(13), s.sample_mask(n, n // 2), s.nonempty_mask(n), s.getbits(1000))
             for s in (batch, single)]
    assert after[0] == after[1]


def test_draws_hash_no_more_blocks_than_they_read(monkeypatch):
    # A refill hashes only the blocks the remaining draws must read: one
    # draw, a derived seed and a small search's draws from a fresh stream hash
    # one block each at n <= 128; an empty batch hashes none.
    hashed = []

    class CountingSha256:
        # a block is hashed when its digest is taken, whatever states it was copied from
        def __init__(self, state):
            self.state = state

        def copy(self):
            return CountingSha256(self.state.copy())

        def update(self, data):
            self.state.update(data)

        def digest(self):
            hashed.append(self.state)
            return self.state.digest()

    monkeypatch.setattr("ratiolab.sampling.sha256", lambda data: CountingSha256(hashlib.sha256(data)))
    for n in DRAW_NS:
        hashed.clear()
        SeededStream(14, "one", n).nonempty_mask(n)
        assert len(hashed) == 1, n
        hashed.clear()
        assert list(SeededStream(14, "none", n).nonempty_mask_lists(n, 0)) == []
        assert hashed == []
    hashed.clear()
    derive_seed(14, "trial", 0)
    assert len(hashed) == 1
    hashed.clear()
    list(SeededStream(14, "small").nonempty_mask_lists(30, 8))
    assert len(hashed) == 1
    # 100 masks of 30 bits read 3,000 bits: one refill of 12 blocks
    hashed.clear()
    list(SeededStream(14, "batch").nonempty_mask_lists(30, 100))
    assert len(hashed) == 12


def test_every_count_up_to_past_the_first_bulk_cut(monkeypatch):
    # A draw of 546 masks or more at n = 30 hashes 64 blocks at its first
    # refill and cuts all 546 whole words of them at once.  Every count up to
    # past that cut gives the masks of as many single draws and leaves the
    # stream where they do.
    cuts = []

    def spied_cut(x, k, m, bound, offset):
        cuts.append(m)
        return real_cut(x, k, m, bound, offset)

    real_cut = sampling._cut
    monkeypatch.setattr(sampling, "_cut", spied_cut)
    single, snapshots, expected = SeededStream(17, "every", 30), [], []
    for _ in range(560):
        snapshots.append(copy.copy(single))
        expected.append(single.nonempty_mask(30))
    for taken, at in enumerate(snapshots):
        stream = SeededStream(17, "every", 30)
        assert _listed(stream, 30, taken) == expected[:taken]
        after = [(s.getbits(7), s.nonempty_mask(30), s.getbits(300)) for s in (stream, at)]
        assert after[0] == after[1], taken
    assert max(cuts) == 16384 // 30  # no cut takes more than the first refill's whole words


def _planted_sha256(k: int, positions, blocks: int = 100):
    """A sha256 stand-in for a stream whose k-bit words at `positions` (word indices from its start) read all ones.

    Like the stream's hashing, it starts from the key, is copied per block and
    updated with the block's counter; a digest reads the counter off the end.
    """
    planted = 0
    for p in positions:
        planted |= ((1 << k) - 1) << (256 * blocks - (p + 1) * k)

    class PlantedSha256:
        def __init__(self, data):
            self.data = data

        def copy(self):
            return PlantedSha256(self.data)

        def update(self, data):
            self.data += data

        def digest(self):
            j = int.from_bytes(self.data[-8:], "big")
            word = int.from_bytes(hashlib.sha256(self.data).digest(), "big")
            if j < blocks:
                word |= planted >> (256 * (blocks - 1 - j)) & ((1 << 256) - 1)
            return word.to_bytes(32, "big")

    return PlantedSha256


@pytest.mark.parametrize("n", [16, 30, 64])
def test_an_all_ones_word_inside_a_batch_is_rejected_in_place(monkeypatch, n):
    # The all-ones word is the one rejected word of a nonempty-mask draw.
    # Planted at the first, last and a middle word of the first 64-block
    # cut, as a pair and just past the cut, each ends its batch there: the
    # batch yields the masks before it, and the stream reads on after it.
    first_cut = 16384 // n
    positions = [0, 5, 6, first_cut // 2, first_cut - 1, first_cut, first_cut + 40]
    monkeypatch.setattr("ratiolab.sampling.sha256", _planted_sha256(n, positions))
    ended = []

    def spied_cut(x, k, m, bound, offset):
        words, end = real_cut(x, k, m, bound, offset)
        ended.append(end)
        return words, end

    real_cut = sampling._cut
    monkeypatch.setattr(sampling, "_cut", spied_cut)
    batch, single = SeededStream(18, "planted", n), SeededStream(18, "planted", n)
    drawn = _listed(batch, n, 3000)
    assert drawn == _twin_draws(single, n, 3000)
    assert vars(batch) == vars(single)
    assert max(drawn) < 1 << n
    # words of 64 bits and more are cut one at a time
    assert ended.count(True) == (len(positions) if n < 64 else 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.nonempty_mask(-1),
        lambda s: s.nonempty_mask(0),
        lambda s: s.nonempty_mask(True),
        lambda s: s.nonempty_mask(2.0),
        lambda s: s.nonempty_mask_lists(0, 3),
        lambda s: s.nonempty_mask_lists(3.0, 3),
        lambda s: s.nonempty_mask_lists(3, -1),
        lambda s: s.nonempty_mask_lists(3, 2.0),
        lambda s: s.nonempty_mask_lists(3, True),
        lambda s: s.getbits(2.5),
        lambda s: s.getbits(True),
        lambda s: s.randbelow(2.0),
        lambda s: s.randbelow(True),
        lambda s: s.sample_mask(5, 2.0),
        lambda s: s.sample_mask(5.0, 2),
        lambda s: s.sample_mask(True, 1),
    ],
)
def test_count_arguments_are_ints(call):
    # Each count argument is checked by `is_int` when the method is called:
    # the list draw raises before its first `next()`, and a failed call
    # leaves the stream unread.
    stream = SeededStream(15, "counts")
    with pytest.raises(ParameterError):
        call(stream)
    assert stream.getbits(256) == SeededStream(15, "counts").getbits(256)


@pytest.mark.parametrize("seed", [True, 1.0, "1", None])
def test_seeds_are_ints(seed):
    # True and 1.0 equal the seed 1 but would key another stream; every draw
    # goes through the stream, so each seeded entry point refuses them.
    inst = DecreasingInstance(6, 3, 1, Fraction(1, 2))
    calls = [
        lambda: SeededStream(seed, "seeds"),
        lambda: derive_seed(seed),
        lambda: random_k_subset(8, 3, seed),
        lambda: random_search(*make_oracles(inst.with_plant(Subset(7, 6))), 6, 5, seed),
        lambda: local_search(*make_oracles(inst.with_plant(Subset(7, 6))), 6, 5, seed),
        lambda: run_game_decreasing(make_algorithm("random", budget=5), inst, seed, 1),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()
    assert SeededStream(-1, "seeds").getbits(64) != SeededStream(1, "seeds").getbits(64)


def test_stream_matches_the_reference_reader():
    # Every draw on one interleaved stream against the slow reader written
    # from the module docstring; after each kind of draw the next 300 bits
    # agree, so both readers stand at the same position.
    fast, slow = SeededStream(16, "reference"), ReferenceStream(16, "reference")

    def same_position():
        assert fast.getbits(300) == slow.getbits(300)

    for k in (0, 1, 63, 256, 1000, 5000):
        assert fast.getbits(k) == slow.getbits(k), k
    same_position()
    # just above a power of two, nearly half of all words are rejected
    for bound in (2, 3, 5, 9, 17, 257, (1 << 64) + 1, (1 << 200) + 1):
        assert [fast.randbelow(bound) for _ in range(30)] == [slow.randbelow(bound) for _ in range(30)], bound
        same_position()
    for n, k in ((1, 0), (1, 1), (10, 3), (30, 15), (100, 10), (128, 128)):
        assert fast.sample_mask(n, k) == slow.sample_mask(n, k), (n, k)
        same_position()
    for n in (1, 2, 30, 100, 128):
        assert [fast.nonempty_mask(n) for _ in range(5)] == [slow.nonempty_mask(n) for _ in range(5)], n
        same_position()
    for n, count in ((1, 60), (30, 3000), (100, 37), (128, 0), (7, 8)):
        assert _listed(fast, n, count) == [slow.nonempty_mask(n) for _ in range(count)], n
        same_position()
    for labels in ((), ("trial", 0), ("trial", 1, "alg")):
        assert derive_seed(16, *labels) == reference_derive_seed(16, *labels), labels


def test_derive_seed_deterministic_and_bounded():
    a = derive_seed(99, "trial", 0)
    b = derive_seed(99, "trial", 0)
    c = derive_seed(99, "trial", 1)
    assert a == b
    assert a != c
    assert 0 <= a < 1 << 63


def test_random_k_subset_contract():
    s = random_k_subset(20, 10, seed=7)
    assert isinstance(s, Subset)
    assert s.n == 20 and s.cardinality == 10
    assert random_k_subset(20, 10, seed=7) == s
    assert random_k_subset(20, 10, seed=8) != s
    with pytest.raises(ParameterError):
        random_k_subset(5, 6, seed=0)
    with pytest.raises(ParameterError):
        random_k_subset(5, -1, seed=0)


def test_random_k_subset_inclusion_frequency():
    # Each element of a 20-point ground set should land in a uniform 10-subset
    # with probability 1/2.  Over 10000 seeds the empirical frequency of any
    # fixed element stays within 0.02 of 1/2 (about 4 standard errors).
    n, k, trials = 20, 10, 10000
    hits = [0] * n
    for seed in range(trials):
        mask = random_k_subset(n, k, seed).mask
        for i in range(n):
            if mask >> i & 1:
                hits[i] += 1
    for i in range(n):
        freq = hits[i] / trials
        assert abs(freq - 0.5) < 0.02, f"element {i} frequency {freq}"
