"""The reference difference scan, and the game's scan against it.

`reference.first_difference` settles a transcript on which the two lookups
agree with one list `==` and falls back to an identity-first scan; the
per-entry scan below compares every entry with `!=`, in order, which is
obviously correct and slow.  The game scores a decreasing trial from its
masks instead (`game._score_decreasing`), and on drawn transcripts of the
bundled families its first index must be the reference's.
"""

from fractions import Fraction

import pytest
from reference import batch_lookup, first_difference

from ratiolab.game import _score_decreasing
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.oracles import QueryTranscript, make_oracles, query_batch
from ratiolab.sampling import SeededStream
from ratiolab.sets import Subset


def ref_first_difference(transcript, g_a, g_b):
    for idx, mask in enumerate(transcript.entries):
        if g_a([mask])[0] != g_b([mask])[0]:
            return idx
    return None


def _transcript(masks):
    transcript = QueryTranscript()
    transcript.entries.extend(masks)
    return transcript


def _table(values):
    """A batch lookup reading values by mask from a dict."""
    return lambda masks: [values[mask] for mask in masks]


MASKS = [5, 9, 3, 12, 5, 7]


def _lookups(diff_at):
    """Two lookups over MASKS: equal, identical values except where they differ (mask MASKS[i] for i in diff_at)."""
    a = {mask: Fraction(mask, 7) for mask in MASKS}
    b = dict(a)
    for i in diff_at:
        b[MASKS[i]] = a[MASKS[i]] + 1
    return _table(a), _table(b)


@pytest.mark.parametrize("diff_at, want", [((), None), ((0,), 0), ((5,), 5), ((3, 5), 3), ((2,), 2)])
def test_scan_matches_the_reference(diff_at, want):
    # no difference; a difference at the first entry, at the last, at two
    # entries and in the middle: the first differing index, as the reference
    transcript = _transcript(MASKS)
    g_a, g_b = _lookups(diff_at)
    assert first_difference(transcript, g_a, g_b) == ref_first_difference(transcript, g_a, g_b) == want


def test_equal_values_that_are_not_identical_are_no_difference():
    # a fresh Fraction at every entry of one side: equal, never identical
    transcript = _transcript(MASKS)
    g_a = _table({mask: Fraction(mask, 7) for mask in MASKS})

    def g_b(masks):
        return [Fraction(mask, 7) for mask in masks]

    assert all(x is not y for x, y in zip(g_a(MASKS), g_b(MASKS)))
    assert first_difference(transcript, g_a, g_b) is ref_first_difference(transcript, g_a, g_b) is None


def test_empty_transcript_has_no_difference():
    g_a, g_b = _lookups((0,))
    assert first_difference(_transcript([]), g_a, g_b) is None


@pytest.mark.parametrize("seed", range(4))
def test_scan_on_drawn_transcripts_of_both_families(seed):
    # drawn transcripts on the bundled families' lookups: the decreasing
    # planted g against f, and the increasing g against a planted copy whose
    # plant is queried at a drawn position or not at all
    n = 12
    stream = SeededStream(seed, "scan", n)
    masks = [stream.nonempty_mask(n) for _ in range(300)]
    dec = DecreasingInstance(n, 4, 1, Fraction(1, 2)).with_plant(Subset(stream.sample_mask(n, 4), n))
    pairs = [(batch_lookup(dec, "f"), batch_lookup(dec, "g"))]
    inc = IncreasingInstance(n, 100, Fraction(1, 3))
    half = [mask for mask in masks if mask.bit_count() == n // 2]
    unqueried = next(mask for mask in range(1 << n) if mask.bit_count() == n // 2 and mask not in masks)
    for plant in (half[seed % len(half)], unqueried):
        pairs.append((batch_lookup(inc, "g"), batch_lookup(inc.with_plant(Subset(plant, n)), "g")))
    transcript = _transcript(masks)
    found = [first_difference(transcript, g_a, g_b) for g_a, g_b in pairs]
    assert found == [ref_first_difference(transcript, g_a, g_b) for g_a, g_b in pairs]
    assert found[1] == masks.index(half[seed % len(half)]) and found[2] is None
    # the game's scan, on the entries alone and on chunks the table recorded
    recorded = QueryTranscript()
    f, g = make_oracles(dec, recorded)
    for start in range(0, len(masks), 64):
        query_batch(masks[start:start + 64], n, f, g)
    assert recorded.entries == masks and len(recorded.runs) == 5
    assert _score_decreasing(dec, transcript)[0] == _score_decreasing(dec, recorded)[0] == found[0]
