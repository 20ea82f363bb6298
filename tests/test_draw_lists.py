"""Masks drawn as lists: `SeededStream.nonempty_mask_lists`.

The lists must hand on exactly the masks of as many `nonempty_mask` calls
and leave the stream where those calls would.
"""

from itertools import islice

import pytest

from ratiolab.errors import ParameterError
from ratiolab.sampling import SeededStream
from ratiolab.sets import BLOCK


def _singles(stream, n, count):
    return [stream.nonempty_mask(n) for _ in range(count)]


def _after(stream, n):
    """The stream's next draws of each kind: equal for two streams at one position."""
    return stream.getbits(13), stream.sample_mask(n, n // 2), stream.nonempty_mask(n), stream.getbits(300)


@pytest.mark.parametrize("n", [1, 5, 30, 63, 64, 100])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 700, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 700])
def test_lists_are_single_draws_cut_to_size(n, count):
    lists, single = SeededStream(21, "lists", n), SeededStream(21, "lists", n)
    drawn = list(lists.nonempty_mask_lists(n, count))
    assert [len(masks) for masks in drawn] == [min(BLOCK, count - done) for done in range(0, count, BLOCK)]
    assert [mask for masks in drawn for mask in masks] == _singles(single, n, count)
    assert vars(lists) == vars(single)
    assert _after(lists, n) == _after(single, n)


@pytest.mark.parametrize("n", [30, 100])
def test_each_list_is_drawn_when_asked_for(n):
    # after two lists of a longer draw the stream stands right after their masks
    lists, single = SeededStream(22, "lazy", n), SeededStream(22, "lazy", n)
    handed = list(islice(lists.nonempty_mask_lists(n, 3 * BLOCK), 2))
    assert [mask for masks in handed for mask in masks] == _singles(single, n, 2 * BLOCK)
    assert _after(lists, n) == _after(single, n)


@pytest.mark.parametrize("taken", [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 700])
def test_masks_used_inside_a_list_leave_the_stream_after_that_list(taken):
    # lists are drawn whole: a caller that stops inside a list leaves the
    # stream after that list's last mask, not after the last mask it used
    n = 30
    lists, single = SeededStream(24, "inside", n), SeededStream(24, "inside", n)
    masks = (mask for listed in lists.nonempty_mask_lists(n, 3 * BLOCK) for mask in listed)
    drawn = _singles(single, n, BLOCK * -(-taken // BLOCK))
    assert list(islice(masks, taken)) == drawn[:taken]
    assert _after(lists, n) == _after(single, n)


@pytest.mark.parametrize("call", [
    lambda s: s.nonempty_mask_lists(0, 3),
    lambda s: s.nonempty_mask_lists(3, -1),
    lambda s: s.nonempty_mask_lists(3, 3.0),
    lambda s: s.nonempty_mask_lists(3, True),
    lambda s: s.nonempty_mask_lists(True, 3),
])
def test_list_arguments_are_checked_before_any_draw(call):
    stream = SeededStream(23, "checks")
    with pytest.raises(ParameterError):
        call(stream)
    assert stream.getbits(256) == SeededStream(23, "checks").getbits(256)
