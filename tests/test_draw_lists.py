"""Masks drawn as lists: `SeededStream.nonempty_mask_lists` and the lists under `nonempty_masks`.

Both must hand on exactly the masks of as many `nonempty_mask` calls and
leave the stream where those calls would.
"""

from itertools import islice

import pytest

from ratiolab.errors import ParameterError
from ratiolab.sampling import _EACH, SeededStream


def _singles(stream, n, count):
    return [stream.nonempty_mask(n) for _ in range(count)]


def _after(stream, n):
    """The stream's next draws of each kind: equal for two streams at one position."""
    return stream.getbits(13), stream.sample_mask(n, n // 2), stream.nonempty_mask(n), stream.getbits(300)


@pytest.mark.parametrize("n", [1, 5, 30, 63, 64, 100])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 700, _EACH, _EACH + 1, 2 * _EACH + 700])
def test_lists_are_single_draws_cut_to_size(n, count):
    lists, single = SeededStream(21, "lists", n), SeededStream(21, "lists", n)
    drawn = list(lists.nonempty_mask_lists(n, count))
    assert [len(masks) for masks in drawn] == [min(_EACH, count - done) for done in range(0, count, _EACH)]
    assert [mask for masks in drawn for mask in masks] == _singles(single, n, count)
    assert vars(lists) == vars(single)
    assert _after(lists, n) == _after(single, n)


@pytest.mark.parametrize("n", [30, 100])
def test_each_list_is_drawn_when_asked_for(n):
    # after two lists of a longer draw the stream stands right after their masks
    lists, single = SeededStream(22, "lazy", n), SeededStream(22, "lazy", n)
    handed = list(islice(lists.nonempty_mask_lists(n, 3 * _EACH), 2))
    assert [mask for masks in handed for mask in masks] == _singles(single, n, 2 * _EACH)
    assert _after(lists, n) == _after(single, n)


@pytest.mark.parametrize("call", [
    lambda s: s.nonempty_mask_lists(0, 3),
    lambda s: s.nonempty_mask_lists(3, -1),
    lambda s: s.nonempty_mask_lists(3, 3.0),
    lambda s: s.nonempty_mask_lists(3, True),
    lambda s: s.nonempty_masks(3, -1),
])
def test_list_arguments_are_checked_before_any_draw(call):
    stream = SeededStream(23, "checks")
    with pytest.raises(ParameterError):
        call(stream)
    assert stream.getbits(256) == SeededStream(23, "checks").getbits(256)


@pytest.mark.parametrize("taken", [_EACH - 1, _EACH, _EACH + 1, _EACH + 700])
def test_a_batch_closed_past_its_first_list(taken):
    # nonempty_masks draws _EACH masks ahead; closed in or at the end of a
    # later list, it leaves the stream right after its last yielded mask
    n = 30
    batch, single = SeededStream(24, "closed", n), SeededStream(24, "closed", n)
    draws = batch.nonempty_masks(n, 3 * _EACH)
    assert list(islice(draws, taken)) == _singles(single, n, taken)
    draws.close()
    assert _after(batch, n) == _after(single, n)
