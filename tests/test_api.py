"""The package's public surface: every exported name exists, once."""

import ratiolab


def test_all_names_resolve_without_duplicates():
    assert len(ratiolab.__all__) == len(set(ratiolab.__all__))
    missing = [name for name in ratiolab.__all__ if not hasattr(ratiolab, name)]
    assert missing == []
