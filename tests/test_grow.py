"""Grow-once caches: which calls build, which are served, what they get."""

import pytest

from designlab._grow import grow_once


def counting_table(log):
    """A grow-once table of tuple(range(size)) per key that logs each build
    and each serve; a build at size 99 raises."""
    def serve(held, size):
        log.append(("serve", size))
        return held[:size]

    @grow_once(lambda key, size: (key, size), serve)
    def table(key, size):
        log.append(("build", size))
        if size == 99:
            raise ValueError("refused size")
        return tuple(range(size))
    return table


def test_an_exact_size_call_gets_the_held_object():
    log = []
    table = counting_table(log)
    held = table("k", 10)
    assert table("k", 10) is held
    assert log == [("build", 10)]
    assert table("k", 4) == held[:4] and log[-1] == ("serve", 4)
    larger = table("k", 20)
    assert larger is not held and table("k", 20) is larger
    assert log == [("build", 10), ("serve", 4), ("build", 20)]
    assert table.cache_info()[:2] == (3, 2)


def test_a_build_that_raises_leaves_the_held_value():
    log = []
    table = counting_table(log)
    held = table("k", 10)
    with pytest.raises(ValueError, match="refused size"):
        table("k", 99)
    assert table("k", 10) is held
    assert log == [("build", 10), ("build", 99)]
    # a key whose first build raised holds nothing
    with pytest.raises(ValueError):
        table("other", 99)
    assert table.cache_info()[1:] == (3, 64, 1)
