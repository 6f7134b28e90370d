"""Grow-once caches: per key, the value built at the largest size asked.

A call at a size the held value covers is served from it without a build
(a hit): a call at exactly the held size gets the held object itself, and
a smaller one what ``serve`` cuts from it.  A call at a larger size builds
at exactly that size and holds the result in place of the smaller one (a
miss); a build that raises leaves what was held.  Callers share what is
held, so every held value is immutable.  At most ``MAXSIZE`` keys are
held, the least recently used dropped first.  Held this way: the vector
tables of ``lattices`` (a read-only map of ``Shell``s, per lattice),
the eta-power coefficient tuples of ``modforms`` (per exponent, read also
as the tau table) and the witness traces of ``voa`` (per charge and
degree).
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict, namedtuple

MAXSIZE = 64

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def grow_once(split, serve):
    """Decorator for ``build(*args)``.  ``split(*args)`` gives the call's
    (key, size), and ``serve(held, size)`` the answer at ``size`` from a
    value built at a larger size: it must equal what ``build`` gives at
    ``size``.  Like ``functools.lru_cache``, the wrapper has
    ``cache_info()``, ``cache_clear()`` and ``__wrapped__``."""

    def decorate(build):
        held: OrderedDict = OrderedDict()       # key -> (size, value)
        counts = [0, 0]                         # hits, misses
        lock = threading.Lock()

        @functools.wraps(build)
        def cached(*args):
            key, size = split(*args)
            with lock:
                entry = held.get(key)
                hit = entry is not None and entry[0] >= size
                counts[not hit] += 1
                if hit:
                    held.move_to_end(key)
            if hit:
                return entry[1] if entry[0] == size else serve(entry[1], size)
            value = build(*args)
            with lock:
                entry = held.get(key)
                if entry is None or entry[0] < size:
                    held[key] = (size, value)
                held.move_to_end(key)
                if len(held) > MAXSIZE:
                    held.popitem(last=False)
            return value

        def cache_info() -> CacheInfo:
            with lock:
                return CacheInfo(counts[0], counts[1], MAXSIZE, len(held))

        def cache_clear() -> None:
            with lock:
                held.clear()
                counts[:] = [0, 0]

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached

    return decorate
