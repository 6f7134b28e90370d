"""A sequential map.  No designlab code calls ``parallel_map``: lattice
enumeration runs in one process, vectorized in numpy.  The module stays,
loaded by ``cli``, because ``bench/run.py`` and ``bench/spans.py`` read it.
"""

from __future__ import annotations


def parallel_map(fn, args_list):
    """``[fn(a) for a in args_list]``."""
    return [fn(a) for a in args_list]
