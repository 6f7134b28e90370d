"""Process-pool helper.  No designlab code calls ``parallel_map``: lattice
enumeration runs in one process, vectorized in numpy.  The module stays,
loaded by ``cli``, because ``bench/run.py`` and ``bench/spans.py`` read it.
Workers receive picklable argument tuples and top-level functions only, so
the outcome is identical for any worker count.
"""

from __future__ import annotations


def parallel_map(fn, args_list, workers: int):
    """Map fn over args_list with a fork pool; sequential when pointless."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(args_list))) as pool:
        return pool.map(fn, args_list)
