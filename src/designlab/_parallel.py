"""Process-pool helper and the default worker count of the CLI.

Lattice enumeration runs in one process and does not use ``parallel_map``;
the CLI accepts ``--workers`` and passes the value along, where it changes
nothing.  Workers receive picklable argument tuples and top-level functions
only, so the outcome is identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def parallel_map(fn, args_list, workers: int):
    """Map fn over args_list with a fork pool; sequential when pointless."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(args_list))) as pool:
        return pool.map(fn, args_list)
