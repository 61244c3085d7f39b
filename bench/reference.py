"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark host is shared: over a minute its speed for the same
single-threaded Python work drifts by 20% or more, so raw seconds from two
runs are not comparable. The worker times this loop before the first
operation and then between operations at least every half second, and
reports the workload's wall time divided by the loop's median time. The
loop does the kinds of work the package does (small tuples and frozensets,
hashing, sorting, a large table probed out of order) and never changes, so
the ratio moves only when the package does.
"""
from __future__ import annotations

import gc
import time


def _loop() -> int:
    acc = 0
    small: dict[tuple[int, int], frozenset[int]] = {}
    for i in range(8_000):
        key = (i % 97, i % 13)
        chips = frozenset((i, i + 1, i % 7))
        small[key] = chips
        acc += len(sorted(chips)) + hash(key) % 3
        if len(small) > 64:
            small = dict(list(small.items())[:8])
    # A memo-sized table probed in scattered order, so that the loop slows
    # with cache and memory contention as the exhaustive searches do.
    n = 20_000
    big = {frozenset((i, 7 * i + 1)): (i, i % 13) for i in range(n)}
    j = 0
    for _ in range(n):
        j = (j + 7_919) % n
        acc += big[frozenset((j, 7 * j + 1))][1]
    return acc


def time_reference() -> float:
    """Seconds one pass of the reference loop takes now."""
    gc.collect()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
