"""The machine's current speed, read off a fixed reference search.

On a virtual machine whose cores other tenants share, the same code runs
up to twice as slowly in phases that switch every few seconds (measured
on a 2-vCPU Xeon VM).  A 45-second run can fall wholly into a slow or a
fast phase, so raw seconds of whole runs spread by more than any useful
bound.  The benchmark therefore times this reference search next to every
timed part of a command and scales the part's seconds by
``NOMINAL_S / reference``: the part's seconds at the speed at which the
reference takes ``NOMINAL_S``.

The reference is a bitmask branch and bound for a minimum dominating set,
the same kind of work as the ``trd`` solver (small-int bit operations,
recursion, short loops), and it lives here, apart from the program, so
that no change to ``trd`` changes it.
"""

from __future__ import annotations

import statistics
import time

UNITS = 7
# a reading of the reference on the 2-vCPU Xeon VM the bounds were set on,
# Python 3.11, in its fast phases (its slow phases read up to 2.8 ms)
NOMINAL_S = 0.0015


def _graph(n: int, seed: int, percent: int) -> list[int]:
    x, adj = seed, [0] * n
    for j in range(n):
        for i in range(j):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 100 < percent:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_ADJ = _graph(22, 5, 18)


def _min_dominating_set(adj: list[int]) -> int:
    n = len(adj)
    full = (1 << n) - 1
    closed = [adj[v] | (1 << v) for v in range(n)]
    best = [n]

    def search(dominated: int, size: int) -> None:
        if size >= best[0]:
            return
        if dominated == full:
            best[0] = size
            return
        free = ~dominated & full
        u = (free & -free).bit_length() - 1
        candidates = closed[u]
        while candidates:
            bit = candidates & -candidates
            search(dominated | closed[bit.bit_length() - 1], size + 1)
            candidates ^= bit

    search(0, 0)
    return best[0]


def reference() -> float:
    """Median seconds of one reference unit, over ``UNITS`` units; the
    median keeps an interrupt in one unit, or the first unit's cold start,
    from moving the reading."""
    times = []
    for _ in range(UNITS):
        start = time.perf_counter()
        _min_dominating_set(_ADJ)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
