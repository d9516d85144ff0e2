"""Test-only oracle: an exact FCFS multi-server queue.

Poisson arrivals (stream ``"arr"``) are served first-come-first-served by
``servers`` identical servers.  Under FCFS the k-th arrival is the k-th to
start, so it takes whichever server frees first: its start is
``max(arrival, earliest free time)``.  That recursion is the whole queue;
no event loop is needed.  The k-th ``service(rng)`` draw belongs to the
k-th arrival, exactly as in an event-driven simulation that draws the
service time when a customer starts, so both make the same draws and
produce the same floats.  It is never imported by ``src/``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from repro.sim.rng import RngRegistry

__all__ = ["fcfs_customers"]


def fcfs_customers(
    lam: float,
    servers: int,
    until: float,
    seed: int,
    service: Callable[[RngRegistry], float],
) -> List[Tuple[float, float, float]]:
    """``(arrival, start, end)`` of every customer arriving before ``until``.

    Callers keep the horizon of a run stopped at ``until``: waits of the
    customers with ``start < until``, sojourns of those with ``end < until``.
    """
    rng = RngRegistry(seed=seed)
    free = [0.0] * servers  # server free times, a heap
    customers = []
    t = 0.0
    while True:
        t += rng.exponential("arr", 1.0 / lam)
        if t >= until:
            return customers
        start = max(t, free[0])
        end = start + service(rng)
        heapq.heapreplace(free, end)
        customers.append((t, start, end))
