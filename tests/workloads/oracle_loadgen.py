"""Test-only oracle: the per-candidate load generator, kept verbatim.

This is the ``LoadGenerator`` that ``repro.workloads.loadgen`` shipped
before the generator planned its next accepted arrival itself: every
candidate of the dominating homogeneous process is its own kernel event,
and thinning decides at that event whether to submit.  It spends one
heap entry per *candidate* (rejected ones included) but is obviously
right, so the differential tests in this package require the shipped
generator to submit the same queries at the same ``float.hex`` times.
It is never imported by ``src/``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.sim import Environment, Event, RngRegistry
from repro.sim.events import Callback
from repro.workloads.loadgen import Query
from repro.workloads.traces import Trace

__all__ = ["LoadGenerator"]


class LoadGenerator:
    """Drives ``submit`` with Poisson arrivals following ``trace``."""

    def __init__(
        self,
        env: Environment,
        service: str,
        trace: Trace,
        submit: Callable[[Query], None],
        rng: RngRegistry,
    ):
        self.env = env
        self.service = service
        self.trace = trace
        self.submit = submit
        self._rng = rng.stream(f"arrivals/{service}")
        self._ids = itertools.count()
        self.generated = 0
        self._next: Optional[Event] = None
        rate_max = trace.peak_rate
        if rate_max > 0:
            self._rate_max = rate_max
            self._mean_gap = 1.0 / rate_max
            self._exponential = self._rng.exponential
            self._uniform = self._rng.uniform
            self._trace_rate = trace.rate
            self._next_id = self._ids.__next__
            self._next = Callback(env, float(self._exponential(self._mean_gap)), self._tick)

    def _tick(self) -> None:
        # thinning: accept with probability rate(t) / rate_max
        env = self.env
        if self._uniform() * self._rate_max <= self._trace_rate(env.now):
            q = Query(qid=self._next_id(), service=self.service, t_submit=env.now)
            self.generated += 1
            self.submit(q)
        if self._next is not None:  # stop() during the submit cascade clears it
            self._next = Callback(env, float(self._exponential(self._mean_gap)), self._tick)

    def stop(self) -> None:
        """Halt arrival generation (end of experiment)."""
        ev, self._next = self._next, None
        if ev is not None and not ev.processed:
            ev.cancel()
