"""Open-loop query generation.

Queries arrive according to a non-homogeneous Poisson process whose rate
follows a :class:`~repro.workloads.traces.Trace` (the paper's M/M/N
assumption: exponential inter-arrivals).  Generation is *open-loop*: slow
responses do not throttle arrivals, which is what makes overload visible
as queue growth — the effect the discriminant function exists to predict.

Thinning (Lewis & Shedler) against the trace's ``peak_rate`` keeps the
non-homogeneous process exact without integrating the rate function.
Candidates come from the dominating homogeneous process and are accepted
with probability ``rate(t) / peak_rate``.  Every trace is a pure function
of ``t`` and the generator owns its stream, so it decides candidates
ahead of the clock: after each accepted arrival it draws on to the next
accepted one and puts only that on the heap.  Rejected candidates never
become kernel events.  It looks no further than the horizon of the
running ``env.run``, so it draws and asks the trace exactly what one
event per candidate would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim import Environment, Event, RngRegistry
from repro.sim.events import Callback
from repro.workloads.traces import Trace

__all__ = ["LoadGenerator", "Query", "REJECTION_CAP"]

#: consecutive rejected candidates one planning pass draws before it hands
#: back to the kernel with a continuation event, so a trace that stays at
#: zero (a brownout's base) costs one event per cap, not an endless loop
REJECTION_CAP = 64


@dataclass(slots=True)
class Query:
    """One user request travelling through a deployment."""

    qid: int
    service: str
    t_submit: float
    #: filled in by whichever platform completes the query
    t_complete: Optional[float] = None
    #: per-stage latency contributions, seconds (platforms fill these in)
    breakdown: dict = field(default_factory=dict)
    #: which platform served it ("iaas" / "serverless"), for the timelines
    served_by: Optional[str] = None
    #: True for Amoeba's shadow/canary duplicates (excluded from user QoS)
    canary: bool = False
    #: crash-retry resubmissions consumed so far (fault injection)
    attempts: int = 0
    #: True once the retry budget is spent and the query is dropped
    failed: bool = False
    #: True when a spot reclamation killed this query mid-execution; the
    #: serving process sees the flag when the (ghost) machine work
    #: finishes and skips the terminal accounting already done at kill
    preempt_killed: bool = False
    #: absolute end-to-end deadline propagated down a call graph; None
    #: means no budget is attached and admission falls back to the
    #: service's own QoS target (the flat, pre-graph behaviour)
    t_deadline: Optional[float] = None
    #: critical-path time reserved for work *downstream* of this node,
    #: subtracted from the remaining budget before admission looks at it
    reserved: float = 0.0
    #: fired exactly once when the query reaches a terminal state
    #: (completion or any drop); the call-graph orchestrator's join hook
    on_done: Optional[Callable[["Query"], None]] = None

    @property
    def latency(self) -> float:
        """End-to-end latency; raises if the query has not completed."""
        if self.t_complete is None:
            raise RuntimeError(f"query {self.qid} of {self.service!r} has not completed")
        return self.t_complete - self.t_submit

    def local_budget(self, now: float) -> Optional[float]:
        """Time this node may spend before the downstream reservation is at risk.

        ``deadline - now - reserved``; None when no deadline is attached.
        May be <= 0 for a query that is already dead on arrival.
        """
        if self.t_deadline is None:
            return None
        return self.t_deadline - now - self.reserved

    def notify_done(self) -> None:
        """Fire the terminal hook (at most once, even on double-settle)."""
        cb = self.on_done
        if cb is not None:
            self.on_done = None
            cb(self)


class LoadGenerator:
    """Drives a submit callback with Poisson arrivals following a trace.

    Parameters
    ----------
    env:
        Simulation environment.
    service:
        Service name stamped on the queries.
    trace:
        Arrival-rate shape.
    submit:
        Called with each new :class:`Query`; expected to route it into a
        deployment (fire-and-forget — completion is the platform's job).
    rng:
        Randomness registry.
    stream:
        Name of the stream the generator owns; ``"arrivals/<service>"``
        by default.  A second generator for the same service needs its
        own name.
    """

    def __init__(
        self,
        env: Environment,
        service: str,
        trace: Trace,
        submit: Callable[[Query], None],
        rng: RngRegistry,
        stream: Optional[str] = None,
    ):
        self.env = env
        self.service = service
        self.trace = trace
        self.submit = submit
        gen = rng.owned_stream(stream if stream is not None else f"arrivals/{service}")
        self._ids = itertools.count()
        self.generated = 0
        # the pending accepted arrival, candidate or continuation, so
        # stop() can cancel it outright (no stale timers after shutdown)
        self._next: Optional[Event] = None
        rate_max = trace.peak_rate
        if rate_max > 0:
            self._rate_max = rate_max
            self._mean_gap = 1.0 / rate_max
            self._exponential = gen.exponential
            # random() is uniform() on [0, 1) at a fraction of the call cost
            self._random = gen.random
            self._trace_rate = trace.rate
            self._next_id = self._ids.__next__
            self._plan()

    def _plan(self) -> None:
        """Draw candidates from now on; schedule the first one accepted.

        Gap and thinning draws alternate on the stream as they would with
        one event per candidate, and each candidate's time is the previous
        one's plus its gap.  The accepted time goes on the heap as is
        (``Callback.at``), so ``t_submit`` is that sum to the last bit.
        After :data:`REJECTION_CAP` rejections in a row, a continuation at
        the last rejected time resumes the loop.  A candidate at or past
        the running ``env.run``'s horizon is scheduled untested: the trace
        is only asked about instants the run reaches, as with one event
        per candidate.
        """
        env = self.env
        exponential, mean_gap = self._exponential, self._mean_gap
        random, rate_max, rate = self._random, self._rate_max, self._trace_rate
        t = env.now
        horizon = env.horizon
        for _ in range(REJECTION_CAP):
            t += exponential(mean_gap)
            if t >= horizon:
                self._next = Callback.at(env, t, self._candidate)
                return
            # thinning: accept with probability rate(t) / rate_max
            if random() * rate_max <= rate(t):
                self._next = Callback.at(env, t, self._arrive)
                return
        self._next = Callback.at(env, t, self._plan)

    def _candidate(self) -> None:
        # a candidate drawn past an earlier run's horizon, thinned now
        if self._random() * self._rate_max <= self._trace_rate(self.env.now):
            self._arrive()
        else:
            self._plan()

    def _arrive(self) -> None:
        q = Query(qid=self._next_id(), service=self.service, t_submit=self.env.now)
        self.generated += 1
        self.submit(q)
        if self._next is not None:  # stop() during the submit cascade clears it
            self._plan()

    def stop(self) -> None:
        """Halt arrival generation (end of experiment)."""
        ev, self._next = self._next, None
        if ev is not None and not ev.processed:
            ev.cancel()
