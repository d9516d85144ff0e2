"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, purpose-built for the Amoeba reproduction.  Processes are Python
generators that ``yield`` events (timeouts or other events); the
:class:`~repro.sim.environment.Environment` advances a virtual clock over
a binary heap of scheduled events.  Worker-slot queueing lives with its
owners (the serverless pool and the IaaS service), as counters and a FIFO
deque, not in the kernel.

Design notes (see DESIGN.md §6):

* The hot path is a plain ``heapq`` keyed by ``(time, priority, seq)`` —
  no per-event wrapper objects beyond the Event itself.
* All randomness flows through :class:`~repro.sim.rng.RngRegistry`, which
  hands out named, independently-seeded ``numpy.random.Generator``
  substreams so that experiments are bit-reproducible.
* Statistics helpers (:mod:`repro.sim.stats`) provide a fixed-size
  latency reservoir, decimating time series, the time-weighted
  counters used by the resource accounting ledgers and the event log
  of faults and preemptions.
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.stats import EventLog, ReservoirSample, TimeSeries, TimeWeightedStats

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventLog",
    "Process",
    "ReservoirSample",
    "RngRegistry",
    "TimeSeries",
    "TimeWeightedStats",
    "Timeout",
]
