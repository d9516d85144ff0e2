"""The simulation environment: virtual clock plus event heap.

The environment owns a binary heap of ``(time, priority, seq, event)``
tuples.  ``seq`` is a monotonically increasing tie-breaker so that events
scheduled at the same instant run in FIFO order and the heap never has to
compare event objects.  ``priority`` lets resource bookkeeping (priority 0)
run ahead of ordinary events (priority 1) at the same timestamp.

Cancelled events (:meth:`Event.cancel`) are discarded lazily: their heap
entries stay put until they reach the top (``step``/``peek`` skip them
without advancing the clock), and when more than half the heap is dead the
whole heap is compacted in one O(n) pass — so heap size stays O(live
events) no matter how often schedulers re-plan.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.events import AllOf, AnyOf, Callback, Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: priority for internal bookkeeping events that must precede user events
URGENT = 0
#: default event priority
NORMAL = 1


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at ``until``."""


class Environment:
    """A deterministic discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.
    """

    #: compaction only kicks in past this heap size (small heaps drain fast)
    _COMPACT_MIN = 64

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._cancelled_pending = 0
        self._horizon = self._now

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def horizon(self) -> float:
        """Time at which the :meth:`run` in progress stops.

        Its ``until`` time (an event at exactly that time is left for the
        next run), ``inf`` while it runs until an event fires or the heap
        drains, and :attr:`now` outside :meth:`run`.  A component that
        works ahead of the clock can stop at the horizon, so it does no
        work for instants this run will not reach.
        """
        return self._horizon

    # -- scheduling observability ------------------------------------------
    @property
    def scheduled_total(self) -> int:
        """Monotone count of every heap insertion since construction.

        The perf guards divide this by completed queries to assert the
        kernel does O(1) amortized scheduling work per query.
        """
        return self._seq

    @property
    def heap_size(self) -> int:
        """Current heap entries, including not-yet-discarded cancelled ones."""
        return len(self._heap)

    @property
    def live_size(self) -> int:
        """Heap entries that will actually be processed."""
        return len(self._heap) - self._cancelled_pending

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert a triggered event into the heap (kernel-internal)."""
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds.

        A convenience for fire-and-forget bookkeeping that does not warrant
        a full process.  Returns the scheduled :class:`Callback` event,
        which supports :meth:`Event.cancel` but cannot be waited on.
        """
        return Callback(self, delay, fn)

    def _note_cancelled(self) -> None:
        """Account one cancellation; compact when the heap is mostly dead.

        Compaction is O(n) but only runs once at least half the heap is
        cancelled entries, so its cost amortizes to O(1) per cancellation
        and the heap never holds more dead entries than live ones.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > self._COMPACT_MIN
            and self._cancelled_pending * 2 >= len(self._heap)
        ):
            # in place, so the aliases held by run()'s inner loop stay valid
            self._heap[:] = [entry for entry in self._heap if not entry[3]._cancelled]
            heapq.heapify(self._heap)
            self._cancelled_pending = 0

    def _discard_cancelled_head(self) -> None:
        """Drop cancelled entries sitting at the top of the heap."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1

    # -- execution ---------------------------------------------------------
    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none."""
        self._discard_cancelled_head()
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next live event.

        Cancelled entries encountered on the way are discarded without
        advancing the clock or running callbacks.

        Raises
        ------
        EmptySchedule
            If no live events remain.
        """
        self._discard_cancelled_head()
        if not self._heap:
            raise EmptySchedule()
        when, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = when
        event._run_callbacks()
        if not event._ok and not event._defused:
            # an unhandled failure escapes the simulation
            raise event._value  # type: ignore[misc]

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``      run until the heap drains.
            ``float``     run until the clock reaches that time.
            ``Event``     run until that event has been processed; its
                          value is returned.
        """
        stop_value: Any = None
        horizon = float("inf")
        if until is None:
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            if stop_event._processed:
                return stop_event._value
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_on_event)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"run(until={horizon}) is in the past (now={self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            self._seq += 1
            # priority below URGENT so the clock stops before same-time events
            heapq.heappush(self._heap, (horizon, -1, self._seq, stop_event))
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_on_event)

        # inlined step() loop: one Python frame per event matters when a
        # day's experiment processes ~10⁶ events.  Semantics match step()
        # exactly (cancelled entries discarded without advancing the clock).
        heap = self._heap
        pop = heapq.heappop
        self._horizon = horizon
        try:
            while True:
                if not heap:
                    raise EmptySchedule()
                when, _prio, _seq, event = pop(heap)
                if event._cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = when
                event._run_callbacks()
                if not event._ok and not event._defused:
                    # an unhandled failure escapes the simulation
                    raise event._value  # type: ignore[misc]
        except StopSimulation as stop:
            stop_value = stop.args[0] if stop.args else None
        except EmptySchedule:
            if isinstance(until, Event) and not until._processed:
                raise RuntimeError("run() ran out of events before `until` triggered") from None
        finally:
            self._horizon = self._now
        return stop_value

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        raise StopSimulation(event._value if event._ok else None)
