"""Core event primitives for the discrete-event kernel.

An :class:`Event` moves through three states:

``pending``      created but not yet triggered; processes may wait on it.
``triggered``    a value (or exception) has been attached and the event is
                 sitting in the environment's heap awaiting its timestamp.
``processed``    the environment has popped it and run its callbacks.

Processes wait on events by ``yield``-ing them; the environment wires the
process resumption up as a callback.

A triggered-but-unprocessed event can additionally be :meth:`~Event.cancel`-led:
its heap entry stays where it is, but the environment discards it on pop
(or during an amortized compaction) without advancing the clock or running
callbacks.  This is the kernel's true event-cancellation path — schedulers
that re-plan (the contention engine's completion timer) cancel their
obsolete timer instead of leaving a generation-guarded stale callback to
fire as a no-op.  (The container pool goes one step further: its
per-function keep-alive reaper batches all idle-container deadlines into
one timer that never needs cancelling at all.)
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment

__all__ = [
    "AllOf",
    "AnyOf",
    "Callback",
    "ConditionEvent",
    "Event",
    "EventAlreadyTriggered",
    "Timeout",
]


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a non-pending event."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The owning environment.  Events are only meaningful within a
        single environment; mixing environments raises at trigger time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused", "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered: bool = False
        self._processed: bool = False
        #: a failed event whose exception was consumed (e.g. by a waiting
        #: process) is "defused" and will not crash the environment.
        self._defused: bool = False
        #: a cancelled event's heap entry is discarded instead of processed
        self._cancelled: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been attached."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful when triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when ``not ok``)."""
        if not self._triggered:
            raise AttributeError("value of untriggered event is not available")
        return self._value

    @property
    def cancelled(self) -> bool:
        """True once the event's scheduled occurrence has been revoked."""
        return self._cancelled

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not propagate."""
        self._defused = True

    def cancel(self) -> None:
        """Revoke a scheduled (triggered, unprocessed) event.

        The heap entry is left in place and discarded lazily by the
        environment — no callbacks run, the clock does not advance to the
        event's timestamp, and waiting on a cancelled event forever blocks
        (schedulers must re-arm a replacement themselves).  Cancelling an
        already-cancelled event is a no-op; cancelling a pending or
        processed event is an error (there is no scheduled occurrence to
        revoke).
        """
        if self._cancelled:
            return
        if not self._triggered or self._processed:
            raise RuntimeError(f"cannot cancel {self!r}: not scheduled")
        self._cancelled = True
        self.env._note_cancelled()

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, *, delay: float = 0.0, priority: int = 1) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        heapq.heappush(env._heap, (env._now + delay, priority, env._seq, self))
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0, priority: int = 1) -> "Event":
        """Trigger the event with an exception after ``delay``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        heapq.heappush(env._heap, (env._now + delay, priority, env._seq, self))
        return self

    # -- internal --------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._cancelled:
            state = "cancelled"
        else:
            state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None, priority: int = 1) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # flattened Event.__init__: a Timeout is created for every yield on
        # the hot path, so skip the chained constructor and the double
        # assignment of the triggered/value fields.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._value = value
        self.delay = float(delay)
        env._seq += 1
        heapq.heappush(env._heap, (env._now + delay, priority, env._seq, self))


class Callback(Event):
    """A deferred function call: runs ``fn()`` after ``delay`` seconds.

    The storage-free form of ``Timeout`` plus a callback — the function is
    held directly instead of in a callbacks list, so fire-and-forget
    bookkeeping (:meth:`Environment.schedule_callback`) costs one slim
    event and no list/lambda allocations.  Being triggered from birth, a
    ``Callback`` supports :meth:`Event.cancel` like any scheduled event;
    nothing can *wait* on one (no callbacks list), which is the point.
    """

    __slots__ = ("_fn",)

    def __init__(self, env: "Environment", delay: float, fn: Callable[[], None], priority: int = 1) -> None:
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        self.env = env
        self.callbacks = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._value = None
        self._fn = fn
        env._seq += 1
        heapq.heappush(env._heap, (env._now + delay, priority, env._seq, self))

    @classmethod
    def at(cls, env: "Environment", when: float, fn: Callable[[], None]) -> "Callback":
        """Run ``fn()`` at absolute simulated time ``when``.

        The heap entry holds ``when`` itself: going through the delay form,
        ``now + (when - now)``, can round to a neighbouring float.
        """
        if when < env._now:
            raise ValueError(f"callback at {when} is in the past (now={env._now})")
        self = cls.__new__(cls)
        self.env = env
        self.callbacks = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._value = None
        self._fn = fn
        env._seq += 1
        heapq.heappush(env._heap, (when, 1, env._seq, self))
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        self._fn()


class ConditionEvent(Event):
    """Base for composite events over a set of child events.

    Subclasses define :meth:`_check`, which is consulted each time a child
    triggers.  The condition's value is a dict mapping each *triggered*
    child event to its value, in child order.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events: tuple[Event, ...] = tuple(events)
        self._count = 0
        for ev in self._events:
            if ev.env is not env:
                raise ValueError("cannot mix events from different environments")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev._processed:
                self._on_child(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            if not child._ok:
                # condition already resolved; don't let a late failure
                # crash the environment.
                child.defuse()
            return
        if not child._ok:
            child.defuse()
            self.fail(child._value)
            return
        self._count += 1
        if self._check():
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # _processed, not _triggered: a Timeout is born triggered but has
        # not *fired* until the environment processes it
        return {ev: ev._value for ev in self._events if ev._processed and ev._ok}

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Triggers once *all* child events have triggered successfully."""

    def _check(self) -> bool:
        return self._count == len(self._events)


class AnyOf(ConditionEvent):
    """Triggers as soon as *any* child event triggers successfully."""

    def _check(self) -> bool:
        return self._count >= 1
