"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until the event triggers, then resumes with the event's value (or has the
event's exception thrown into it on failure).  A process is itself an
event that triggers when the generator returns, so processes can wait on
each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        #: the event this process is currently waiting on (None when ready)
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # bootstrap: resume on the next kernel step at the current time
        init = Event(env)
        init._ok = True
        env._enqueue(init, 0.0, priority=0)
        assert init.callbacks is not None
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self._triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        exc = Interrupt(cause)
        failer = Event(self.env)
        failer._ok = False
        failer._value = exc
        failer._defused = True
        self.env._enqueue(failer, 0.0, priority=0)
        assert failer.callbacks is not None
        failer.callbacks.append(self._resume_interrupt)

    # -- resumption machinery ---------------------------------------------
    def _resume_interrupt(self, failer: Event) -> None:
        if self._triggered:
            return  # process finished between interrupt() and delivery
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._resume(failer)

    def _resume(self, event: Event) -> None:
        # one frame per resume: this is the kernel's hottest callback, so
        # the former _resume/_step pair is a single method
        self._target = None
        env = self.env
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event.defuse()
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # nobody is waiting on this process: complete in place
                # instead of scheduling a completion event the kernel would
                # pop only to find an empty callback list.  Late observers
                # see a processed event (the relay path in the yield
                # handling below covers `yield finished_process`).
                self._triggered = True
                self._processed = True
                self._ok = True
                self._value = stop.value
                self.callbacks = None
            return
        except BaseException as exc:
            # the process died; propagate via this event so waiters see it
            self.fail(exc)
            return

        if not isinstance(next_target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {next_target!r}; processes may only yield events"
            )
        if next_target.env is not env:
            raise ValueError("process yielded an event from a different environment")
        if next_target._processed:
            # already done: resume immediately on the next kernel step
            relay = Event(env)
            relay._ok = next_target._ok
            relay._value = next_target._value
            if not relay._ok:
                relay._defused = True
            env._enqueue(relay, 0.0, priority=0)
            assert relay.callbacks is not None
            relay.callbacks.append(self._resume)
            self._target = relay
        else:
            self._target = next_target
            assert next_target.callbacks is not None
            next_target.callbacks.append(self._resume)
