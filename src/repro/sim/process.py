"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until the event triggers, then resumes with the event's value (or has the
event's exception thrown into it on failure).  A process is itself an
event that triggers when the generator returns, so processes can wait on
each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # bootstrap: resume on the next kernel step at the current time
        init = Event(env)
        init._ok = True
        env._enqueue(init, 0.0, priority=0)
        assert init.callbacks is not None
        init.callbacks.append(self._resume)

    # -- resumption machinery ---------------------------------------------
    def _resume(self, event: Event) -> None:
        # one frame per resume: this is the kernel's hottest callback, so
        # the former _resume/_step pair is a single method
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
        else:
            assert next_target.callbacks is not None
            next_target.callbacks.append(self._resume)
