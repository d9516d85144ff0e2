"""Shared-resource primitive: a counting resource.

:class:`Resource` is a counting semaphore with a FIFO wait queue; the
IaaS platform queues queries on it for a VM's worker slots.

Requests are events: a caller does ``req = res.request()``, waits on it
(a process yields it; the IaaS chain appends a callback) and later calls
``res.release(req)``.  Convenience context management is deliberately
omitted — explicit acquire/release keeps the simulators' lifecycles
obvious.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["Resource"]


class _Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: "Environment", resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """Counting semaphore with FIFO queueing.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of concurrent holders allowed; must be >= 1.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        self._users: set[_Request] = set()
        self._queue: deque[_Request] = deque()

    @property
    def capacity(self) -> int:
        """Maximum concurrent holders."""
        return self._capacity

    @property
    def count(self) -> int:
        """Current number of holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> _Request:
        """Claim a slot; the returned event fires when the claim succeeds."""
        req = _Request(self.env, self)
        if len(self._users) < self._capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        """Return a previously granted slot.

        Releasing a request that was never granted (still queued) cancels
        it instead.
        """
        if request in self._users:
            self._users.discard(request)
            self._grant_next()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                raise RuntimeError("release() of a request this resource does not hold") from None

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (used when VMs join/leave a pool)."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._grant_next()

    def _grant_next(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)
