"""Deterministic per-microservice circuit breaker.

State machine::

    CLOSED --(bad fraction >= threshold over the window)--> OPEN
    OPEN   --(dwell elapsed, lazily at the next observation)--> HALF_OPEN
    HALF_OPEN --(probe batch healthy)--> CLOSED
    HALF_OPEN --(probe batch bad)-----> OPEN

The breaker never schedules kernel events and never draws randomness:
transitions happen lazily when the breaker is next consulted, and the
OPEN→HALF_OPEN edge is stamped at exactly ``opened_at + dwell`` so the
recorded transition time is independent of *when* the consultation
happens.  That keeps the whole overload layer a pure function of sim
time + observed outcomes, preserving the repo's bit-identity gates.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Deque, List, Tuple

from repro.overload.policy import OverloadPolicy


class BreakerState(enum.Enum):
    """Breaker phases; values are the strings used in telemetry."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window breaker over query outcomes and switch aborts.

    Outcomes are booleans (``bad=True`` for drops, QoS violations and
    weighted switch aborts).  In CLOSED the breaker keeps a bounded
    count-based window, additionally age-evicted to
    ``policy.breaker_window_s``, and trips when the bad fraction reaches
    ``policy.breaker_threshold`` with at least ``breaker_min_samples``
    samples.  In OPEN it ignores outcomes until the dwell elapses.  In
    HALF_OPEN it judges a fixed-size probe batch and either closes or
    re-opens.
    """

    def __init__(self, policy: OverloadPolicy) -> None:
        self.policy = policy
        self.state = BreakerState.CLOSED
        #: Sim time of the most recent CLOSED/HALF_OPEN -> OPEN edge.
        self.opened_at = -math.inf
        #: Every state edge as ``(time, new_state_value)`` — the breaker's
        #: one history store; every lifecycle count is read from it.
        self.transitions: List[Tuple[float, str]] = []
        self._window: Deque[Tuple[float, bool]] = deque(maxlen=policy.breaker_window)
        #: running count of the bad outcomes in ``_window``
        self._bad = 0
        self._probe_total = 0
        self._probe_bad = 0

    # -- observation --------------------------------------------------

    def record(self, now: float, bad: bool, weight: int = 1) -> None:
        """Feed one outcome (optionally weighted) into the breaker."""
        if weight < 1:
            return
        self.advance(now)
        if self.state is BreakerState.OPEN:
            # Outcomes during a brownout are consequences of the trip,
            # not fresh evidence; only the dwell re-opens the question.
            return
        if self.state is BreakerState.HALF_OPEN:
            self._probe_total += weight
            if bad:
                self._probe_bad += weight
            if self._probe_total >= self.policy.breaker_halfopen_samples:
                if self._probe_bad / self._probe_total >= self.policy.breaker_threshold:
                    self._open(now)
                else:
                    self._transition(now, BreakerState.CLOSED)
            return
        window = self._window
        for _ in range(weight):
            if len(window) == window.maxlen and window[0][1]:
                # the full deque drops its oldest outcome on append
                self._bad -= 1
            window.append((now, bad))
            if bad:
                self._bad += 1
        self._evict(now)
        n = len(window)
        if n >= self.policy.breaker_min_samples:
            if self._bad / n >= self.policy.breaker_threshold:
                self._open(now)

    # -- queries ------------------------------------------------------

    def is_open(self, now: float) -> bool:
        """True while the breaker is OPEN (advances the dwell lazily)."""
        self.advance(now)
        return self.state is BreakerState.OPEN

    def advance(self, now: float) -> None:
        """Apply the time-driven OPEN -> HALF_OPEN edge if it is due.

        The edge is stamped at ``opened_at + dwell`` — the time it
        logically happened — not at ``now``, so the transition log is
        identical no matter when the breaker is next consulted.
        """
        if self.state is BreakerState.OPEN:
            due = self.opened_at + self.policy.breaker_dwell_s
            if now >= due:
                self._probe_total = 0
                self._probe_bad = 0
                self._transition(due, BreakerState.HALF_OPEN)

    @property
    def trips(self) -> int:
        """CLOSED -> OPEN edges (an OPEN edge out of HALF_OPEN is a reopen)."""
        states = [BreakerState.CLOSED.value] + [state for _t, state in self.transitions]
        trip = (BreakerState.CLOSED.value, BreakerState.OPEN.value)
        return sum(edge == trip for edge in zip(states, states[1:]))

    # -- internals ----------------------------------------------------

    def _open(self, now: float) -> None:
        self.opened_at = now
        self._window.clear()
        self._bad = 0
        self._transition(now, BreakerState.OPEN)

    def _transition(self, now: float, state: BreakerState) -> None:
        self.state = state
        self.transitions.append((now, state.value))

    def _evict(self, now: float) -> None:
        horizon = now - self.policy.breaker_window_s
        window = self._window
        while window and window[0][0] < horizon:
            if window.popleft()[1]:
                self._bad -= 1
