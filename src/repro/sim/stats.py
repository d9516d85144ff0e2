"""Bounded-memory statistics for long simulations.

The evaluation runs process hundreds of thousands of queries; storing raw
samples for everything would dominate memory and post-processing time.
These helpers keep the accounting O(1) per observation:

* :class:`ReservoirSample` — uniform fixed-size sample, for the latency
  percentiles and CDF plots (a bounded empirical distribution).
* :class:`TimeWeightedStats` — integrates a piecewise-constant signal
  over simulated time (utilization, container counts, memory in use).
* :class:`TimeSeries` — decimating recorder of (t, value) pairs for the
  timeline figures.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "ReservoirSample",
    "TimeSeries",
    "TimeWeightedStats",
]


class ReservoirSample:
    """Uniform random sample of fixed size over an unbounded stream."""

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        # deterministic fixed-seed fallback when no registry stream is injected
        self._rng = rng if rng is not None else np.random.default_rng(0)  # simlint: ignore[SIM002]
        self._buf: list[float] = []
        self.n = 0

    def add(self, x: float) -> None:
        """Offer one observation to the reservoir."""
        self.n += 1
        if len(self._buf) < self.capacity:
            self._buf.append(x)
        else:
            j = int(self._rng.integers(0, self.n))
            if j < self.capacity:
                self._buf[j] = x

    def values(self) -> np.ndarray:
        """The retained sample as a float array (unordered)."""
        return np.asarray(self._buf, dtype=float)

    def percentile(self, p: float) -> float:
        """Empirical percentile of the retained sample (p in [0, 100])."""
        if not self._buf:
            return math.nan
        return float(np.percentile(self._buf, p))

class TimeWeightedStats:
    """Time-integral of a piecewise-constant signal.

    ``set(t, v)`` declares that the signal takes value ``v`` from time
    ``t`` onward.  ``mean(t)`` is the time average over [t0, t].
    """

    def __init__(self, t0: float = 0.0, initial: float = 0.0) -> None:
        self._t0 = float(t0)
        self._last_t = float(t0)
        self._level = float(initial)
        self._integral = 0.0

    @property
    def level(self) -> float:
        """Current value of the signal."""
        return self._level

    def set(self, t: float, value: float) -> None:
        """Advance to time ``t`` and set the new level."""
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._integral += self._level * (t - self._last_t)
        self._last_t = t
        self._level = float(value)

    def adjust(self, t: float, delta: float) -> None:
        """Advance to time ``t`` and add ``delta`` to the level."""
        self.set(t, self._level + delta)

    def integral(self, t: float) -> float:
        """∫ signal dt over [t0, t]."""
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        return self._integral + self._level * (t - self._last_t)

    def mean(self, t: float) -> float:
        """Time-averaged level over [t0, t] (NaN for an empty interval)."""
        span = t - self._t0
        if span <= 0:
            return math.nan
        return self.integral(t) / span


class TimeSeries:
    """Recorder of (t, value) pairs with optional decimation.

    ``min_interval`` suppresses samples closer together than that spacing
    (the *last* value in a burst still lands when the next spaced sample
    arrives, because the signal is sampled, not integrated).
    """

    def __init__(self, min_interval: float = 0.0) -> None:
        self.min_interval = float(min_interval)
        self._t: list[float] = []
        self._v: list[float] = []
        #: time of the last sample that *started* a decimation window; the
        #: grid is anchored here, not at the (rewritten) last timestamp
        self._anchor = -math.inf

    def record(self, t: float, value: float) -> None:
        """Append a sample, subject to decimation."""
        if self._t and self.min_interval > 0 and (t - self._anchor) < self.min_interval:
            # within the decimation window: the newest sample replaces the
            # previous one — both value AND timestamp, so the pair stays
            # consistent (the anchor keeps the window from sliding)
            self._t[-1] = float(t)
            self._v[-1] = float(value)
            return
        self._anchor = t
        self._t.append(float(t))
        self._v.append(float(value))

    def __len__(self) -> int:
        return len(self._t)

    def times(self) -> np.ndarray:
        """Sample timestamps as an array."""
        return np.asarray(self._t, dtype=float)

    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._v, dtype=float)
