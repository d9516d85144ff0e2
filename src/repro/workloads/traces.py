"""Load-shape generators.

The paper drives every benchmark with a load pattern "configured based on
the query trace from Didi" — a ride-hailing service whose demand shows
the classic two-peak diurnal shape (morning and evening rush), with the
overnight low around 30% of the peak (the paper's §I definition of "low
load").  The actual Didi trace is not redistributable; §II-A of the paper
notes "the actual fluctuate pattern does not affect the analysis", so
:class:`DiurnalTrace` synthesizes that shape deterministically:

* a smooth baseline built from two Gaussian bumps (centred 08:30 and
  18:00) on top of the overnight floor,
* multiplicative noise from a seeded autoregressive process,
* optional short bursts (to exercise the controller's burst handling).

All traces expose ``rate(t)`` (queries/second at simulated time ``t``)
and ``peak_rate`` (their design maximum, used for IaaS sizing).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "BurstTrace",
    "ConstantTrace",
    "DiurnalTrace",
    "FlashCrowdTrace",
    "SampledTrace",
    "StepTrace",
    "Trace",
]

DAY = 86400.0


def peak_concurrent_extra(bursts: Sequence[tuple[float, float, float]]) -> float:
    """Maximum simultaneous sum of rectangular ``(start, duration, extra)`` rates.

    The sum of active rectangles is piecewise constant and can only
    reach a new maximum at some rectangle's start, so evaluating the
    overlap sum at each start covers every candidate instant.  With a
    single burst this reduces to the burst's own extra; *overlapping*
    bursts stack, which a plain ``max`` over extras understates.
    """
    best = 0.0
    for start, _, _ in bursts:
        total = sum(extra for s, d, extra in bursts if s <= start < s + d)
        if total > best:
            best = total
    return best


class Trace:
    """Interface: a time-varying arrival-rate function."""

    #: the maximum rate the trace is designed to reach (for sizing)
    peak_rate: float

    def rate(self, t: float) -> float:  # pragma: no cover - interface
        """Instantaneous arrival rate (queries/second) at time ``t``.

        Must be a pure function of ``t``: no state, no reads of the clock
        or of controller state.  :class:`~repro.workloads.loadgen.LoadGenerator`
        calls it for candidate instants ahead of the simulated clock.
        """
        raise NotImplementedError

    def mean_rate(self, t0: float, t1: float, samples: int = 512) -> float:
        """Average rate over [t0, t1] by midpoint sampling."""
        if t1 <= t0:
            raise ValueError(f"empty interval [{t0}, {t1}]")
        ts = np.linspace(t0, t1, samples, endpoint=False) + (t1 - t0) / (2 * samples)
        return float(np.mean([self.rate(float(t)) for t in ts]))


class ConstantTrace(Trace):
    """Fixed arrival rate (peak-load probes, unit tests)."""

    def __init__(self, rate: float):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self._rate = float(rate)
        self.peak_rate = float(rate)

    def rate(self, t: float) -> float:
        return self._rate


class StepTrace(Trace):
    """Piecewise-constant rate from (time, rate) breakpoints."""

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        if not breakpoints:
            raise ValueError("need at least one breakpoint")
        times = [bp[0] for bp in breakpoints]
        if times != sorted(times):
            raise ValueError("breakpoints must be sorted by time")
        if any(bp[1] < 0 for bp in breakpoints):
            raise ValueError("rates must be >= 0")
        self._times = np.asarray(times, dtype=float)
        self._rates = np.asarray([bp[1] for bp in breakpoints], dtype=float)
        self.peak_rate = float(self._rates.max())

    def rate(self, t: float) -> float:
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self._rates[idx])


class DiurnalTrace(Trace):
    """Didi-like two-peak diurnal load shape with seeded noise.

    Parameters
    ----------
    peak_rate:
        Queries/second at the evening peak (the larger of the two).
    low_fraction:
        Overnight floor as a fraction of ``peak_rate`` (paper: ~0.3).
    morning_fraction:
        Height of the morning peak relative to the evening peak.
    noise_sigma:
        Std-dev of the multiplicative AR(1) noise (0 disables noise).
    seed:
        Noise seed; same seed → identical trace.
    phase:
        Shift of the daily pattern in seconds (lets background services
        peak at different hours than the foreground benchmark).
    day:
        Length of one "day" in simulated seconds.  The default is a real
        day; experiments compress it (e.g. 7200 s) so a full diurnal
        cycle fits in a fast simulation — the controller's dynamics only
        depend on the load *shape*, not the absolute day length, as long
        as the day is much longer than the switch dwell time.
    """

    def __init__(
        self,
        peak_rate: float,
        low_fraction: float = 0.3,
        morning_fraction: float = 0.85,
        noise_sigma: float = 0.04,
        seed: int = 0,
        phase: float = 0.0,
        day: float = DAY,
    ):
        if peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak_rate}")
        if not 0.0 <= low_fraction < 1.0:
            raise ValueError(f"low_fraction must be in [0, 1), got {low_fraction}")
        if not 0.0 < morning_fraction <= 1.0:
            raise ValueError(f"morning_fraction must be in (0, 1], got {morning_fraction}")
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        if day <= 0:
            raise ValueError(f"day must be positive, got {day}")
        self.peak_rate = float(peak_rate)
        self.low_fraction = float(low_fraction)
        self.morning_fraction = float(morning_fraction)
        self.noise_sigma = float(noise_sigma)
        self.phase = float(phase)
        self.day = float(day)
        # precompute one day of AR(1) multiplicative noise on a fixed grid
        # of 1440 cells, wrapped periodically, so rate() is a pure
        # function of t
        n = 1440
        # explicitly seeded one-shot noise table, deterministic given `seed`
        rng = np.random.default_rng(seed)  # simlint: ignore[SIM002]
        alpha = 0.9
        # the recurrence over Python floats: indexing numpy scalars here
        # costs more than the arithmetic, with the same IEEE results
        innov = rng.normal(0.0, noise_sigma * math.sqrt(1 - alpha**2), size=n).tolist()
        ar = [0.0] * n
        for i in range(1, n):
            ar[i] = alpha * ar[i - 1] + innov[i]
        # a plain list: rate() indexes one scalar per candidate arrival,
        # and list[int] → float beats ndarray scalar extraction there
        self._noise = np.exp(ar).tolist()
        self._noise_dt = self.day / n

    def _shape(self, tod: float) -> float:
        """Noise-free shape on [0, 1] given time-of-day in [0, day)."""
        h = 24.0 * tod / self.day
        # two Gaussian rush-hour bumps on top of the overnight floor
        morning = self.morning_fraction * math.exp(-((h - 8.5) ** 2) / (2 * 1.6**2))
        evening = math.exp(-((h - 18.0) ** 2) / (2 * 2.2**2))
        bump = max(morning, evening)
        return self.low_fraction + (1.0 - self.low_fraction) * bump

    def rate(self, t: float) -> float:
        # _shape(tod) unrolled: rate() runs once per candidate arrival.  The
        # conditionals pick what max(morning, evening) and min(r, peak)
        # would, and every operand is already a Python float
        day = self.day
        exp = math.exp
        tod = (t + self.phase) % day
        h = 24.0 * tod / day
        morning = self.morning_fraction * exp(-((h - 8.5) ** 2) / (2 * 1.6**2))
        evening = exp(-((h - 18.0) ** 2) / (2 * 2.2**2))
        bump = evening if evening > morning else morning
        low = self.low_fraction
        shape = low + (1.0 - low) * bump
        peak = self.peak_rate
        noise = self._noise
        r = shape * peak * noise[int(tod / self._noise_dt) % len(noise)]
        return peak if peak < r else r


class SampledTrace(Trace):
    """A rate curve from (time, rate) samples — e.g. a real query trace.

    This is the adapter for replaying actual load data (the paper drives
    its benchmarks from the Didi trace; anyone holding such a trace can
    resample it to (t, qps) pairs and feed it here).

    Parameters
    ----------
    times, rates:
        Sample points; times strictly increasing, rates >= 0.
    interpolation:
        ``"linear"`` between samples or ``"previous"`` (step function).
    period:
        If set, the trace repeats with this period (``times`` must fit
        inside one period); otherwise the rate is clamped to the first /
        last sample outside the sampled range.
    scale:
        Multiplier applied to every rate (rescale a trace to a target
        peak without editing the data).
    """

    def __init__(self, times, rates, interpolation: str = "linear",
                 period: Optional[float] = None, scale: float = 1.0):
        t = np.asarray(times, dtype=float)
        r = np.asarray(rates, dtype=float)
        if t.ndim != 1 or t.shape != r.shape or t.size < 2:
            raise ValueError("need matching 1-D times/rates with >= 2 samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(r < 0):
            raise ValueError("rates must be >= 0")
        if interpolation not in ("linear", "previous"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        if period is not None and period <= t[-1] - t[0]:
            raise ValueError("period must exceed the sampled span")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self._t = t
        self._r = r * scale
        self.interpolation = interpolation
        self.period = period
        self.peak_rate = float(self._r.max())

    def rate(self, t: float) -> float:
        if self.period is not None:
            t = self._t[0] + (t - self._t[0]) % self.period
            if t > self._t[-1]:
                # inside the repetition gap: hold the last sample
                return float(self._r[-1])
        if self.interpolation == "linear":
            return float(np.interp(t, self._t, self._r))
        idx = int(np.searchsorted(self._t, t, side="right")) - 1
        idx = min(max(idx, 0), self._t.size - 1)
        return float(self._r[idx])


class BurstTrace(Trace):
    """A base trace with superimposed rectangular bursts.

    ``bursts`` is a sequence of ``(start, duration, extra_rate)`` tuples.
    Used by ablation benches to exercise the controller's reaction to
    sudden load (paper §II-E, third challenge).
    """

    def __init__(self, base: Trace, bursts: Sequence[tuple[float, float, float]]):
        for start, duration, extra in bursts:
            if duration <= 0 or extra < 0:
                raise ValueError(f"bad burst ({start}, {duration}, {extra})")
        self.base = base
        self.bursts = tuple(bursts)
        # overlapping bursts stack, so the design peak is the max over
        # *summed* concurrent extras, not the single largest burst
        self.peak_rate = base.peak_rate + peak_concurrent_extra(self.bursts)

    def rate(self, t: float) -> float:
        r = self.base.rate(t)
        for start, duration, extra in self.bursts:
            if start <= t < start + duration:
                r += extra
        return r


class FlashCrowdTrace(Trace):
    """A base trace with a seeded Poisson train of flash-crowd spikes.

    Spike arrivals over ``[0, horizon)`` form a Poisson process with
    mean inter-arrival ``mean_gap_s`` (drawn once at construction from
    the ``(seed, 0)`` stream); spike ``k``'s magnitude and duration come
    from its own ``(seed, k)`` stream, so adding or removing one spike
    never perturbs another's shape.  Each spike is a rectangle of extra
    rate layered on the base — the surge-mode stress pattern the
    controller's Eq. 7 prewarm margin must absorb (paper §II-E's sudden
    load challenge, at flash-crowd scale).

    Parameters
    ----------
    base:
        The underlying (e.g. diurnal) trace.
    horizon:
        Time span to populate with spikes, seconds.
    mean_gap_s:
        Mean gap between spike starts (Poisson arrivals).
    magnitude:
        Median extra rate per spike, queries/second.
    duration_s:
        Median spike duration, seconds.
    seed:
        Root seed for the spike train.
    magnitude_sigma, duration_sigma:
        Lognormal spread of per-spike magnitude/duration.
    """

    def __init__(
        self,
        base: Trace,
        horizon: float,
        mean_gap_s: float,
        magnitude: float,
        duration_s: float = 60.0,
        seed: int = 0,
        magnitude_sigma: float = 0.35,
        duration_sigma: float = 0.25,
    ):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if mean_gap_s <= 0:
            raise ValueError(f"mean_gap_s must be positive, got {mean_gap_s}")
        if magnitude < 0 or duration_s <= 0:
            raise ValueError("magnitude must be >= 0 and duration_s positive")
        if magnitude_sigma < 0 or duration_sigma < 0:
            raise ValueError("sigmas must be >= 0")
        self.base = base
        self.horizon = float(horizon)
        # the gap stream is (seed, 0); spike k's shape stream is (seed, k)
        # — deterministic one-shot construction, like DiurnalTrace's table
        gap_rng = np.random.default_rng((seed, 0))  # simlint: ignore[SIM002]
        spikes = []
        t = float(gap_rng.exponential(mean_gap_s))
        k = 1
        while t < self.horizon:
            srng = np.random.default_rng((seed, k))  # simlint: ignore[SIM002]
            extra = magnitude * float(srng.lognormal(0.0, magnitude_sigma))
            dur = duration_s * float(srng.lognormal(0.0, duration_sigma))
            spikes.append((t, dur, extra))
            t += float(gap_rng.exponential(mean_gap_s))
            k += 1
        self.spikes = tuple(spikes)
        self.peak_rate = base.peak_rate + peak_concurrent_extra(self.spikes)

    def rate(self, t: float) -> float:
        r = self.base.rate(t)
        for start, duration, extra in self.spikes:
            if start <= t < start + duration:
                r += extra
        return r
