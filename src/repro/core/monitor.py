"""The multi-resource contention monitor (paper §VI).

Responsibilities:

1. **Quantify contention** — run the three contention meters on the
   production serverless platform at 1 QPS each (§VII-E), phase-shifted
   round-robin so their overheads do not stack (each meter's sampler is
   a callback chain, not a generator process), and invert the profiled
   Fig. 8 curves to turn meter latencies into the pressure vector
   ``P = (P_cpu, P_io, P_net)``.
2. **Calibrate Eq. 6's weights** — ingest heartbeat feedback
   (surface-predicted per-axis latencies vs. the latency actually
   observed for queries the engine routed to the serverless platform)
   and fit the weights by *principal-component regression*: PCA merges
   the strongly-correlated per-axis degradations "into as few new
   variables as possible and makes them pairwise unrelated" (§VI-A),
   then ordinary least squares in that decorrelated basis gives stable
   weights even from few, collinear samples.
3. **Bound the sample period** — Eq. 8 makes the feedback window long
   enough that a single accidental cold start cannot flip the
   controller's judgement.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.core.config import AmoebaConfig
from repro.core.meters import AXIS_METERS, METER_SPECS, MeterProfile, profile_meter
from repro.core.surfaces import SurfaceSet
from repro.faults import FaultInjector
from repro.serverless import ServerlessPlatform
from repro.sim import Environment, RngRegistry
from repro.sim.events import Callback
from repro.telemetry import ServiceMetrics
from repro.workloads import Query

__all__ = ["ContentionMonitor", "pcr_fit", "sample_period"]


def sample_period(
    cold_start: float, qos_target: float, exec_time: float, allowed_error: float
) -> float:
    """Eq. 8 lower bound on the feedback sample period T.

        T > (cold_start − QoS_t + t_exec) / ((1 − e)·QoS_t)

    Nonpositive numerators (QoS slack enough to absorb a cold start)
    yield 0 — any period is safe.
    """
    if qos_target <= 0 or exec_time <= 0 or cold_start < 0:
        raise ValueError("cold_start >= 0 and positive qos_target/exec_time required")
    if not 0.0 <= allowed_error < 1.0:
        raise ValueError(f"allowed_error must be in [0, 1), got {allowed_error}")
    numerator = cold_start - qos_target + exec_time
    if numerator <= 0:
        return 0.0
    return numerator / ((1.0 - allowed_error) * qos_target)


def pcr_fit(
    X: np.ndarray, y: np.ndarray, variance_coverage: float = 0.90, w_max: float = 3.0
) -> Tuple[np.ndarray, float]:
    """Principal-component regression of y on X (rows = samples).

    Returns ``(weights, bias)`` with weights clipped to [0, w_max]
    (negative weights would mean contention *speeds a query up*, which is
    noise, and runaway weights would destabilize μ).  Keeps the smallest
    set of principal components covering ``variance_coverage`` of the
    centred predictors' variance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit")
    if not 0.0 < variance_coverage <= 1.0:
        raise ValueError("variance_coverage must be in (0, 1]")
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    var = S**2
    total = float(var.sum())
    if total <= 1e-18:
        # predictors carried no information (e.g. zero contention all
        # along); keep a neutral fit
        return np.zeros(X.shape[1]), y_mean
    frac = np.cumsum(var) / total
    k = int(np.searchsorted(frac, variance_coverage) + 1)
    k = min(k, int(np.sum(S > 1e-12 * S[0])))
    k = max(k, 1)
    beta = Vt[:k].T @ ((U[:, :k].T @ yc) / S[:k])
    weights = np.clip(beta, 0.0, w_max)
    bias = y_mean - float(x_mean @ weights)
    return weights, bias


@dataclass
class _ServiceCalibration:
    """Per-service calibration state."""

    surfaces: SurfaceSet
    weights: np.ndarray
    bias: float
    rows: Deque[Tuple[np.ndarray, float]]
    refits: int = 0


class ContentionMonitor:
    """Meters + pressure inversion + PCA weight calibration."""

    def __init__(
        self,
        env: Environment,
        platform: ServerlessPlatform,
        config: AmoebaConfig,
        rng: RngRegistry,
        profiles: Optional[Dict[str, MeterProfile]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.platform = platform
        self.config = config
        self.rng = rng
        self.faults = faults
        self.profiles: Dict[str, MeterProfile] = (
            profiles
            if profiles is not None
            else {
                name: profile_meter(
                    name, contention=platform.machine.config, cfg=platform.config
                )
                for name in AXIS_METERS
            }
        )
        self._meter_metrics: Dict[str, ServiceMetrics] = {}
        self._services: Dict[str, _ServiceCalibration] = {}
        self._qid = itertools.count()
        self._started = False
        self._started_at = 0.0

    # -- meter scheduling -------------------------------------------------------
    def start(self) -> None:
        """Register the meters and begin their 1 QPS samplers (round-robin)."""
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        self._started_at = self.env.now
        period = 1.0 / self.config.meter_qps
        for i, name in enumerate(AXIS_METERS):
            metrics = ServiceMetrics(name, METER_SPECS[name].qos_target)
            self._meter_metrics[name] = metrics
            self.platform.register(METER_SPECS[name], metrics=metrics)
            # phase-shift by a third of a period: the paper's "round time
            # trip" scheduling that keeps total overhead <= one meter's
            offset = (i / len(AXIS_METERS)) * period
            self._start_meter(name, offset, period)

    def _start_meter(self, name: str, offset: float, period: float) -> None:
        """Sample one meter every ``period`` seconds from ``offset`` on.

        The sampler is a callback chain: each sample schedules the next.
        Its first step is a zero-delay, priority-0 callback, where a
        generator process would have put its bootstrap, so every sample
        takes the same heap position a meter process's would.
        """
        env = self.env
        faults = self.faults

        def sample() -> None:
            if faults is not None:
                outage = faults.meter_outage(name)
                if outage > 0.0:
                    # the meter goes completely silent for the outage;
                    # the controller's stale-telemetry safe mode is what
                    # keeps decisions sane while it lasts
                    Callback(env, outage, sample)
                    return
                if faults.meter_sample_dropped(name):
                    Callback(env, period, sample)
                    return
            q = Query(qid=next(self._qid), service=name, t_submit=env.now, canary=True)
            self.platform.invoke(q)
            Callback(env, period, sample)

        Callback(env, 0.0, lambda: Callback(env, offset, sample), priority=0)

    def telemetry_age(self, now: float) -> float:
        """Seconds since the *stalest* meter last completed a sample.

        Meters that have not reported yet age from the monitor's start
        time.  Returns 0.0 before :meth:`start` (no meters registered ⇒
        no staleness to speak of).
        """
        if not self._meter_metrics:
            return 0.0
        ages = []
        for metrics in self._meter_metrics.values():
            last = metrics.last_canary_time
            if last is None:
                last = self._started_at
            ages.append(max(now - last, 0.0))
        return max(ages)

    def meter_cpu_overhead(self) -> float:
        """Mean fraction of node cores the meters consume (§VII-E check)."""
        return sum(self.meter_overheads().values())

    def meter_overheads(self) -> Dict[str, float]:
        """Per-meter mean CPU overhead as a fraction of the node's cores."""
        out: Dict[str, float] = {}
        for name in self._meter_metrics:
            ledger = self.platform.function_ledger(name)
            out[name] = ledger.snapshot().mean_cores / self.platform.node.cores
        return out

    # -- measurement (pressure quantification) --------------------------------------
    def pressure(self) -> Tuple[float, float, float]:
        """Current pressure vector from the meters' recent latencies.

        Axes whose meter has produced no sample yet read 0 (the pressure
        a fresh platform actually has).
        """
        out = [0.0, 0.0, 0.0]
        for axis, name in enumerate(AXIS_METERS):
            metrics = self._meter_metrics.get(name)
            if metrics is None or not metrics.canary_latencies:
                continue
            recent = list(metrics.canary_latencies)[-self.config.meter_window :]
            # mean, not median: the profile curves are built from mean
            # latencies, so inversion must be fed the same statistic
            lat = float(np.mean(recent))
            out[axis] = self.profiles[name].invert(lat)
        return (out[0], out[1], out[2])

    # -- calibration ------------------------------------------------------------------
    def register_service(self, name: str, surfaces: SurfaceSet) -> None:
        """Track calibration state for one microservice."""
        if name in self._services:
            raise ValueError(f"service {name!r} already registered with the monitor")
        self._services[name] = _ServiceCalibration(
            surfaces=surfaces,
            weights=np.ones(3),  # pessimistic-safe until feedback arrives
            bias=0.0,
            rows=deque(maxlen=self.config.pca_window),
        )

    def surfaces(self, name: str) -> SurfaceSet:
        """The registered surface set of a service."""
        return self._state(name).surfaces

    def weights(self, name: str) -> Tuple[np.ndarray, float]:
        """Current (weights, bias) for Eq. 6.

        With PCA disabled (Amoeba-NoM) this is always ((1,1,1), 0): the
        pessimistic accumulation of per-axis degradations.
        """
        st = self._state(name)
        if not self.config.use_pca:
            return np.ones(3), 0.0
        return st.weights.copy(), st.bias

    def add_feedback(
        self, name: str, load: float, observed_latency: float, pressures: Tuple[float, float, float]
    ) -> None:
        """Ingest one heartbeat row: prediction inputs vs. observed latency.

        ``observed_latency`` is an end-to-end serverless latency of the
        service (canary or real), regressed against the ``pressure()``
        reading ``pressures``.  The row stores per-axis degradations (the
        Eq. 6 regressors) against the observed *excess* latency.
        """
        st = self._state(name)
        if observed_latency <= 0:
            raise ValueError(f"observed_latency must be positive, got {observed_latency}")
        L = st.surfaces.axis_latencies(pressures, load)
        deg = np.maximum(L - st.surfaces.solo_latency, 0.0)
        y = observed_latency - st.surfaces.solo_latency - st.surfaces.alpha
        st.rows.append((deg, float(y)))
        if self.config.use_pca and len(st.rows) >= self.config.pca_min_rows:
            self._refit(st)

    def _refit(self, st: _ServiceCalibration) -> None:
        X = np.array([r[0] for r in st.rows])
        y = np.array([r[1] for r in st.rows])
        weights, bias = pcr_fit(X, y, self.config.pca_variance_coverage)
        st.weights = weights
        # the bias absorbs queueing residue in the observations; never let
        # it go negative enough to undercut the solo latency floor
        st.bias = float(np.clip(bias, -st.surfaces.solo_latency, st.surfaces.solo_latency * 5))
        st.refits += 1

    def feedback_count(self, name: str) -> int:
        """Heartbeat rows currently buffered for a service."""
        return len(self._state(name).rows)

    def refit_count(self, name: str) -> int:
        """How many PCA refits have run for a service."""
        return self._state(name).refits

    def _state(self, name: str) -> _ServiceCalibration:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"service {name!r} not registered with the monitor") from None
