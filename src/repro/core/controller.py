"""The contention-aware deployment controller (paper §IV).

Every sample period T (Eq. 8) the controller, for its microservice:

1. reads the current load λ (trailing-window arrival rate),
2. feeds the monitor the latest serverless-path latency observation
   (canaries while on IaaS, real queries while on serverless),
3. computes μ from Eq. 6 using the monitor's pressure vector, the
   service's latency surfaces and the calibrated weights,
4. evaluates the discriminant: the largest admissible arrival rate
   λ(μ) for the available container budget n_max (Eq. 5),
5. decides: switch to serverless when λ < in_margin·λ(μ) *and* the
   co-tenant guard approves (§III: a switch-in must not push any
   current serverless tenant over its QoS); switch back to IaaS when
   λ > out_margin·λ(μ).

Every evaluation is logged — the Fig. 12 timeline and the Fig. 15
discriminant-error analysis read the log, and so does every count of
safe-mode, brownout or surge periods: ``decisions`` is the controller's
one history store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode, HybridExecutionEngine
from repro.core.monitor import ContentionMonitor, sample_period
from repro.core.mu_model import MuEstimate, mu_value
from repro.sim.queueing import max_arrival_rate, max_arrival_rate_gg
from repro.sim import Environment, Event
from repro.workloads import MicroserviceSpec

__all__ = ["ControllerDecision", "DeploymentController"]


@dataclass(frozen=True)
class ControllerDecision:
    """One controller evaluation (a Fig. 12 / Fig. 15 log record)."""

    time: float
    load: float
    mu: float
    lambda_max: float
    mode: DeployMode
    #: the mode a successful switch request targeted (None if no switch)
    switch_target: Optional[DeployMode]
    guard_blocked: bool
    weights: Tuple[float, float, float]
    pressures: Tuple[float, float, float]
    #: True when this decision ran under stale-telemetry safe mode (the
    #: meters had been silent past the staleness budget, so the
    #: controller pinned the conservative IaaS mode instead of trusting
    #: an outdated pressure vector)
    safe_mode: bool = False
    #: True when the overload breaker held the service in brownout at
    #: decision time — switch requests are suppressed by the engine until
    #: the breaker half-opens
    brownout: bool = False
    #: True when the flash-crowd detector saw this load sample jump past
    #: ``surge_factor`` times the smoothed load — surge mode widens the
    #: Eq. 7 prewarm margin while it holds
    surge: bool = False


class DeploymentController:
    """Periodic deploy-mode decisions for one microservice."""

    def __init__(
        self,
        env: Environment,
        spec: MicroserviceSpec,
        engine: HybridExecutionEngine,
        monitor: ContentionMonitor,
        config: AmoebaConfig,
        guard: Optional[Callable[[float, float], bool]] = None,
    ) -> None:
        """``guard(load, service_time)`` is the co-tenant QoS check: it
        receives this service's load and predicted serverless service
        time and returns True when switching in will not break any
        existing tenant.  ``None`` disables the guard (ablation)."""
        self.env = env
        self.spec = spec
        self.engine = engine
        self.monitor = monitor
        self.config = config
        self.guard = guard
        self.decisions: List[ControllerDecision] = []
        # smoothed load for the flash-crowd detector (None until the
        # first sample — the detector never trips on its own baseline)
        self._load_ewma: Optional[float] = None
        # Eq. 8: the sample period must absorb one accidental cold start
        platform_cfg = engine.serverless.config
        t_min = sample_period(
            cold_start=platform_cfg.cold_start_median,
            qos_target=spec.qos_target,
            exec_time=spec.exec_time,
            allowed_error=config.allowed_error,
        )
        self.period = float(
            np.clip(t_min, config.min_sample_period, config.max_sample_period)
        )
        self._proc = env.process(self._run())

    # -- the decision loop ----------------------------------------------------
    def _run(self) -> Iterator[Event]:
        cfg = self.config
        spec = self.spec
        name = spec.name
        while True:
            yield self.env.timeout(self.period)
            now = self.env.now
            metrics = self.engine.metrics
            load = metrics.load.rate(now)
            surge = self._detect_surge(load, now)
            # an OPEN breaker pins the current mode (engine.can_switch);
            # log it so brownout windows are visible in the decision trace
            brownout = self.engine.in_brownout()
            switch_target: Optional[DeployMode] = None
            guard_blocked = False

            # stale-telemetry safe mode: meters silent past the staleness
            # budget make the pressure vector fiction — pin the
            # conservative IaaS deployment instead of trusting it, skip
            # feedback (it would be regressed against stale pressures),
            # and flag the decision record
            safe_mode = self.monitor.telemetry_age(now) > cfg.telemetry_stale_periods * self.period
            if safe_mode:
                mu = float("nan")
                lam_max = 0.0
                weights = pressures = (float("nan"), float("nan"), float("nan"))
                if self.engine.mode is DeployMode.SERVERLESS and self.engine.request_switch(
                    DeployMode.IAAS, load
                ):
                    switch_target = DeployMode.IAAS
            else:
                # feedback to the monitor: latest serverless-path observation
                observed = self._serverless_observation()
                if observed is not None and observed > 0:
                    self.monitor.add_feedback(name, load, observed)

                est = self._estimate_mu(load)
                mu, weights = est.mu, est.weights
                n_avail = self.engine.serverless.n_max(name)
                if n_avail < 1:
                    lam_max = 0.0
                elif cfg.discriminant == "mmn":
                    lam_max = max_arrival_rate(mu, n_avail, spec.qos_target, cfg.r_ile)
                elif cfg.discriminant == "mdn":
                    # extension: correct the M/M/N wait for near-deterministic
                    # service via Allen–Cunneen (C_s² from the exec jitter)
                    lam_max = max_arrival_rate_gg(
                        mu,
                        n_avail,
                        spec.qos_target,
                        cfg.r_ile,
                        ca2=1.0,
                        cs2=math.expm1(spec.exec_sigma**2),
                    )
                else:  # naive utilization rule (ablation)
                    lam_max = cfg.naive_rho_max * n_avail * mu

                mode = self.engine.mode
                if mode is DeployMode.SERVERLESS and load > cfg.switch_out_margin * lam_max:
                    if self.engine.request_switch(DeployMode.IAAS, load):
                        switch_target = DeployMode.IAAS
                elif mode is DeployMode.IAAS and load < cfg.switch_in_margin * lam_max:
                    service_time = est.predicted_latency - est.alpha
                    if self.guard is not None and not self.guard(load, service_time):
                        guard_blocked = True
                    elif self.engine.request_switch(DeployMode.SERVERLESS, load):
                        switch_target = DeployMode.SERVERLESS
                pressures = self.monitor.pressure()

            self.decisions.append(
                ControllerDecision(
                    time=now,
                    load=load,
                    mu=mu,
                    lambda_max=lam_max,
                    mode=self.engine.mode,
                    switch_target=switch_target,
                    guard_blocked=guard_blocked,
                    weights=weights,
                    pressures=pressures,
                    safe_mode=safe_mode,
                    brownout=brownout,
                    surge=surge,
                )
            )

    def _detect_surge(self, load: float, now: float) -> bool:
        """Flash-crowd detection: a load jump past ``surge_factor``× the EWMA.

        Draw-free arithmetic on the load signal the controller already
        reads.  The first sample seeds the baseline without tripping; a
        tripped sample is *not* folded into the EWMA, so a multi-period
        crowd stays visible against the pre-spike baseline instead of
        normalising itself away.  Each trip (re)arms the engine's surge
        window for ``surge_hold_periods`` decision periods.
        """
        cfg = self.config
        ewma = self._load_ewma
        surge = ewma is not None and ewma > 1e-9 and load > cfg.surge_factor * ewma
        if surge:
            self.engine.note_surge(now + cfg.surge_hold_periods * self.period)
        else:
            self._load_ewma = (
                load if ewma is None else ewma + cfg.surge_ewma_alpha * (load - ewma)
            )
        return surge

    def _serverless_observation(self) -> Optional[float]:
        """Most recent serverless-path latency sample for feedback."""
        metrics = self.engine.metrics
        if self.engine.mode is DeployMode.SERVERLESS:
            if not metrics.recent:
                return None
            recent = list(metrics.recent)[-32:]
            return float(np.mean(recent))
        lat = metrics.mean_canary_latency()
        return None if math.isnan(lat) else lat

    def _estimate_mu(self, load: float) -> MuEstimate:
        """Eq. 6 with the monitor's current pressure and weights."""
        name = self.spec.name
        surfaces = self.monitor.surfaces(name)
        pressures = self.monitor.pressure()
        weights, bias = self.monitor.weights(name)
        axis_lat = surfaces.axis_latencies(pressures, load)
        return mu_value(
            service=name,
            solo_latency=surfaces.solo_latency,
            axis_latencies=axis_lat,
            weights=weights,
            alpha=surfaces.alpha,
            bias=bias,
        )
