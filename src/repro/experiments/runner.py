"""End-to-end scenario runs for the three systems under comparison.

``run_amoeba``     the full runtime (or its NoM / NoP / no-guard variants)
``run_nameko``     pure IaaS: just-enough rental held for the whole run
``run_openwhisk``  pure serverless: everything on the shared pool

All three return a :class:`RunResult` holding, per service, the shared
telemetry plus integrated vendor-side usage and the timelines the figure
regenerators need, built by :func:`collect_service`.  Every run ends
with the invariant monitor's horizon conservation check.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pricing import CostBreakdown, PricingModel
    from repro.graph import GraphSummary
    from repro.serverless import ServerlessConfig

from repro.cluster import UsageLedger, UsageSample
from repro.core import AmoebaConfig, AmoebaRuntime, InvariantMonitor
from repro.core.controller import ControllerDecision, DeploymentController
from repro.core.engine import DeployMode, HybridExecutionEngine, SwitchLeg
from repro.iaas import IaaSPlatform, IaaSService
from repro.serverless import ServerlessPlatform
from repro.sim import Environment, RngRegistry, TimeSeries
from repro.telemetry import ServiceMetrics
from repro.workloads import AmbientTenants, LoadGenerator, MicroserviceSpec
from repro.experiments.metrics import FaultSummary, OverloadSummary, resample_zoh
from repro.experiments.scenarios import Scenario

__all__ = ["RunResult", "ServiceResult", "collect_service", "run_amoeba", "run_nameko", "run_openwhisk"]


@dataclass
class ServiceResult:
    """Per-service outcome of one run."""

    spec: MicroserviceSpec
    metrics: ServiceMetrics
    usage: UsageSample
    #: decimated (t, cores) and (t, MB) occupation timelines, one pair per
    #: contributing ledger (IaaS rental and/or serverless containers)
    cpu_timelines: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    mem_timelines: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    #: (t, mode) the engine started in, Amoeba only
    start: Optional[Tuple[float, DeployMode]] = None
    #: the engine's switch log, Amoeba only
    switch_legs: List[SwitchLeg] = field(default_factory=list)
    #: controller log, Amoeba only
    decisions: List[ControllerDecision] = field(default_factory=list)
    #: split usage for the maintainer-cost extension (None when that side
    #: was never used by this system)
    usage_iaas: Optional[UsageSample] = None
    usage_serverless: Optional[UsageSample] = None
    #: spot-share rental usage, billed at the discounted spot rate (None
    #: when the scenario rented no spot capacity)
    usage_iaas_spot: Optional[UsageSample] = None
    serverless_invocations: int = 0
    serverless_busy_seconds: float = 0.0
    container_memory_mb: float = 256.0
    #: decimated (t, depth) queue-depth timelines, one pair per platform
    #: that queued this service (pool FIFO and/or IaaS worker queue)
    queue_depth_timelines: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def cost(self, pricing: Optional["PricingModel"] = None) -> "CostBreakdown":
        """Maintainer-side bill for this service under this system."""
        from repro.cluster.pricing import CostBreakdown, PricingModel

        pricing = pricing if pricing is not None else PricingModel()
        iaas = pricing.iaas_cost(self.usage_iaas) if self.usage_iaas is not None else 0.0
        spot = (
            pricing.iaas_spot_cost(self.usage_iaas_spot)
            if self.usage_iaas_spot is not None
            else 0.0
        )
        if self.serverless_invocations > 0:
            mean_duration = self.serverless_busy_seconds / self.serverless_invocations
            sls = pricing.serverless_cost(
                self.serverless_invocations, mean_duration, self.container_memory_mb
            )
        else:
            sls = 0.0
        return CostBreakdown(
            system="", iaas_dollars=iaas, serverless_dollars=sls, iaas_spot_dollars=spot
        )

    @property
    def mode_timeline(self) -> List[Tuple[float, str]]:
        """Deploy-mode history [(t, "iaas"/"serverless")], Amoeba only."""
        if self.start is None:
            return []
        t0, mode = self.start
        return [(t0, mode.value)] + [
            (leg.end, leg.target.value)
            for leg in self.switch_legs
            if leg.end is not None and leg.abort_reason is None
        ]

    @property
    def switch_events(self) -> List[Tuple[float, str, float]]:
        """Accepted switch requests [(t, direction, load)], Amoeba only."""
        return [(leg.time, leg.target.value, leg.load) for leg in self.switch_legs]

    def cpu_usage_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Total cores occupied, resampled (zero-order hold) onto ``grid``."""
        return resample_zoh(self.cpu_timelines, grid)

    def mem_usage_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Total MB occupied, resampled onto ``grid``."""
        return resample_zoh(self.mem_timelines, grid)


@dataclass
class RunResult:
    """Outcome of one full scenario run."""

    system: str
    duration: float
    services: Dict[str, ServiceResult]
    meter_overhead: float = 0.0
    #: per-meter mean CPU overhead (fraction of the node), Amoeba only
    meter_overheads: Dict[str, float] = field(default_factory=dict)
    #: fault-layer outcome, Amoeba only (None when no plan was attached)
    faults: Optional[FaultSummary] = None
    #: overload-layer outcome, Amoeba only (None when no policy attached)
    overload: Optional[OverloadSummary] = None
    #: end-to-end call-graph outcome (graph runs only)
    graph: Optional["GraphSummary"] = None

    def foreground(self, scenario: Scenario) -> ServiceResult:
        """The scenario's foreground service result."""
        return self.services[scenario.foreground.name]


def _timeline(series: TimeSeries) -> Tuple[np.ndarray, np.ndarray]:
    return series.times(), series.values()


def collect_service(
    spec: MicroserviceSpec,
    metrics: ServiceMetrics,
    iaas: Optional[IaaSService] = None,
    serverless: Optional[ServerlessPlatform] = None,
    engine: Optional[HybridExecutionEngine] = None,
    controller: Optional[DeploymentController] = None,
) -> ServiceResult:
    """One service's result, read from whichever platform objects served it.

    Every system is billed by this code.  Usage sums the present ledgers
    in the order IaaS, serverless, spot, as ``AmoebaRuntime.service_usage``
    does; timelines, queue depths and billing come from the same ledgers.
    """
    ledgers: Dict[str, UsageLedger] = {}
    if iaas is not None:
        ledgers["iaas"] = iaas.ledger
    if serverless is not None:
        ledgers["serverless"] = serverless.function_ledger(spec.name)
    if iaas is not None and iaas.spot_ledger is not None:
        ledgers["spot"] = iaas.spot_ledger
    usages = {key: ledger.snapshot() for key, ledger in ledgers.items()}
    result = ServiceResult(
        spec=spec,
        metrics=metrics,
        usage=functools.reduce(operator.add, usages.values()),
        cpu_timelines=[_timeline(ledger.cpu_timeline) for ledger in ledgers.values()],
        mem_timelines=[_timeline(ledger.mem_timeline) for ledger in ledgers.values()],
        usage_iaas=usages.get("iaas"),
        usage_serverless=usages.get("serverless"),
        usage_iaas_spot=usages.get("spot"),
    )
    if serverless is not None:
        fs = serverless.pool.state(spec.name)
        result.serverless_invocations = fs.completions
        result.serverless_busy_seconds = fs.busy_seconds
        result.container_memory_mb = serverless.config.container_memory_mb
        result.queue_depth_timelines.append(_timeline(fs.queue_depth))
    if iaas is not None:
        result.queue_depth_timelines.append(_timeline(iaas.queue_depth))
    if engine is not None:
        result.start = engine.start
        result.switch_legs = list(engine.legs)
    if controller is not None:
        result.decisions = list(controller.decisions)
    return result


def run_amoeba(
    scenario: Scenario,
    variant: str = "full",
    config: Optional[AmoebaConfig] = None,
    guard: bool = True,
    seed: Optional[int] = None,
) -> RunResult:
    """Run Amoeba (or a variant) on a scenario.

    ``variant``: ``"full"``, ``"nom"`` (no PCA correction, §VII-C) or
    ``"nop"`` (no prewarming, §VII-D).  An explicit ``config`` overrides
    the variant presets.
    """
    if config is None:
        config = AmoebaConfig()
        if variant == "nom":
            config = config.variant_nom()
        elif variant == "nop":
            config = config.variant_nop()
        elif variant != "full":
            raise ValueError(f"unknown variant {variant!r}")
    rt = AmoebaRuntime(
        seed=seed if seed is not None else scenario.seed,
        config=config,
        faults=scenario.faults,
        overload=scenario.overload,
        spot=scenario.spot,
    )
    if scenario.ambient:
        AmbientTenants(rt.env, rt.serverless.machine, dict(scenario.ambient), rt.rng)
    for spec, trace, limit in scenario.background:
        rt.add_background(spec, trace, limit=limit, reservoir=scenario.reservoir)
    fg = rt.add_service(
        scenario.foreground,
        scenario.trace,
        guard_enabled=guard,
        limit=scenario.limit,
        sizing_rate=scenario.iaas_peak_rate,
        reservoir=scenario.reservoir,
    )
    rt.run(until=scenario.duration)

    services = {
        scenario.foreground.name: collect_service(
            fg.spec, fg.metrics, fg.iaas, rt.serverless, fg.engine, fg.controller
        )
    }
    for bg_name, bg in rt.background.items():
        services[bg_name] = collect_service(bg.spec, bg.metrics, serverless=rt.serverless)
    fault_summary: Optional[FaultSummary] = None
    if rt.faults is not None:
        stats = rt.faults.stats
        fault_summary = FaultSummary(
            injected=stats.as_dict(),
            total_injected=stats.total_injected,
            query_retries=stats.query_retries,
            queries_dropped=stats.queries_dropped,
        )
    overload_summary: Optional[OverloadSummary] = None
    if fg.overload is not None:
        gov = fg.overload
        breaker = gov.breaker
        overload_summary = OverloadSummary(
            policy_enabled=gov.policy.enabled,
            rejections=dict(gov.rejections),
            breaker_state=breaker.state.value if breaker is not None else "disabled",
            breaker_transitions=tuple(breaker.transitions) if breaker is not None else (),
            peak_queue_depth_serverless=rt.serverless.pool.state(fg.spec.name).peak_queue_depth,
            peak_queue_depth_iaas=fg.iaas.peak_queue_depth,
        )
    return RunResult(
        system=f"amoeba-{variant}" if variant != "full" else "amoeba",
        duration=scenario.duration,
        services=services,
        meter_overhead=rt.meter_overhead(),
        meter_overheads=rt.monitor.meter_overheads(),
        faults=fault_summary,
        overload=overload_summary,
    )


def run_nameko(scenario: Scenario, seed: Optional[int] = None) -> RunResult:
    """Pure IaaS baseline: the rental is held for the entire run.

    Background services live on the serverless platform and do not share
    hardware with an IaaS rental, so they are omitted here (they cannot
    affect the foreground's latency or usage).
    """
    env = Environment()
    rng = RngRegistry(seed=seed if seed is not None else scenario.seed)
    monitor = InvariantMonitor(env)
    platform = IaaSPlatform(env, rng)
    spec = scenario.foreground
    metrics = ServiceMetrics(spec.name, spec.qos_target, reservoir=scenario.reservoir)
    svc = platform.deploy(spec, peak_rate=scenario.trace.peak_rate, metrics=metrics)
    monitor.register(spec.name, metrics, lambda: svc.in_flight)
    LoadGenerator(env, spec.name, scenario.trace, platform.invoke, rng)
    monitor.run(until=scenario.duration)
    result = collect_service(spec, metrics, iaas=svc)
    return RunResult(system="nameko", duration=scenario.duration, services={spec.name: result})


def run_openwhisk(
    scenario: Scenario,
    seed: Optional[int] = None,
    config: Optional["ServerlessConfig"] = None,
) -> RunResult:
    """Pure serverless baseline: everything on the shared container pool.

    ``config`` overrides the platform defaults (the keep-alive ablation
    sweeps it); None keeps the standard §VII platform.
    """
    env = Environment()
    rng = RngRegistry(seed=seed if seed is not None else scenario.seed)
    monitor = InvariantMonitor(env)
    platform = ServerlessPlatform(env, rng, config=config)
    if scenario.ambient:
        AmbientTenants(env, platform.machine, dict(scenario.ambient), rng)
    registry: Dict[str, Tuple[MicroserviceSpec, ServiceMetrics]] = {}

    def add(spec: MicroserviceSpec, trace, limit):
        metrics = ServiceMetrics(spec.name, spec.qos_target, reservoir=scenario.reservoir)
        platform.register(spec, metrics=metrics, limit=limit)
        fs = platform.pool.state(spec.name)
        monitor.register(spec.name, metrics, lambda: fs.user_in_flight)
        LoadGenerator(env, spec.name, trace, platform.invoke, rng)
        registry[spec.name] = (spec, metrics)

    for bg_spec, bg_trace, bg_limit in scenario.background:
        add(bg_spec, bg_trace, bg_limit)
    add(scenario.foreground, scenario.trace, scenario.limit)
    monitor.run(until=scenario.duration)
    services = {
        name: collect_service(spec, metrics, serverless=platform)
        for name, (spec, metrics) in registry.items()
    }
    return RunResult(system="openwhisk", duration=scenario.duration, services=services)
