"""The Amoeba runtime facade (paper §III, Fig. 6).

Wires the three components around a shared serverless node and per-
service IaaS rentals:

* one :class:`~repro.serverless.platform.ServerlessPlatform` — the
  multi-tenant container pool every microservice (and the meters) shares;
* one :class:`~repro.core.monitor.ContentionMonitor` with its meter
  samplers and PCA calibration;
* per managed microservice: a just-enough IaaS rental, a
  :class:`~repro.core.engine.HybridExecutionEngine` and a
  :class:`~repro.core.controller.DeploymentController` with the
  co-tenant QoS guard;
* optional *background services* that always run serverless (the paper's
  ``float``/``dd``/``cloud_stor`` low-peak co-tenants, §VII-A) and
  provide the contention the monitor must see through.

The ablation variants are configuration: ``AmoebaConfig.variant_nom()``
(no PCA) and ``variant_nop()`` (no prewarm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.cluster import CLUSTER_TABLE_II, ContentionConfig, SpotSpec, UsageSample
from repro.cluster.spec import ClusterSpec
from repro.core.config import AmoebaConfig
from repro.core.controller import DeploymentController
from repro.core.engine import DeployMode, HybridExecutionEngine
from repro.core.invariants import InvariantMonitor
from repro.core.meters import expected_platform_overhead
from repro.core.monitor import ContentionMonitor
from repro.core.mu_model import predicted_latency
from repro.sim.queueing import qos_satisfied
from repro.core.surfaces import SurfaceSet, build_surface_set
from repro.faults import FaultInjector, FaultPlan
from repro.iaas import IaaSService, VMFlavor, size_service
from repro.iaas.sizing import RPC_OVERHEAD
from repro.overload import OverloadGovernor, OverloadPolicy
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.sim import Environment, RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads import LoadGenerator, MicroserviceSpec, Query, Trace

__all__ = ["AmoebaRuntime", "BackgroundService", "ManagedService"]


@dataclass
class ManagedService:
    """Everything Amoeba holds for one managed microservice."""

    spec: MicroserviceSpec
    trace: Trace
    metrics: ServiceMetrics
    iaas: IaaSService
    engine: HybridExecutionEngine
    controller: DeploymentController
    surfaces: SurfaceSet
    #: None for call-graph interior nodes, whose arrivals come from
    #: upstream completions instead of an open-loop generator
    loadgen: Optional[LoadGenerator]
    overload: Optional[OverloadGovernor] = None


@dataclass
class BackgroundService:
    """A co-tenant that always runs on the serverless platform."""

    spec: MicroserviceSpec
    trace: Trace
    metrics: ServiceMetrics
    surfaces: SurfaceSet
    loadgen: LoadGenerator
    overload: Optional[OverloadGovernor] = None


class AmoebaRuntime:
    """One Amoeba deployment: shared serverless node + managed services."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[AmoebaConfig] = None,
        cluster: Optional[ClusterSpec] = None,
        serverless_config: Optional[ServerlessConfig] = None,
        contention: Optional[ContentionConfig] = None,
        flavor: Optional[VMFlavor] = None,
        env: Optional[Environment] = None,
        faults: Optional[FaultPlan] = None,
        overload: Optional[OverloadPolicy] = None,
        spot: Optional[SpotSpec] = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        self.rng = RngRegistry(seed=seed)
        self.config = config if config is not None else AmoebaConfig()
        self.cluster = cluster if cluster is not None else CLUSTER_TABLE_II
        self.contention = contention if contention is not None else ContentionConfig()
        self.flavor = flavor if flavor is not None else VMFlavor()
        # a zero-rate plan makes zero draws (the injector's determinism
        # contract), so wiring the injector in is behaviourally inert
        # until a rate is actually raised above zero
        self.faults = FaultInjector(faults, self.rng) if faults is not None else None
        # like the zero fault plan, a disabled policy's governors make
        # every decision a no-op, so wiring them in is behaviourally
        # inert (the disabled-policy bit-identity test holds us to that)
        self.overload_policy = overload
        self.serverless = ServerlessPlatform(
            self.env,
            self.rng,
            node=self.cluster.serverless_node,
            config=serverless_config,
            contention=self.contention,
            faults=self.faults,
        )
        self.monitor = ContentionMonitor(
            self.env, self.serverless, self.config, self.rng, faults=self.faults
        )
        self.monitor.start()
        #: back every managed rental with this spot share (None = all
        #: on-demand, the pre-spot behaviour)
        self.spot = spot
        #: always-on kernel invariant monitor (RNG-free, so its periodic
        #: checks leave every latency ledger bit-identical)
        self.invariants = InvariantMonitor(self.env)
        self.services: Dict[str, ManagedService] = {}
        self.background: Dict[str, BackgroundService] = {}

    # -- wiring ------------------------------------------------------------------
    def _build_surfaces(
        self, spec: MicroserviceSpec, load_max: Optional[float] = None
    ) -> SurfaceSet:
        cfg = self.config
        return build_surface_set(
            spec,
            node=self.cluster.serverless_node,
            contention=self.contention,
            cfg=self.serverless.config,
            pressure_max=cfg.surface_pressure_max,
            pressure_points=cfg.surface_pressure_points,
            load_max=load_max,
            load_points=cfg.surface_load_points,
        )

    def _make_governor(self, spec: MicroserviceSpec) -> Optional[OverloadGovernor]:
        """One shared overload governor per microservice (both platforms).

        The admission model's service rates come from the same sources
        the controller's μ reasoning uses: mean exec time plus the
        platform overhead α on serverless (Eq. 6), exec time plus the
        RPC dispatch overhead on IaaS.
        """
        if self.overload_policy is None:
            return None
        alpha = expected_platform_overhead(spec, self.serverless.config)
        return OverloadGovernor(
            self.overload_policy,
            qos_target=spec.qos_target,
            mu_serverless=1.0 / (spec.exec_time + alpha),
            mu_iaas=1.0 / (spec.exec_time + RPC_OVERHEAD),
        )

    def add_service(
        self,
        spec: MicroserviceSpec,
        trace: Trace,
        initial_mode: DeployMode = DeployMode.IAAS,
        guard_enabled: bool = True,
        limit: Optional[int] = None,
        sizing_rate: Optional[float] = None,
        reservoir: Optional[int] = None,
        router: Optional[Callable[[Query], None]] = None,
        generate_load: bool = True,
    ) -> ManagedService:
        """Put one microservice under Amoeba management.

        The IaaS side is sized just-enough for ``trace.peak_rate`` (the
        paper's §III setup: the maintainer supplies a configuration that
        can serve the peak).  The default starting mode is IaaS, as in
        §III step 1.  ``sizing_rate`` overrides the rate the rental is
        sized for — overload scenarios size for the *nominal* peak while
        driving the trace past it, so the excess is genuinely excess.
        ``reservoir`` overrides the latency-reservoir capacity so QoS
        gates stay exact for scenarios expecting more than the default
        20k completions.

        Call-graph wiring: ``router`` replaces ``engine.route`` as the
        load generator's submit target (the graph orchestrator stamps
        deadline budgets there before routing), and
        ``generate_load=False`` skips the generator entirely for
        interior nodes whose arrivals are upstream completions.  With
        both left at their defaults the wiring — and every RNG stream
        draw — is identical to the pre-graph runtime.
        """
        if spec.name in self.services or spec.name in self.background:
            raise ValueError(f"service {spec.name!r} already added")
        metrics = ServiceMetrics(spec.name, spec.qos_target, reservoir=reservoir)
        sizing = size_service(
            spec,
            sizing_rate if sizing_rate is not None else trace.peak_rate,
            flavor=self.flavor,
            contention=self.contention,
        )
        governor = self._make_governor(spec)
        iaas = IaaSService(
            self.env,
            spec,
            sizing,
            self.rng,
            metrics=metrics,
            contention=self.contention,
            faults=self.faults,
            overload=governor,
            spot=self.spot,
        )
        if initial_mode is DeployMode.IAAS:
            iaas.deploy(instant=True)
        # Amoeba-NoP has no prewarm module, and the prewarm module is also
        # what keeps containers warm for later queries (§V-A) — so the
        # NoP variant cold starts every invocation
        keep_alive = None if self.config.prewarm else 0.0
        self.serverless.register(
            spec, metrics=metrics, limit=limit, keep_alive=keep_alive, overload=governor
        )
        # profile the surfaces out to twice the service's design peak —
        # that is the whole load range the controller will ever query
        surfaces = self._build_surfaces(spec, load_max=2.0 * trace.peak_rate)
        self.monitor.register_service(spec.name, surfaces)
        engine = HybridExecutionEngine(
            self.env,
            spec,
            iaas,
            self.serverless,
            metrics,
            self.config,
            self.rng,
            initial_mode=initial_mode,
            overload=governor,
        )
        guard = self._make_guard(spec.name) if guard_enabled else None
        controller = DeploymentController(
            self.env, spec, engine, self.monitor, self.config, guard=guard
        )
        loadgen = None
        if generate_load:
            submit = router if router is not None else engine.route
            loadgen = LoadGenerator(self.env, spec.name, trace, submit, self.rng)
        managed = ManagedService(
            spec=spec,
            trace=trace,
            metrics=metrics,
            iaas=iaas,
            engine=engine,
            controller=controller,
            surfaces=surfaces,
            loadgen=loadgen,
            overload=governor,
        )
        self.services[spec.name] = managed
        # conservation census: a managed query is in flight on exactly one
        # of the two platforms until it reaches a terminal state
        fs = self.serverless.pool.state(spec.name)
        self.invariants.register(
            spec.name, metrics, lambda: iaas.in_flight + fs.user_in_flight
        )
        return managed

    def add_background(
        self,
        spec: MicroserviceSpec,
        trace: Trace,
        limit: Optional[int] = None,
        reservoir: Optional[int] = None,
    ) -> BackgroundService:
        """Add an always-serverless co-tenant (contention source).

        ``reservoir`` overrides the latency-reservoir capacity, as in
        :meth:`add_service`.
        """
        if spec.name in self.services or spec.name in self.background:
            raise ValueError(f"service {spec.name!r} already added")
        metrics = ServiceMetrics(spec.name, spec.qos_target, reservoir=reservoir)
        governor = self._make_governor(spec)
        self.serverless.register(spec, metrics=metrics, limit=limit, overload=governor)
        surfaces = self._build_surfaces(spec, load_max=2.0 * trace.peak_rate)
        self.monitor.register_service(spec.name, surfaces)
        loadgen = LoadGenerator(self.env, spec.name, trace, self.serverless.invoke, self.rng)
        fs = self.serverless.pool.state(spec.name)
        self.invariants.register(spec.name, metrics, lambda: fs.user_in_flight)
        bg = BackgroundService(
            spec=spec,
            trace=trace,
            metrics=metrics,
            surfaces=surfaces,
            loadgen=loadgen,
            overload=governor,
        )
        self.background[spec.name] = bg
        return bg

    # -- the co-tenant QoS guard (paper SIII) --------------------------------------
    def _make_guard(self, name: str) -> Callable[[float, float], bool]:
        def guard(load: float, service_time: float) -> bool:
            return self.switch_in_is_safe(name, load, service_time)

        return guard

    def switch_in_is_safe(self, name: str, load: float, service_time: float) -> bool:
        """Would moving ``name`` in at ``load`` keep every tenant's QoS?

        Adds the candidate's projected pressure to the monitor's current
        measurement, re-predicts each current serverless tenant's μ via
        its own surfaces and calibrated weights, and checks the tenant's
        QoS with the same M/M/N model the discriminant uses — i.e. the
        projected *end-to-end* (queueing included) r-ile latency must
        stay inside each tenant's target (paper §III step 3).
        """
        spec = (
            self.services[name].spec if name in self.services else self.background[name].spec
        )
        node = self.cluster.serverless_node
        busy = load * service_time
        d = spec.demand
        base = self.monitor.pressure()
        projected = (
            base[0] + busy * d.cpu / node.cores,
            base[1] + busy * d.io_mbps / node.disk_mbps,
            base[2] + busy * d.net_mbps / node.net_mbps,
        )
        now = self.env.now
        for tenant_name, tenant_spec, tenant_metrics, surfaces in self._serverless_tenants():
            if tenant_name == name:
                continue
            t_load = tenant_metrics.load.rate(now)
            weights, bias = self.monitor.weights(tenant_name)
            axis_lat = surfaces.axis_latencies(projected, t_load)
            lat = predicted_latency(
                surfaces.solo_latency, axis_lat, weights, surfaces.alpha, bias
            )
            if lat > tenant_spec.qos_target:
                return False
            n_avail = self.serverless.n_max(tenant_name)
            if n_avail < 1 or not qos_satisfied(
                t_load, 1.0 / lat, n_avail, tenant_spec.qos_target, self.config.r_ile
            ):
                return False
        return True

    def _serverless_tenants(self) -> Iterator[Tuple[str, MicroserviceSpec, ServiceMetrics, SurfaceSet]]:
        """(name, spec, metrics, surfaces) of services now on serverless."""
        for bg_name, bg in self.background.items():
            yield bg_name, bg.spec, bg.metrics, bg.surfaces
        for svc_name, svc in self.services.items():
            if svc.engine.mode is DeployMode.SERVERLESS:
                yield svc_name, svc.spec, svc.metrics, svc.surfaces

    # -- execution / results --------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``.

        The invariant monitor's exact-conservation horizon check runs at
        the stop boundary: every arrival must be terminal or still in
        flight, nothing lost, nothing double-counted.
        """
        self.invariants.run(until)

    def service_usage(self, name: str) -> UsageSample:
        """Combined vendor-side usage of one managed service (IaaS + serverless)."""
        svc = self.services[name]
        iaas_usage = svc.iaas.ledger.snapshot()
        sls_usage = self.serverless.function_ledger(name).snapshot()
        total = iaas_usage + sls_usage
        if svc.iaas.spot_ledger is not None:
            total = total + svc.iaas.spot_ledger.snapshot()
        return total

    def meter_overhead(self) -> float:
        """Mean fraction of the serverless node the meters consume (§VII-E)."""
        return self.monitor.meter_cpu_overhead()
