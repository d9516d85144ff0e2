"""Facade over the serverless node: machine + pool + front end.

One :class:`ServerlessPlatform` corresponds to the paper's shared
serverless node: a single :class:`~repro.cluster.resource_model.MachineModel`
whose containers all contend for the node's cores, disk and NIC, a
memory-capped :class:`~repro.serverless.pool.ContainerPool`, and a
:class:`~repro.serverless.frontend.Frontend`.  Amoeba's engine, the pure
OpenWhisk baseline and the contention meters all talk to this facade.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import ContentionConfig, MachineModel, NodeSpec, UsageLedger
from repro.faults import FaultInjector
from repro.overload import OverloadGovernor
from repro.serverless.config import ServerlessConfig
from repro.serverless.frontend import Frontend
from repro.serverless.pool import ContainerPool, FunctionState
from repro.sim import Environment, Event, RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads import MicroserviceSpec, Query

__all__ = ["ServerlessPlatform"]


class ServerlessPlatform:
    """The shared serverless node (paper: modified OpenWhisk)."""

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        node: Optional[NodeSpec] = None,
        config: Optional[ServerlessConfig] = None,
        contention: Optional[ContentionConfig] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self.faults = faults
        self.node = node if node is not None else NodeSpec(name="serverless")
        self.config = config if config is not None else ServerlessConfig()
        if self.config.pool_memory_mb > self.node.memory_mb:
            raise ValueError("pool memory exceeds node memory")
        self.machine = MachineModel(
            env,
            cores=self.node.cores,
            io_mbps=self.node.disk_mbps,
            net_mbps=self.node.net_mbps,
            config=contention,
        )
        self.pool = ContainerPool(env, self.machine, self.config, rng, faults=faults)
        self.frontend = Frontend(env, self.pool, self.config, rng)

    # -- registration / invocation ------------------------------------------
    def register(
        self,
        spec: MicroserviceSpec,
        metrics: Optional[ServiceMetrics] = None,
        ledger: Optional[UsageLedger] = None,
        limit: Optional[int] = None,
        keep_alive: Optional[float] = None,
        overload: Optional[OverloadGovernor] = None,
    ) -> FunctionState:
        """Deploy a function; see :meth:`ContainerPool.register`."""
        return self.pool.register(
            spec,
            metrics=metrics,
            ledger=ledger,
            limit=limit,
            keep_alive=keep_alive,
            overload=overload,
        )

    def invoke(self, query: Query) -> None:
        """Submit a query to the platform (open loop)."""
        self.frontend.invoke(query)

    # -- Amoeba control surface ------------------------------------------------
    def prewarm(self, name: str, count: int) -> Event:
        """Warm ``count`` containers; event fires on ack (paper §V-B).

        Under fault injection the *acknowledgement path* can fail even
        when the warming itself succeeds: the returned event may fire
        late or never, and the engine's ack deadline is what recovers.
        """
        ack = self.pool.prewarm(name, count)
        if self.faults is not None:
            ack = self.faults.filter_prewarm_ack(name, ack)
        return ack

    def n_max(self, name: str) -> int:
        """Paper §IV-A container cap for ``name``."""
        return self.pool.n_max(name)

    # -- observability -----------------------------------------------------------
    def pressures(self) -> tuple[float, float, float]:
        """(cpu, io, net) pressure on the shared node."""
        return self.machine.pressures()

    def warm_count(self, name: str) -> int:
        """Idle warm containers for ``name``."""
        return self.pool.warm_count(name)

    def function_ledger(self, name: str) -> UsageLedger:
        """Per-function vendor-side usage ledger."""
        return self.pool.state(name).ledger
