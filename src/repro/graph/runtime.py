"""Build and run one Amoeba deployment for a call-graph scenario.

Every topology node becomes a fully managed Amoeba service (its own
just-enough IaaS rental, hybrid engine, controller and governor on the
shared serverless pool); the orchestrator wires them into the DAG.  Only
the root gets an open-loop load generator — interior nodes receive their
arrivals from upstream completions, which is exactly what
``add_service(generate_load=False)`` exists for.

With ``propagate_deadlines`` on, each node's spec is re-targeted to its
critical-path share of the end-to-end target (``node_qos_targets``) so
the per-service controller/governor reason about a scalar target that is
consistent with the graph-level goal, *and* every query carries the
absolute deadline + downstream reservation so admission sees remaining
budget.  With it off, nodes keep their benchmark targets and no deadline
is attached — a single-node graph then replays the flat scenario
bit-for-bit (gated in ``tests/graph/test_cascade.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import AmoebaConfig, AmoebaRuntime
from repro.core.runtime import ManagedService
from repro.graph.budget import downstream_reservation, node_costs, node_qos_targets
from repro.graph.orchestrator import CallGraphOrchestrator
from repro.graph.scenario import GraphScenario, GraphSummary
from repro.telemetry import RETRY_KINDS, CounterFamily
from repro.workloads import BurstTrace, ConstantTrace, LoadGenerator

__all__ = ["GraphRuntime"]


class GraphRuntime:
    """One call-graph deployment: AmoebaRuntime + orchestrator wiring."""

    def __init__(
        self,
        scenario: GraphScenario,
        seed: Optional[int] = None,
        config: Optional[AmoebaConfig] = None,
        guard: bool = True,
    ) -> None:
        self.scenario = scenario
        self.rt = AmoebaRuntime(
            seed=seed if seed is not None else scenario.seed,
            config=config if config is not None else AmoebaConfig(),
            faults=scenario.faults,
            overload=scenario.overload,
        )
        topo = scenario.topology
        costs = node_costs(topo)
        reservations = downstream_reservation(topo, costs)
        targets = (
            node_qos_targets(topo, scenario.e2e_target)
            if scenario.propagate_deadlines
            else None
        )
        self.orchestrator = CallGraphOrchestrator(
            self.rt.env,
            topo,
            e2e_target=scenario.e2e_target,
            retry=scenario.retry,
            reservations=reservations,
            costs=costs,
            backpressure=scenario.backpressure,
            propagate_deadlines=scenario.propagate_deadlines,
        )
        root = topo.root
        self.services: Dict[str, ManagedService] = {}
        for i, node in enumerate(topo.nodes):
            spec = node.spec()
            if targets is not None:
                spec = spec.with_qos(targets[node.name])
            is_root = node.name == root
            managed = self.rt.add_service(
                spec,
                scenario.trace,
                guard_enabled=guard,
                limit=scenario.limits[i] if scenario.limits is not None else None,
                sizing_rate=scenario.iaas_peak_rate,
                reservoir=scenario.reservoir,
                router=self.orchestrator.root_submit if is_root else None,
                generate_load=is_root,
            )
            self.orchestrator.register(node.name, managed)
            self.services[node.name] = managed
        if scenario.brownout is not None:
            b = scenario.brownout
            # interfering load aimed straight at one node's engine: the
            # rectangular burst overloads a rental sized for the nominal
            # trace, tripping that node's breaker mid-graph
            burst = BurstTrace(ConstantTrace(0.0), [(b.t_start, b.t_end - b.t_start, b.rate)])
            # the root's own generator owns arrivals/<root>; any other
            # node's arrivals stream is free for the burst
            stream = f"brownout/{b.node}" if b.node == root else None
            route = self.services[b.node].engine.route
            LoadGenerator(self.rt.env, b.node, burst, route, self.rt.rng, stream=stream)

    def run(self) -> None:
        """Advance the simulation through the scenario's duration."""
        self.rt.run(until=self.scenario.duration)

    def summary(self) -> GraphSummary:
        """End-to-end accounting after :meth:`run`."""
        stats = self.orchestrator.stats
        nodes = self.services.values()
        retries = sum((m.metrics.retries for m in nodes), CounterFamily("retry kind", RETRY_KINDS))
        return GraphSummary(
            e2e_target=self.scenario.e2e_target,
            offered=stats.offered,
            completed=stats.completed,
            violations=stats.violations,
            failed=stats.failed,
            latencies=tuple(stats.latencies),
            failed_by_node=dict(stats.failed_by_node),
            retries=dict(retries),
            backpressure_sheds=dict(stats.backpressure_sheds),
        )
