"""Call-graph workloads with cascade-failure resilience.

A deterministic DAG workload family (chains and fan-out/fan-in) over
fully managed Amoeba services, plus the machinery that keeps a
microservice graph safe under partial failure:

* :mod:`repro.graph.topology` — frozen DAG value objects and seeded
  builders with per-edge ``(seed, edge)`` RNG streams;
* :mod:`repro.graph.budget` — end-to-end deadline budgets propagated
  down the critical path (downstream reservations, per-node QoS split);
* :mod:`repro.graph.retry` — bounded per-edge retry budgets with
  deterministic deadline-aware give-up;
* :mod:`repro.graph.orchestrator` — fan-out/join execution with
  graph-aware backpressure (shed at the edge when the target's breaker
  is OPEN, so cascades die at their origin edge);
* :mod:`repro.graph.scenario` / :mod:`repro.graph.runtime` — frozen
  cache-fingerprintable scenarios and the deployment builder.
"""

from repro.graph.budget import (
    critical_path_cost,
    downstream_reservation,
    node_costs,
    node_qos_targets,
    upstream_cost,
)
from repro.graph.orchestrator import CallGraphOrchestrator, GraphStats
from repro.graph.retry import RetryPolicy
from repro.graph.runtime import GraphRuntime
from repro.graph.scenario import BrownoutSpec, GraphScenario, GraphSummary
from repro.graph.topology import (
    GraphEdge,
    GraphNode,
    GraphTopology,
    chain_topology,
    edge_network_cost,
    fanout_topology,
)

__all__ = [
    "BrownoutSpec",
    "CallGraphOrchestrator",
    "GraphEdge",
    "GraphNode",
    "GraphRuntime",
    "GraphScenario",
    "GraphStats",
    "GraphSummary",
    "GraphTopology",
    "RetryPolicy",
    "chain_topology",
    "critical_path_cost",
    "downstream_reservation",
    "edge_network_cost",
    "fanout_topology",
    "node_costs",
    "node_qos_targets",
    "upstream_cost",
]
