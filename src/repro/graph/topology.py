"""Deterministic call-graph topologies (DAG workload family).

A :class:`GraphTopology` is a single-rooted DAG of microservice nodes:
user requests enter at the root, every edge is an RPC hop with a fixed
network cost, and a request completes when *all* nodes have served it
(fan-outs join at their fan-in node).  Topologies are frozen value
objects so they can sit inside a frozen scenario and fingerprint into
the run cache.

Determinism contract: the seeded builders draw every per-edge network
cost from a dedicated ``(seed, src, dst)``-keyed generator — the same
idiom ``workloads.fleet`` uses for per-service streams — so a topology
of seed ``s`` is bit-identical no matter how many other topologies were
built first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.workloads import MicroserviceSpec, benchmark

__all__ = [
    "GraphEdge",
    "GraphNode",
    "GraphTopology",
    "chain_topology",
    "edge_network_cost",
    "fanout_topology",
]

#: default per-hop RPC/network cost, seconds (same order as the Nameko
#: dispatch overhead the IaaS path already models)
DEFAULT_NETWORK_S = 0.002


@dataclass(frozen=True)
class GraphNode:
    """One microservice in the call graph."""

    name: str
    #: FunctionBench workload this node runs (``benchmark_names()``)
    benchmark: str
    #: multiplier on the benchmark's execution time (and QoS target)
    exec_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if self.exec_scale <= 0:
            raise ValueError(f"{self.name}: exec_scale must be positive, got {self.exec_scale}")

    def spec(self) -> MicroserviceSpec:
        """The node's microservice spec (benchmark renamed to the node)."""
        spec = benchmark(self.benchmark)
        if self.exec_scale != 1.0:
            spec = spec.scaled(self.exec_scale)
        return replace(spec, name=self.name)


@dataclass(frozen=True)
class GraphEdge:
    """A directed RPC hop ``src -> dst`` with a network cost in seconds."""

    src: str
    dst: str
    network_s: float = DEFAULT_NETWORK_S

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-edge on {self.src!r}")
        if self.network_s < 0:
            raise ValueError(f"{self.src}->{self.dst}: network_s must be >= 0")

    @property
    def key(self) -> str:
        """Stable display/counter key for this edge."""
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class GraphTopology:
    """A validated single-rooted DAG of :class:`GraphNode`/:class:`GraphEdge`."""

    nodes: Tuple[GraphNode, ...]
    edges: Tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if not names:
            raise ValueError("topology needs at least one node")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        known = set(names)
        seen = set()
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge {e.key} references unknown node")
            if (e.src, e.dst) in seen:
                raise ValueError(f"duplicate edge {e.key}")
            seen.add((e.src, e.dst))
        order = self._kahn_order()
        if order is None:
            raise ValueError("topology has a cycle")
        roots = [n for n in names if not self.parents(n)]
        if len(roots) != 1:
            raise ValueError(f"topology must have exactly one root, got {roots}")
        # every node must be reachable from the root (one request visits all)
        reach = {roots[0]}
        for name in order:
            if name in reach:
                for e in self.children(name):
                    reach.add(e.dst)
        if reach != known:
            raise ValueError(f"unreachable nodes: {sorted(known - reach)}")

    # -- structure ---------------------------------------------------------------
    @property
    def root(self) -> str:
        """The unique entry node (no in-edges)."""
        (root,) = [n.name for n in self.nodes if not self.parents(n.name)]
        return root

    def node(self, name: str) -> GraphNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def parents(self, name: str) -> Tuple[GraphEdge, ...]:
        """In-edges of ``name``."""
        return tuple(e for e in self.edges if e.dst == name)

    def children(self, name: str) -> Tuple[GraphEdge, ...]:
        """Out-edges of ``name``."""
        return tuple(e for e in self.edges if e.src == name)

    def sinks(self) -> Tuple[str, ...]:
        """Nodes with no out-edges."""
        return tuple(n.name for n in self.nodes if not self.children(n.name))

    def topo_order(self) -> Tuple[str, ...]:
        """A deterministic topological order (node-tuple order breaks ties)."""
        order = self._kahn_order()
        assert order is not None  # __post_init__ proved acyclicity
        return tuple(order)

    def _kahn_order(self) -> Optional[List[str]]:
        indeg: Dict[str, int] = {n.name: 0 for n in self.nodes}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = [name for name in indeg if indeg[name] == 0]
        out: List[str] = []
        while ready:
            name = ready.pop(0)
            out.append(name)
            for e in self.children(name):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
        return out if len(out) == len(indeg) else None

    def describe(self) -> str:
        """``root -> ... (N nodes, M edges)`` one-liner for logs/figures."""
        return f"{self.root} ({len(self.nodes)} nodes, {len(self.edges)} edges)"


def _node_name(benchmark_name: str, index: int) -> str:
    """Node naming shared by the builders.

    Index 0 keeps the bare benchmark name so a single-node DAG uses the
    exact RNG stream names (``arrivals/<name>``, ``exec/<name>``, ...) a
    flat scenario with the same benchmark uses — that is what makes the
    single-node bit-identity gate possible at all.
    """
    return benchmark_name if index == 0 else f"{benchmark_name}_{index}"


def edge_network_cost(
    seed: int,
    src_index: int,
    dst_index: int,
    median: float = DEFAULT_NETWORK_S,
    sigma: float = 0.35,
) -> float:
    """Lognormal per-edge network cost from a dedicated ``(seed, edge)`` stream.

    Mirrors the fleet idiom: each edge owns generator
    ``default_rng((seed, src, dst))``, so edge costs never depend on how
    many edges were drawn before them.  Config-time draw, not runtime.
    """
    rng = np.random.default_rng((seed, src_index, dst_index))  # simlint: ignore[SIM002]
    return float(median * np.exp(sigma * rng.standard_normal()))


def chain_topology(
    depth: int,
    benchmark_name: str = "matmul",
    network_s: float = DEFAULT_NETWORK_S,
    seed: Optional[int] = None,
) -> GraphTopology:
    """A linear chain ``n0 -> n1 -> ... -> n{depth-1}``.

    With ``seed`` set, each hop's network cost comes from its own
    ``(seed, edge)`` stream instead of the fixed ``network_s``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    nodes = tuple(GraphNode(_node_name(benchmark_name, i), benchmark_name) for i in range(depth))
    edges = tuple(
        GraphEdge(
            nodes[i].name,
            nodes[i + 1].name,
            network_s if seed is None else edge_network_cost(seed, i, i + 1),
        )
        for i in range(depth - 1)
    )
    return GraphTopology(nodes=nodes, edges=edges)


def fanout_topology(
    width: int,
    benchmark_name: str = "matmul",
    network_s: float = DEFAULT_NETWORK_S,
    seed: Optional[int] = None,
) -> GraphTopology:
    """Root fans out to ``width`` parallel nodes that join at one sink."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    root = GraphNode(_node_name(benchmark_name, 0), benchmark_name)
    mids = tuple(
        GraphNode(f"{benchmark_name}_f{i}", benchmark_name) for i in range(width)
    )
    sink = GraphNode(f"{benchmark_name}_join", benchmark_name)
    nodes = (root,) + mids + (sink,)
    sink_index = width + 1
    edges: List[GraphEdge] = []
    for i, mid in enumerate(mids):
        cost = network_s if seed is None else edge_network_cost(seed, 0, i + 1)
        edges.append(GraphEdge(root.name, mid.name, cost))
        cost = network_s if seed is None else edge_network_cost(seed, i + 1, sink_index)
        edges.append(GraphEdge(mid.name, sink.name, cost))
    return GraphTopology(nodes=nodes, edges=edges)
