"""The call-graph orchestrator: fan-out, joins, retries, backpressure.

One orchestrator drives all in-flight requests over one
:class:`~repro.graph.topology.GraphTopology` whose nodes are managed
Amoeba services.  The root's open-loop load generator submits into
:meth:`root_submit`; everything downstream is event-driven off query
completion hooks (``Query.on_done``) — no polling, no unbounded loops.

Resilience mechanics (the point of this module):

* **Deadline propagation** — with ``propagate_deadlines`` on, every
  sub-query carries the request's absolute deadline plus the node's
  downstream critical-path reservation, so each node's admission and
  shed checks see the *remaining* budget, not the global target.
* **Bounded retries** — a failed node attempt consults the
  :class:`~repro.graph.retry.RetryPolicy`; deadline-aware give-up means
  no retry is issued once the remaining budget cannot cover one more
  downstream attempt.  Outcomes land in the node's
  ``ServiceMetrics.retries`` family.
* **Graph-aware backpressure** — a dispatch toward a node whose breaker
  is OPEN (brownout) is shed at the edge, before the query enters the
  node's queue: the cascade dies at its origin edge instead of
  amplifying upward as queue growth in every ancestor.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.runtime import ManagedService
from repro.graph.retry import RetryPolicy
from repro.graph.topology import GraphEdge, GraphTopology
from repro.overload import OverloadGovernor
from repro.sim import Environment
from repro.telemetry import RETRY_KINDS, CounterFamily
from repro.workloads import Query

__all__ = ["CallGraphOrchestrator", "GraphStats"]


class _RequestState:
    """Book-keeping for one in-flight request (dropped once settled)."""

    __slots__ = ("rid", "t_submit", "deadline", "remaining", "pending", "attempts", "finished")

    def __init__(self, rid: int, t_submit: float, deadline: Optional[float], n_nodes: int):
        self.rid = rid
        self.t_submit = t_submit
        #: absolute end-to-end deadline (None = no propagation)
        self.deadline = deadline
        #: nodes that have not completed yet
        self.remaining = n_nodes
        #: per-join-node count of parents still outstanding (lazy init)
        self.pending: Dict[str, int] = {}
        #: attempts consumed per node (includes backpressure sheds)
        self.attempts: Dict[str, int] = {}
        self.finished = False


class _Node:
    """One topology node and all an attempt at it reads; the service half is set at register."""

    __slots__ = ("name", "n_parents", "reserved", "attempt_cost", "children", "route", "overload", "retries")

    children: Tuple[Tuple[GraphEdge, "_Node"], ...]  # (edge, child) in topology order
    route: Callable[[Query], None]  # the managed service's engine.route
    overload: Optional[OverloadGovernor]  # its breaker decides brownout
    retries: CounterFamily  # the node's retries{kind}

    def __init__(self, name: str, n_parents: int, reserved: float, cost: float) -> None:
        self.name = name
        self.n_parents = n_parents
        #: critical-path time reserved for work downstream of this node
        self.reserved = reserved
        #: critical-path cost of one more attempt here (service + reservation)
        self.attempt_cost = cost + reserved


class GraphStats:
    """Aggregate end-to-end accounting the summary is built from."""

    def __init__(self) -> None:
        self.offered = 0
        self.completed = 0
        self.violations = 0
        self.failed = 0
        #: end-to-end latency of each completed request, completion order
        self.latencies: List[float] = []
        #: requests that died at each node (give-up after drops/sheds)
        self.failed_by_node: Dict[str, int] = {}
        #: dispatches shed at an edge because the target was browned out
        self.backpressure_sheds: Dict[str, int] = {}


class CallGraphOrchestrator:
    """Runs requests through a DAG of managed services."""

    def __init__(
        self,
        env: Environment,
        topology: GraphTopology,
        e2e_target: float,
        retry: Optional[RetryPolicy] = None,
        reservations: Optional[Dict[str, float]] = None,
        costs: Optional[Dict[str, float]] = None,
        backpressure: bool = True,
        propagate_deadlines: bool = True,
    ) -> None:
        if e2e_target <= 0:
            raise ValueError(f"e2e_target must be positive, got {e2e_target}")
        self.env = env
        self.topology = topology
        self.e2e_target = e2e_target
        self.retry = retry if retry is not None else RetryPolicy.none()
        self.backpressure = backpressure
        self.propagate_deadlines = propagate_deadlines
        reservations = reservations if reservations is not None else {}
        costs = costs if costs is not None else {}
        self.stats = GraphStats()
        self._nodes: Dict[str, _Node] = {
            n.name: _Node(
                n.name,
                len(topology.parents(n.name)),
                reservations.get(n.name, 0.0),
                costs.get(n.name, 0.0),
            )
            for n in topology.nodes
        }
        for node in self._nodes.values():
            node.children = tuple(
                (edge, self._nodes[edge.dst]) for edge in topology.children(node.name)
            )
        self._root = self._nodes[topology.root]
        self._n_nodes = len(topology.nodes)

    def register(self, name: str, managed: ManagedService) -> None:
        """Attach the managed service behind one topology node."""
        if name not in self._nodes:
            raise KeyError(f"{name!r} is not a topology node")
        node = self._nodes[name]
        node.route = managed.engine.route
        node.overload = managed.engine.overload
        node.retries = managed.metrics.retries

    # -- ingress ----------------------------------------------------------------
    def root_submit(self, query: Query) -> None:
        """Load-generator submit target for the root node.

        Pure bookkeeping before ``engine.route`` — no RNG draws and no
        event scheduling — so a single-node graph replays the flat
        scenario's event sequence bit-for-bit.
        """
        state = _RequestState(
            rid=query.qid,
            t_submit=query.t_submit,
            deadline=(query.t_submit + self.e2e_target) if self.propagate_deadlines else None,
            n_nodes=self._n_nodes,
        )
        self.stats.offered += 1
        self._attempt(self._root, state, None, query)

    # -- per-node attempts -------------------------------------------------------
    def _attempt(
        self,
        node: _Node,
        state: _RequestState,
        via: Optional[GraphEdge],
        query: Optional[Query] = None,
    ) -> None:
        """Issue one attempt at ``node`` (breaker-checked for interior nodes)."""
        if state.finished:
            return  # a retry that outlived its request
        name = node.name
        attempts = state.attempts
        attempts[name] = attempts.get(name, 0) + 1
        if self.backpressure and via is not None:
            gov = node.overload
            if gov is not None and gov.brownout(self.env.now):
                # shed at the ingress edge: the attempt is consumed without
                # the query ever entering the browned-out node's queue
                sheds = self.stats.backpressure_sheds
                sheds[via.key] = sheds.get(via.key, 0) + 1
                self._after_failure(node, state, via)
                return
        if query is None:
            query = Query(qid=state.rid, service=name, t_submit=self.env.now)
        if state.deadline is not None:
            query.t_deadline = state.deadline
            query.reserved = node.reserved

        def settled(query: Query) -> None:
            if state.finished:
                return
            if query.failed:
                self._after_failure(node, state, via)
            else:
                self._node_completed(node, state)

        query.on_done = settled
        node.route(query)

    # -- failure / retry ---------------------------------------------------------
    def _after_failure(self, node: _Node, state: _RequestState, via: Optional[GraphEdge]) -> None:
        """One attempt at ``node`` failed (platform drop or edge shed)."""
        attempts = state.attempts[node.name]
        remaining = None if state.deadline is None else state.deadline - self.env.now
        reason = self.retry.give_up_reason(attempts, remaining, node.attempt_cost)
        if reason is None:
            node.retries.add("attempted")
            backoff = self.retry.backoff_s * attempts
            self.env.schedule_callback(backoff, partial(self._attempt, node, state, via))
            return
        assert reason in RETRY_KINDS
        if attempts > 1 or reason != "exhausted":
            # "exhausted" after a single allowed attempt is just a
            # no-retry policy doing nothing; don't count it as give-up
            node.retries.add(reason)
        self._fail_request(node.name, state)

    def _fail_request(self, node: str, state: _RequestState) -> None:
        state.finished = True
        self.stats.failed += 1
        self.stats.failed_by_node[node] = self.stats.failed_by_node.get(node, 0) + 1

    # -- completion / fan-out ----------------------------------------------------
    def _node_completed(self, node: _Node, state: _RequestState) -> None:
        state.remaining -= 1
        for edge, child in node.children:
            self.env.schedule_callback(edge.network_s, partial(self._arrive, edge, child, state))
        if state.remaining == 0 and not state.finished:
            self._succeed(state)

    def _arrive(self, edge: GraphEdge, child: _Node, state: _RequestState) -> None:
        if state.finished:
            return
        name = child.name
        pending = state.pending.get(name, child.n_parents) - 1
        state.pending[name] = pending
        if pending > 0:
            return  # join: wait for the remaining parents
        self._attempt(child, state, edge)

    def _succeed(self, state: _RequestState) -> None:
        state.finished = True
        latency = self.env.now - state.t_submit
        self.stats.completed += 1
        self.stats.latencies.append(latency)
        if latency > self.e2e_target:
            self.stats.violations += 1
