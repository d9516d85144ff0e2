"""Import-graph algorithms: condensation, cycles, topological layers.

Pure functions over adjacency dicts ``{node: {dependency, ...}}``; the
ARCH rules build the package-level graph from the module table and use
these to *prove* the dependency DAG acyclic (Tarjan strongly-connected
components) and to derive a layering order (Kahn) for reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

__all__ = ["cycles", "strongly_connected_components", "topological_order"]

Graph = Dict[str, Set[str]]


def _normalized(graph: Graph) -> Dict[str, Tuple[str, ...]]:
    """Deterministic adjacency: every referenced node present, edges sorted."""
    nodes = set(graph)
    for deps in graph.values():
        nodes |= deps
    return {node: tuple(sorted(graph.get(node, ()))) for node in sorted(nodes)}


def strongly_connected_components(graph: Graph) -> List[Tuple[str, ...]]:
    """Tarjan's SCCs, deterministically ordered, members sorted.

    Iterative (explicit stack) so pathological import chains cannot hit
    the recursion limit; components come out in reverse-topological
    order of the condensation, which we re-sort lexicographically for
    stable reports.
    """
    adj = _normalized(graph)
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Tuple[str, ...]] = []
    counter = 0

    for root in adj:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            neighbours = adj[node]
            while edge_i < len(neighbours):
                succ = neighbours[edge_i]
                edge_i += 1
                if succ not in index:
                    work[-1] = (node, edge_i)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(tuple(sorted(component)))
    return sorted(components)


def cycles(graph: Graph) -> List[Tuple[str, ...]]:
    """Non-trivial SCCs (size > 1, or a self-loop): the import cycles."""
    out = []
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            out.append(component)
        elif component[0] in graph.get(component[0], ()):
            out.append(component)
    return out


def topological_order(graph: Graph) -> Optional[List[str]]:
    """Kahn's order (dependencies first), or None when the graph cycles.

    A non-None return is the acyclicity proof the ARCH gate reports: a
    linear order in which every package appears after everything it
    imports.
    """
    adj = _normalized(graph)
    indegree = {node: 0 for node in adj}
    # emit dependencies first: each importer waits on its dependencies,
    # so its indegree is its dependency count (self-loops never drain)
    importers: Dict[str, List[str]] = {node: [] for node in adj}
    for node, deps in adj.items():
        for dep in deps:
            importers[dep].append(node)
            indegree[node] += 1
    ready = sorted(node for node, degree in indegree.items() if degree == 0)
    order: List[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for importer in sorted(importers[node]):
            indegree[importer] -= 1
            if indegree[importer] == 0:
                ready.append(importer)
        ready.sort()
    if len(order) != len(adj):
        return None
    return order
