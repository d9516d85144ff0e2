"""Import-graph algorithms: SCCs, cycles, topological proof of acyclicity."""

from __future__ import annotations

from repro.analysis.graph import cycles, strongly_connected_components, topological_order


def test_sccs_isolate_the_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    components = strongly_connected_components(graph)
    assert ("a", "b", "c") in components
    assert ("d",) in components


def test_cycles_reports_only_nontrivial_components():
    graph = {"a": {"b"}, "b": {"a"}, "c": set()}
    assert cycles(graph) == [("a", "b")]
    assert cycles({"x": {"y"}, "y": set()}) == []


def test_self_loop_is_a_cycle():
    assert cycles({"a": {"a"}}) == [("a",)]


def test_topological_order_is_dependencies_first():
    graph = {"top": {"mid"}, "mid": {"base"}, "base": set()}
    order = topological_order(graph)
    assert order is not None
    assert order.index("base") < order.index("mid") < order.index("top")


def test_topological_order_none_on_cycle():
    assert topological_order({"a": {"b"}, "b": {"a"}}) is None


def test_deterministic_output():
    graph = {"b": {"a"}, "c": {"a"}, "a": set()}
    assert topological_order(graph) == topological_order(dict(reversed(list(graph.items()))))
