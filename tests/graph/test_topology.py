"""Topology validation and the deterministic seeded builders."""

import pytest

from repro.graph import (
    GraphEdge,
    GraphNode,
    GraphTopology,
    chain_topology,
    edge_network_cost,
    fanout_topology,
)


def _n(*names):
    return tuple(GraphNode(name, "matmul") for name in names)


class TestValidation:
    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            GraphTopology(nodes=(), edges=())

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate node names"):
            GraphTopology(nodes=_n("a", "a"), edges=())

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            GraphTopology(nodes=_n("a"), edges=(GraphEdge("a", "ghost"),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            GraphTopology(
                nodes=_n("a", "b"), edges=(GraphEdge("a", "b"), GraphEdge("a", "b", 0.01))
            )

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="self-edge"):
            GraphEdge("a", "a")

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            GraphTopology(
                nodes=_n("a", "b", "c"),
                edges=(GraphEdge("a", "b"), GraphEdge("b", "c"), GraphEdge("c", "b")),
            )

    def test_multiple_roots_rejected(self):
        with pytest.raises(ValueError, match="exactly one root"):
            GraphTopology(nodes=_n("a", "b", "c"), edges=(GraphEdge("a", "c"),))

    def test_unreachable_node_rejected(self):
        # b -> c hangs off to the side; a is the only root but c's parent
        # chain never connects back to it
        with pytest.raises(ValueError, match="exactly one root|unreachable"):
            GraphTopology(
                nodes=_n("a", "b", "c"),
                edges=(GraphEdge("b", "c"),),
            )

    def test_negative_network_cost_rejected(self):
        with pytest.raises(ValueError, match="network_s"):
            GraphEdge("a", "b", network_s=-0.001)

    def test_bad_exec_scale_rejected(self):
        with pytest.raises(ValueError, match="exec_scale"):
            GraphNode("a", "matmul", exec_scale=0.0)


class TestStructure:
    def test_chain_shape(self):
        topo = chain_topology(4, "matmul")
        assert [n.name for n in topo.nodes] == ["matmul", "matmul_1", "matmul_2", "matmul_3"]
        assert topo.root == "matmul"
        assert topo.sinks() == ("matmul_3",)
        assert topo.topo_order() == ("matmul", "matmul_1", "matmul_2", "matmul_3")

    def test_single_node_chain_keeps_bare_benchmark_name(self):
        # index 0 keeps the bare name so a 1-node DAG reuses the flat
        # scenario's RNG stream names (the bit-identity gate's premise)
        topo = chain_topology(1, "float")
        assert topo.nodes[0].name == "float"
        assert topo.edges == ()

    def test_fanout_joins_at_single_sink(self):
        topo = fanout_topology(3, "matmul")
        assert topo.root == "matmul"
        assert topo.sinks() == ("matmul_join",)
        assert len(topo.parents("matmul_join")) == 3
        assert len(topo.edges) == 6

    def test_node_lookup(self):
        topo = chain_topology(2)
        assert topo.node("matmul_1").benchmark == "matmul"
        with pytest.raises(KeyError):
            topo.node("ghost")

    def test_describe_mentions_size(self):
        assert "4 nodes" in chain_topology(4).describe()


class TestDeterminism:
    def test_edge_cost_is_a_pure_function_of_seed_and_edge(self):
        a = edge_network_cost(7, 0, 1)
        b = edge_network_cost(7, 0, 1)
        assert a.hex() == b.hex()
        assert edge_network_cost(7, 1, 2) != a
        assert edge_network_cost(8, 0, 1) != a

    def test_edge_costs_do_not_depend_on_draw_order(self):
        # draw edge (2,3) first in one ordering, last in another
        first = [edge_network_cost(3, i, i + 1) for i in (2, 0, 1)]
        second = [edge_network_cost(3, i, i + 1) for i in (0, 1, 2)]
        assert first[0].hex() == second[2].hex()

    def test_seeded_builders_are_reproducible(self):
        assert chain_topology(4, seed=5) == chain_topology(4, seed=5)
        assert fanout_topology(3, seed=5) == fanout_topology(3, seed=5)
        assert chain_topology(4, seed=5) != chain_topology(4, seed=6)

    @pytest.mark.parametrize("build", [lambda: chain_topology(5, seed=3), lambda: fanout_topology(4, seed=3)])
    def test_seeded_builders_give_single_rooted_dags(self, build):
        topo = build()
        order = topo.topo_order()
        assert topo.root == order[0]
        assert topo.sinks() == (order[-1],)
        assert sorted(order) == sorted(n.name for n in topo.nodes)

    def test_unseeded_builders_use_the_fixed_network_cost(self):
        for topo in (chain_topology(3, network_s=0.02), fanout_topology(2, network_s=0.02)):
            assert {e.network_s for e in topo.edges} == {0.02}
