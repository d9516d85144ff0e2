"""Cascade-determinism gates: the graph family replays bit-for-bit.

Three claims (DESIGN.md §13):

* a chain with a mid-chain brownout — retries, give-ups, backpressure
  sheds and all — is ``float.hex``-identical across runs;
* worker count is invisible: ``run_many`` over graph requests merges in
  submission order, so ``workers=2`` reproduces serial bit-for-bit;
* a single-node DAG with deadline propagation off *is* the flat
  scenario: same RNG stream names, same construction order, so the
  latency stream is bit-identical to ``run_amoeba`` on the equivalent
  flat scenario.
"""

import hashlib

import pytest

from repro.experiments.dag import dag_scenario
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.graphrun import run_graph
from repro.experiments.runner import run_amoeba
from repro.experiments.scenarios import Scenario, sized_reservoir
from repro.graph import GraphScenario, chain_topology
from repro.graph.runtime import GraphRuntime
from repro.workloads import ConstantTrace, benchmark


def _graph_hexes(result):
    assert result.graph is not None
    return [x.hex() for x in result.graph.latencies]


def _node_hexes(result, name):
    return [x.hex() for x in result.services[name].metrics.latencies.values()]


class TestCascadeDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_brownout_cascade_replays_hex_identically(self, seed):
        scenario = dag_scenario(3, seed=seed, day=60.0)
        a, b = run_graph(scenario), run_graph(scenario)
        assert _graph_hexes(a) == _graph_hexes(b)
        assert a.graph.retries == b.graph.retries
        assert a.graph.backpressure_sheds == b.graph.backpressure_sheds
        assert a.graph.failed_by_node == b.graph.failed_by_node
        for node in a.services:
            assert _node_hexes(a, node) == _node_hexes(b, node)

    def test_worker_count_is_invisible_to_graph_batches(self):
        requests = [
            RunRequest(system="graph", scenario=dag_scenario(3, day=60.0)),
            RunRequest(system="graph", scenario=dag_scenario(3, day=60.0, resilient=False)),
        ]
        serial = run_many(requests, workers=1, cache=False)
        fanned = run_many(requests, workers=2, cache=False)
        for a, b in zip(serial, fanned):
            assert _graph_hexes(a) == _graph_hexes(b)
            assert a.graph.retries == b.graph.retries

    def test_cascade_machinery_actually_engages(self):
        # the brownout must provoke retries, give-ups and backpressure —
        # a cascade test against a quiet graph would prove nothing
        result = run_graph(dag_scenario(4, day=60.0))
        g = result.graph
        assert g.retries["attempted"] > 0
        assert g.retries["exhausted"] + g.retries["deadline_abandoned"] > 0
        assert g.total_backpressure_sheds > 0
        assert g.failed > 0 and g.completed > 0

    def test_cascade_dies_at_its_origin_edge(self):
        # a browned-out node sheds at its *ingress* edge; nothing past it
        # ever sees the doomed request, so edges downstream of the
        # brownout stay shed-free — the cascade dies where it starts
        scenario = dag_scenario(4, day=60.0)
        result = run_graph(scenario)
        g = result.graph
        mid = scenario.brownout.node
        into_mid = sum(c for k, c in g.backpressure_sheds.items() if k.endswith(f"->{mid}"))
        assert into_mid > 0
        downstream = [k for k in g.backpressure_sheds if k.startswith(f"{mid}->")]
        assert all(g.backpressure_sheds[k] == 0 for k in downstream)

    def test_depth1_root_offers_what_the_depth2_root_offers(self):
        # the depth-1 brownout lands on the root; it draws its own stream
        # instead of taking candidates from the root's arrival process
        offered = {d: run_graph(dag_scenario(d, day=60.0)).graph.offered for d in (1, 2)}
        assert offered[1] == offered[2]


def _failure_history(resilient):
    """Every drop, retry, edge shed and breaker edge of one depth-4 leg."""
    gr = GraphRuntime(dag_scenario(4, seed=0, day=120.0, resilient=resilient))
    gr.run()
    g = gr.summary()
    nodes = gr.services.items()
    return {
        "drops": {n: {k: v for k, v in m.metrics.drops.items() if v} for n, m in nodes},
        "retries": {n: {k: v for k, v in m.metrics.retries.items() if v} for n, m in nodes},
        "sheds": dict(g.backpressure_sheds),
        "transitions": {n: m.overload.breaker.transitions for n, m in nodes},
        "graph": (g.offered, g.completed, g.failed),
        "latency_sha256": hashlib.sha256(" ".join(x.hex() for x in g.latencies).encode()).hexdigest(),
    }


class TestFailurePathPins:
    """The failed-attempt history of the dag pair at seed 0, as literals.

    Recorded before the drop sites were merged into one function; any
    rewrite of the rejected, shed or retried attempt must bring every
    value back unchanged.
    """

    def test_budgeted_leg(self):
        assert _failure_history(resilient=True) == {
            "drops": {
                "matmul": {"admission": 2, "shed": 60},
                "matmul_1": {"admission": 57, "shed": 5},
                "matmul_2": {"admission": 1067, "shed": 1999},
                "matmul_3": {},
            },
            "retries": {
                "matmul": {"attempted": 36, "deadline_abandoned": 26},
                "matmul_1": {"attempted": 170, "exhausted": 82, "deadline_abandoned": 311},
                "matmul_2": {"attempted": 44, "exhausted": 22, "deadline_abandoned": 6},
                "matmul_3": {},
            },
            "sheds": {"matmul_1->matmul_2": 72, "matmul->matmul_1": 501},
            "transitions": {
                "matmul": [
                    (52.43722124552893, "open"),
                    (112.43722124552893, "half_open"),
                    (113.94539386396538, "closed"),
                ],
                "matmul_1": [
                    (54.371516559519534, "open"),
                    (114.37151655951953, "half_open"),
                    (118.33518310131383, "open"),
                ],
                "matmul_2": [
                    (31.63248429541589, "open"),
                    (91.63248429541589, "half_open"),
                    (95.99394009178017, "open"),
                ],
                "matmul_3": [],
            },
            "graph": (603, 154, 447),
            "latency_sha256": "c23698293492eac756be0285ee6f33a64ab0ed9f0491e4326729306dc5a8aa5e",
        }

    def test_naive_leg(self):
        assert _failure_history(resilient=False) == {
            "drops": {
                "matmul": {"admission": 82, "shed": 1092, "breaker": 252},
                "matmul_1": {"shed": 126},
                "matmul_2": {"shed": 2149, "breaker": 4001},
                "matmul_3": {"shed": 47},
            },
            "retries": {
                "matmul": {"attempted": 1426},
                "matmul_1": {"attempted": 126},
                "matmul_2": {"attempted": 2859},
                "matmul_3": {"attempted": 47},
            },
            "sheds": {},
            "transitions": {
                "matmul": [
                    (17.407470311413757, "open"),
                    (77.40747031141376, "half_open"),
                    (78.00100935961011, "open"),
                ],
                "matmul_1": [(64.2653872261218, "open")],
                "matmul_2": [
                    (32.89409849827536, "open"),
                    (92.89409849827535, "half_open"),
                    (93.66045676201034, "open"),
                ],
                "matmul_3": [(103.91621571452542, "open")],
            },
            "graph": (603, 238, 0),
            "latency_sha256": "7e95553bc5d0981d63e4ce882a989b8304a211865d37a5aee3d2659cb6942a66",
        }


class TestSingleNodeFlatIdentity:
    def test_single_node_dag_is_bit_identical_to_the_flat_scenario(self):
        day, rate, limit = 120.0, 3.0, 8
        trace = ConstantTrace(rate)
        reservoir = sized_reservoir(trace, day)
        graph = GraphScenario(
            name="single-node-identity",
            topology=chain_topology(1, "float"),
            trace=trace,
            e2e_target=benchmark("float").qos_target,
            duration=day,
            seed=5,
            retry=None,
            propagate_deadlines=False,
            iaas_peak_rate=rate,
            reservoir=reservoir,
            limits=(limit,),
        )
        flat = Scenario(
            foreground=benchmark("float"),
            trace=trace,
            limit=limit,
            background=(),
            duration=day,
            seed=5,
            iaas_peak_rate=rate,
            reservoir=reservoir,
        )
        g = run_graph(graph)
        a = run_amoeba(flat)
        assert _node_hexes(g, "float") == _node_hexes(a, "float")
        # the orchestrator's own accounting agrees with the service metrics
        assert g.graph.completed == g.services["float"].metrics.completed
        assert g.graph.failed == 0 and g.graph.total_backpressure_sheds == 0
