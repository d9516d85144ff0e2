"""The spot sweep: zero-preemption inertness, the storm gate, the frontier."""

from dataclasses import replace

import pytest

from repro.cluster import SpotSpec
from repro.core import InvariantViolation
from repro.experiments import executor
from repro.experiments.dag import dag_scenario
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.fleet import fleet_scenarios
from repro.experiments.runner import run_amoeba
from repro.experiments.scenarios import (
    chaos_scenario,
    default_scenario,
    overload_scenario,
    spot_scenario,
)
from repro.experiments.spot import (
    GRACEFUL_VIOLATION_BOUND,
    HARDKILL_VIOLATION_FLOOR,
    preemption_comparison,
    spot_comparison_scenario,
    spot_sweep,
)
from repro.faults import FaultPlan
from repro.overload import OverloadPolicy
from repro.telemetry import ServiceMetrics


def _latency_hex(result, name="matmul"):
    return [x.hex() for x in result.services[name].metrics.latencies.values()]


def _row_hexes(figure):
    return [[x.hex() if isinstance(x, float) else x for x in row] for row in figure.rows]


class TestZeroPreemptionIdentity:
    """Spot capacity with a zero-preemption plan is invisible to the sim.

    The bit-identity gate: attaching the new spot/fault fields at
    probability 0.0 to every scenario family leaves the latency stream
    ``float.hex``-identical.
    """

    def test_default_scenario(self):
        sc = default_scenario("matmul", day=600.0, seed=3)
        plain = run_amoeba(sc)
        spotted = run_amoeba(
            replace(sc, spot=SpotSpec(fraction=0.5), faults=FaultPlan())
        )
        assert spotted.faults is not None and spotted.faults.total_injected == 0
        assert _latency_hex(spotted) == _latency_hex(plain)

    def test_chaos_scenario_with_nonzero_other_faults(self):
        sc = chaos_scenario("matmul", fault_scale=1.0, day=600.0, seed=3)
        assert sc.faults is not None and sc.faults.vm_preemption_prob == 0.0
        plain = run_amoeba(sc)
        spotted = run_amoeba(replace(sc, spot=SpotSpec(fraction=0.5)))
        assert _latency_hex(spotted) == _latency_hex(plain)

    def test_overload_scenario(self):
        sc = overload_scenario("matmul", policy=OverloadPolicy(), day=600.0, seed=3)
        plain = run_amoeba(sc)
        spotted = run_amoeba(replace(sc, spot=SpotSpec(fraction=0.5)))
        assert _latency_hex(spotted) == _latency_hex(plain)
        assert plain.overload is not None and spotted.overload is not None
        preemptions = spotted.services["matmul"].metrics.preemptions
        assert preemptions == plain.services["matmul"].metrics.preemptions
        assert preemptions["noticed"] == 0

    def test_fleet_member_scenario(self):
        _, sc = fleet_scenarios(services=1, day=300.0, seed=0)[0]
        plain = run_amoeba(sc)
        spotted = run_amoeba(
            replace(sc, spot=SpotSpec(fraction=0.5), faults=FaultPlan())
        )
        name = sc.foreground.name
        assert _latency_hex(spotted, name) == _latency_hex(plain, name)

    def test_dag_scenario(self):
        sc = dag_scenario(2, seed=0, day=45.0)
        assert sc.faults is None
        plain, zeroed = run_many(
            [
                RunRequest(system="graph", scenario=sc),
                RunRequest(system="graph", scenario=replace(sc, faults=FaultPlan())),
            ],
            workers=1,
            cache=False,
        )
        assert plain.graph is not None and zeroed.graph is not None
        assert [x.hex() for x in zeroed.graph.latencies] == [
            x.hex() for x in plain.graph.latencies
        ]


class TestStormGate:
    """The preemption-storm gate: the drain-vs-hard-kill pair."""

    def test_comparison_scenario_pins_the_iaas_path(self):
        sc = spot_comparison_scenario(graceful=True)
        assert sc.spot is not None and sc.spot.graceful
        assert sc.faults is not None and sc.faults.vm_preemption_prob == 1.0
        assert sc.background == () and sc.ambient == ()
        hard = spot_comparison_scenario(graceful=False)
        assert hard.spot is not None and not hard.spot.graceful

    def test_graceful_beats_hardkill_by_the_gate_margins(self):
        runs = preemption_comparison(cache=False)
        graceful = runs["graceful"].services["matmul"].metrics
        hardkill = runs["hardkill"].services["matmul"].metrics
        assert graceful.violation_fraction_with_failures <= GRACEFUL_VIOLATION_BOUND
        assert hardkill.violation_fraction_with_failures > HARDKILL_VIOLATION_FLOOR
        assert graceful.preemptions["noticed"] == 1
        assert graceful.preemptions["killed_inflight"] == 0
        assert hardkill.preemptions["killed_inflight"] >= 1

    def test_worker_count_matrix_is_hex_invariant(self):
        serial = preemption_comparison(workers=1, cache=False)
        fanned = preemption_comparison(workers=2, cache=False)
        for leg in ("graceful", "hardkill"):
            a = serial[leg].services["matmul"].metrics
            b = fanned[leg].services["matmul"].metrics
            assert [x.hex() for x in a.latencies.values()] == [
                x.hex() for x in b.latencies.values()
            ]
            assert a.preemptions == b.preemptions


class TestSpotSweep:
    def test_frontier_rows_and_worker_invariance(self):
        kw = dict(day=600.0, seed=0, probs=(1.0,), spikes=(0.0,), cache=False)
        serial = spot_sweep(workers=1, **kw)
        fanned = spot_sweep(workers=2, **kw)
        assert _row_hexes(serial) == _row_hexes(fanned)
        assert serial.headers[:3] == ["preempt_p", "spike", "mode"]
        assert [row[2] for row in serial.rows] == ["ondemand", "graceful", "hardkill"]
        by_mode = {row[2]: row for row in serial.rows}
        cols = {h: i for i, h in enumerate(serial.headers)}
        # the on-demand baseline is its own cost denominator
        assert by_mode["ondemand"][cols["savings"]] == 0.0
        assert by_mode["ondemand"][cols["noticed"]] == 0
        # guaranteed reclamation: the graceful leg notices and replaces
        assert by_mode["graceful"][cols["noticed"]] == 1
        assert by_mode["graceful"][cols["replaced"]] == 1
        assert by_mode["graceful"][cols["killed"]] == 0
        assert by_mode["hardkill"][cols["replaced"]] == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            spot_sweep(probs=(), spikes=(0.0,))
        with pytest.raises(ValueError):
            spot_sweep(probs=(0.5,), spikes=())


class TestExecutorAttribution:
    def test_attributed_message_carries_run_identity(self):
        request = RunRequest(
            system="amoeba", scenario=default_scenario("matmul", day=60.0, seed=9)
        )
        exc = InvariantViolation(
            "books off", invariant="conservation", service="matmul"
        )
        out = executor._attributed(exc, "abcdef0123456789", request)
        text = str(out)
        assert "conservation" in text
        assert "amoeba/" in text and "matmul" in text
        assert "fingerprint abcdef012345" in text
        assert "books off" in text
        assert out.invariant == "conservation" and out.service == "matmul"

    @pytest.mark.parametrize("system", ["amoeba", "nameko", "openwhisk"])
    def test_run_many_attributes_a_violating_run(self, system, monkeypatch):
        """Every system runs under the monitor: a lost completion is caught."""
        record = ServiceMetrics.record_completion
        lost = []

        def lossy(metrics, query):
            # the foreground ledger silently drops its first completion
            if metrics.service == "matmul" and not query.canary and not lost:
                lost.append(query)
                return
            record(metrics, query)

        monkeypatch.setattr(ServiceMetrics, "record_completion", lossy)
        request = RunRequest(
            system=system, scenario=default_scenario("matmul", day=60.0, seed=9)
        )
        with pytest.raises(InvariantViolation) as caught:
            run_many([request], workers=1, cache=False)
        assert lost
        assert "fingerprint" in str(caught.value)
        assert f"{system}/matmul" in str(caught.value)
        assert caught.value.invariant == "conservation"
        assert caught.value.service == "matmul"


def test_cli_spot_target(capsys):
    from repro.experiments.__main__ import main

    assert main(["spot", "--day", "90", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "spot preemption x flash crowds" in out
    assert "ondemand" in out and "graceful" in out and "hardkill" in out
    assert "[spot:" in out
