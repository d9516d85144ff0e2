"""The ``dag`` sweep: scenario construction, the ablation table, the CLI."""

import pytest

from repro.experiments.dag import (
    DEFAULT_DEPTHS,
    E2E_PER_NODE,
    NOMINAL_RATE,
    OVERLOAD_FACTOR,
    VIOLATION_BOUND,
    dag_scenario,
    dag_sweep,
    storm_comparison,
)
from repro.graph import RetryPolicy


def _row_hexes(figure):
    return [[x.hex() if isinstance(x, float) else x for x in row] for row in figure.rows]


class TestDagScenario:
    def test_resilient_scenario_shape(self):
        s = dag_scenario(4, seed=3, day=90.0)
        assert s.name == "dag-chain4-budgeted"
        assert len(s.topology.nodes) == 4
        assert s.retry == RetryPolicy.budgeted()
        assert s.backpressure and s.propagate_deadlines
        assert s.e2e_target == pytest.approx(E2E_PER_NODE * 4)
        assert s.trace.peak_rate == pytest.approx(NOMINAL_RATE * OVERLOAD_FACTOR)
        assert s.iaas_peak_rate == NOMINAL_RATE
        # the brownout lands on the middle node, middle half of the run
        assert s.brownout.node == "matmul_2"
        assert s.brownout.t_start == pytest.approx(0.25 * 90.0)
        assert s.brownout.t_end == pytest.approx(0.75 * 90.0)

    def test_naive_scenario_disables_the_resilience_stack(self):
        s = dag_scenario(4, resilient=False)
        assert s.name == "dag-chain4-naive"
        assert s.retry == RetryPolicy.storm()
        assert not s.backpressure and not s.propagate_deadlines

    def test_scenarios_fingerprint_distinctly(self):
        from repro.experiments.cache import fingerprint
        from repro.experiments.executor import RunRequest

        a = RunRequest(system="graph", scenario=dag_scenario(2))
        b = RunRequest(system="graph", scenario=dag_scenario(2, resilient=False))
        c = RunRequest(system="graph", scenario=dag_scenario(2, seed=1))
        assert len({fingerprint(r) for r in (a, b, c)}) == 3


class TestDagSweep:
    def test_sweep_rows_and_worker_invariance(self):
        kw = dict(day=45.0, seed=0, depths=(1, 2))
        serial = dag_sweep(workers=1, cache=False, **kw)
        fanned = dag_sweep(workers=2, cache=False, **kw)
        assert _row_hexes(serial) == _row_hexes(fanned)
        assert len(serial.rows) == 4  # two depths x {budgeted, naive}
        assert serial.headers[:2] == ["depth", "retry"]
        assert {row[1] for row in serial.rows} == {"budgeted", "naive"}
        assert set(serial.extras["summaries"]) == {1, 2}

    def test_sweep_rejects_empty_depths(self):
        with pytest.raises(ValueError, match="depth"):
            dag_sweep(depths=())

    def test_default_depths_cover_the_gate_point(self):
        assert 4 in DEFAULT_DEPTHS

    def test_storm_comparison_returns_both_legs(self):
        pair = storm_comparison(depth=2, day=45.0, workers=1, cache=False)
        assert set(pair) == {"budgeted", "naive"}
        assert all(s.offered > 0 for s in pair.values())

    def test_storm_acceptance_at_depth_4(self):
        """The retry-storm gate: 2.5x overload, 4-deep chain, mid-chain
        brownout.  The budgeted stack holds QoS, the naive client
        measurably storms, and both legs are worker-count invariant."""
        kw = dict(depth=4, seed=0, day=120.0, cache=False)
        serial = storm_comparison(workers=1, **kw)
        fanned = storm_comparison(workers=2, **kw)
        for leg in ("budgeted", "naive"):
            a, b = serial[leg], fanned[leg]
            assert [x.hex() for x in a.latencies] == [x.hex() for x in b.latencies], leg
            assert a.retries == b.retries, leg
        budgeted, naive = serial["budgeted"], serial["naive"]
        assert budgeted.violation_fraction <= VIOLATION_BOUND
        assert naive.violation_fraction >= 0.25
        assert naive.retries["attempted"] >= 5 * max(1, budgeted.retries["attempted"])


def test_cli_dag_target(capsys):
    from repro.experiments.__main__ import main

    assert main(["dag", "--day", "45", "--depth", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "budgeted" in out and "naive" in out and "[dag:" in out
