"""Fleet generator + fleet sweep: determinism, normalization, validation.

Quick-tier pieces cover the generator's contracts (pure config-time
code) and the sweep's worker-count identity; the other sweep and
analytic-validation tests run real simulations and sit in the slow tier
with the other full-system runs.
"""

import math

import pytest

from repro.core.meters import expected_platform_overhead
from repro.sim.queueing import sojourn_quantile
from repro.experiments.fleet import (
    FLEET_DAY,
    analytic_service_prediction,
    fleet_scenarios,
    fleet_sweep,
    generate_fleet,
)
from repro.experiments.runner import run_openwhisk
from repro.experiments.scenarios import Scenario
from repro.serverless.config import ServerlessConfig
from repro.workloads.fleet import fleet_daily_queries
from repro.workloads.functionbench import benchmark_names
from repro.workloads.traces import ConstantTrace


def _fingerprint(fleet):
    """Everything that defines a fleet, as hex-exact floats."""
    return [
        (
            s.index,
            s.family,
            s.spec.name,
            s.spec.exec_time.hex(),
            s.spec.qos_target.hex(),
            s.trace.peak_rate.hex(),
            s.trace.phase.hex(),
            s.trace.low_fraction.hex(),
            s.trace.morning_fraction.hex(),
            s.trace.noise_sigma.hex(),
            s.limit,
            s.mean_rate.hex(),
        )
        for s in fleet
    ]


class TestGenerateFleet:
    def test_same_seed_is_identical(self):
        a = generate_fleet(20, daily_queries=1e6, day=600.0, seed=5)
        b = generate_fleet(20, daily_queries=1e6, day=600.0, seed=5)
        assert _fingerprint(a) == _fingerprint(b)

    def test_different_seed_differs(self):
        a = generate_fleet(20, daily_queries=1e6, day=600.0, seed=5)
        b = generate_fleet(20, daily_queries=1e6, day=600.0, seed=6)
        assert _fingerprint(a) != _fingerprint(b)

    def test_aggregate_normalization(self):
        for services, daily in ((10, 2e5), (50, 1e6), (120, 5e6)):
            fleet = generate_fleet(services, daily_queries=daily, day=600.0, seed=1)
            assert fleet_daily_queries(fleet) == pytest.approx(daily, rel=1e-9)

    def test_family_mix_cycles_all_benchmarks(self):
        fleet = generate_fleet(10, daily_queries=1e6, day=600.0, seed=0)
        assert {s.family for s in fleet} == set(benchmark_names())
        # renamed per member: no registry collisions across the fleet
        names = [s.spec.name for s in fleet]
        assert len(set(names)) == len(names)

    def test_heterogeneity(self):
        fleet = generate_fleet(25, daily_queries=1e6, day=600.0, seed=2)
        floats = [s for s in fleet if s.family == "float"]
        assert len({s.spec.exec_time for s in floats}) == len(floats)
        assert len({s.trace.phase for s in fleet}) == len(fleet)

    def test_drawn_params_are_prefix_stable(self):
        small = generate_fleet(10, daily_queries=1e6, day=600.0, seed=3)
        large = generate_fleet(30, daily_queries=1e6, day=600.0, seed=3)
        for a, b in zip(small, large):
            # per-(seed, index) streams: everything but the shared
            # normalization scale survives a fleet-size change
            assert a.spec.exec_time == b.spec.exec_time
            assert a.trace.phase == b.trace.phase
            assert a.trace.noise_sigma == b.trace.noise_sigma
            ratio = b.trace.peak_rate / a.trace.peak_rate
            ratio0 = large[0].trace.peak_rate / small[0].trace.peak_rate
            assert ratio == pytest.approx(ratio0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_fleet(0)
        with pytest.raises(ValueError):
            generate_fleet(5, daily_queries=0.0)
        with pytest.raises(ValueError):
            generate_fleet(5, day=-1.0)

    def test_analytic_prediction_consistent_with_queueing(self):
        fleet = generate_fleet(5, daily_queries=1e6, day=600.0, seed=4)
        cfg = ServerlessConfig()
        for svc in fleet:
            rho, p95 = analytic_service_prediction(svc, cfg)
            mu0 = 1.0 / (svc.spec.exec_time + expected_platform_overhead(svc.spec, cfg))
            assert rho == pytest.approx(svc.mean_rate / (svc.limit * mu0))
            if rho < 1.0:
                assert p95 == sojourn_quantile(0.95, svc.mean_rate, mu0, svc.limit)
                assert math.isfinite(p95)


class TestFleetScenarios:
    def test_scenarios_are_independent_and_seed_spread(self):
        pairs = fleet_scenarios(services=8, daily_queries=5e5, day=300.0, seed=0)
        assert len(pairs) == 8
        seeds = {scenario.seed for _, scenario in pairs}
        assert len(seeds) == 8
        for svc, scenario in pairs:
            assert scenario.foreground is svc.spec
            assert scenario.background == ()
            assert scenario.ambient == ()
            assert scenario.reservoir is not None and scenario.reservoir >= 20_000

    def test_default_day(self):
        assert FLEET_DAY == 600.0


# everything below runs real simulations; all but the worker-count
# identity gate sit in the slow tier
_SWEEP_KW = dict(services=6, daily_queries=3e5, day=150.0)


class TestFleetSweep:
    @pytest.mark.slow
    def test_sweep_deterministic_same_seed(self):
        a = fleet_sweep(seed=9, workers=1, cache=False, **_SWEEP_KW)
        b = fleet_sweep(seed=9, workers=1, cache=False, **_SWEEP_KW)
        assert _hexes(a) == _hexes(b)

    @pytest.mark.slow
    def test_sweep_differs_across_seeds(self):
        a = fleet_sweep(seed=9, workers=1, cache=False, **_SWEEP_KW)
        b = fleet_sweep(seed=10, workers=1, cache=False, **_SWEEP_KW)
        assert _hexes(a) != _hexes(b)

    def test_serial_vs_parallel_identical(self):
        serial = fleet_sweep(seed=9, workers=1, cache=False, **_SWEEP_KW)
        parallel = fleet_sweep(seed=9, workers=3, cache=False, **_SWEEP_KW)
        assert _hexes(serial) == _hexes(parallel)
        assert all(row[2] > 0 for row in serial.extras["per_service"])

    @pytest.mark.slow
    def test_report_shape(self):
        fig = fleet_sweep(seed=9, workers=1, cache=False, **_SWEEP_KW)
        assert fig.figure == "fleet"
        assert len(fig.extras["per_service"]) == _SWEEP_KW["services"]
        families = {row[0] for row in fig.rows}
        assert families <= set(benchmark_names())
        for row in fig.rows:
            completed = row[3]
            assert completed > 0
        assert fig.extras["total_completed"] == sum(r[3] for r in fig.rows)


def _hexes(figure):
    return [
        [x.hex() if isinstance(x, float) else x for x in row]
        for row in figure.extras["per_service"]
    ]


@pytest.mark.slow
class TestAnalyticValidation:
    """Quiescent constant-rate slice vs. the Eq. 1–4 references.

    A fleet member held at a constant sub-ceiling rate on the pure
    serverless platform is (up to lognormal service-time shape and the
    cold-start transient) an M/M/N queue with μ₀ = 1/(exec + α) and
    N = limit — the regime where the log-space queueing math must agree
    with the simulator, not just with itself.
    """

    def _run_quiescent(self, svc, rate, duration=1500.0, seed=11):
        scenario = Scenario(
            foreground=svc.spec,
            trace=ConstantTrace(rate),
            limit=svc.limit,
            background=(),
            duration=duration,
            seed=seed,
            reservoir=max(20_000, int(3 * rate * duration)),
        )
        result = run_openwhisk(scenario)
        return result.services[svc.spec.name], scenario

    def test_utilization_matches_rho(self):
        fleet = generate_fleet(10, daily_queries=2e6, day=600.0, seed=1)
        svc = max(fleet, key=lambda s: s.limit)
        cfg = ServerlessConfig()
        mu0 = 1.0 / (svc.spec.exec_time + expected_platform_overhead(svc.spec, cfg))
        rate = 0.6 * svc.limit * mu0
        sr, scenario = self._run_quiescent(svc, rate)
        rho = rate / (svc.limit * mu0)
        observed = sr.serverless_busy_seconds / (scenario.duration * svc.limit)
        assert observed == pytest.approx(rho, rel=0.12)

    def test_p95_matches_analytic_sojourn(self):
        fleet = generate_fleet(10, daily_queries=2e6, day=600.0, seed=1)
        svc = max(fleet, key=lambda s: s.limit)
        cfg = ServerlessConfig()
        mu0 = 1.0 / (svc.spec.exec_time + expected_platform_overhead(svc.spec, cfg))
        rate = 0.6 * svc.limit * mu0
        sr, _ = self._run_quiescent(svc, rate)
        assert sr.metrics.latency_sample_exact
        assert sr.metrics.completed >= 500
        observed = sr.metrics.latency_percentile(95.0)
        predicted = sojourn_quantile(0.95, rate, mu0, svc.limit)
        # lognormal exec jitter (cs² < 1) makes M/M/N conservative on the
        # wait tail; the sojourn body still tracks 1/μ₀ closely
        assert 0.6 * predicted <= observed <= 1.25 * predicted
