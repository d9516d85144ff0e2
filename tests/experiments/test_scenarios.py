"""Scenario construction and the concurrency threshold."""

import pytest

from repro.core.meters import expected_platform_overhead
from repro.sim.queueing import max_arrival_rate
from repro.experiments.scenarios import (
    PEAK_RATES,
    SERVERLESS_FRACTIONS,
    ambient_pressure_traces,
    background_services,
    concurrency_threshold,
    default_scenario,
)
from repro.serverless.config import ServerlessConfig
from repro.workloads.functionbench import benchmark, benchmark_names


class TestConcurrencyThreshold:
    def test_threshold_reaches_target(self):
        spec = benchmark("float")
        cfg = ServerlessConfig()
        n = concurrency_threshold(spec, 30.0, fraction=0.8, cfg=cfg)
        mu0 = 1.0 / (spec.exec_time + expected_platform_overhead(spec, cfg))
        assert max_arrival_rate(mu0, n, spec.qos_target) >= 0.8 * 30.0
        if n > 1:
            assert max_arrival_rate(mu0, n - 1, spec.qos_target) < 0.8 * 30.0

    def test_higher_fraction_needs_no_fewer_containers(self):
        spec = benchmark("matmul")
        lo = concurrency_threshold(spec, 12.0, fraction=0.6)
        hi = concurrency_threshold(spec, 12.0, fraction=1.2)
        assert hi >= lo

    def test_validation(self):
        with pytest.raises(ValueError):
            concurrency_threshold(benchmark("float"), 0.0)
        with pytest.raises(ValueError):
            concurrency_threshold(benchmark("float"), 10.0, fraction=0.0)


class TestDefaultScenario:
    def test_all_benchmarks_build(self):
        for name in benchmark_names():
            sc = default_scenario(name, day=1800.0)
            assert sc.foreground.name == name
            assert sc.trace.peak_rate == PEAK_RATES[name]
            assert sc.limit >= 1
            assert sc.duration == 1800.0
            assert len(sc.background) == 3
            assert len(sc.ambient) == 3

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            default_scenario("nope")

    def test_fig10_fractions_split_benchmarks(self):
        """float/linpack get ceilings at/above peak; the rest below."""
        assert SERVERLESS_FRACTIONS["float"] >= 0.95
        assert SERVERLESS_FRACTIONS["linpack"] >= 0.9
        for name in ("matmul", "dd", "cloud_stor"):
            assert SERVERLESS_FRACTIONS[name] < 0.9

    def test_without_background(self):
        sc = default_scenario("float", with_background=False)
        assert sc.background == ()
        assert sc.ambient == ()

    def test_mean_ambient_pressures(self):
        sc = default_scenario("float", day=1800.0)
        p = sc.mean_ambient_pressures()
        assert all(0.0 < x < 1.0 for x in p)


class TestBackgroundAndAmbient:
    def test_background_names_prefixed(self):
        bgs = background_services(day=1800.0)
        names = [spec.name for spec, _t, _l in bgs]
        assert names == ["bg_float", "bg_dd", "bg_cloud_stor"]

    def test_background_phases_differ(self):
        bgs = background_services(day=1800.0)
        phases = {trace.phase for _s, trace, _l in bgs}
        assert len(phases) == 3

    def test_ambient_traces_cover_axes(self):
        amb = dict(ambient_pressure_traces(day=1800.0))
        assert set(amb) == {"cpu", "io", "net"}
        for trace in amb.values():
            assert 0.0 < trace.peak_rate < 1.0  # pressures, not qps
