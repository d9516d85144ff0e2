"""Scenario runners: structure of results for all three systems."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AmoebaRuntime
from repro.experiments.runner import run_amoeba, run_nameko, run_openwhisk
from repro.experiments.scenarios import default_scenario

# full-system day runs: excluded from the quick tier
pytestmark = pytest.mark.slow


# one small shared scenario per module: runners are the expensive part;
# the reservoir is above the default and above every service's
# completion count, so it changes no output, only the capacity checked
SCENARIO = replace(default_scenario("float", day=900.0, seed=3), reservoir=25_000)


@pytest.fixture(scope="module")
def amoeba_run():
    return run_amoeba(SCENARIO)


@pytest.fixture(scope="module")
def nameko_run():
    return run_nameko(SCENARIO)


@pytest.fixture(scope="module")
def openwhisk_run():
    return run_openwhisk(SCENARIO)


class TestAmoebaRun:
    def test_system_label(self, amoeba_run):
        assert amoeba_run.system == "amoeba"

    def test_foreground_present_with_telemetry(self, amoeba_run):
        fg = amoeba_run.foreground(SCENARIO)
        assert fg.metrics.completed > 1000
        assert fg.usage.cpu_core_seconds > 0
        assert fg.mode_timeline[0][1] == "iaas"  # default start mode

    def test_background_services_present(self, amoeba_run):
        for bg_spec, _t, _l in SCENARIO.background:
            assert bg_spec.name in amoeba_run.services
            assert amoeba_run.services[bg_spec.name].metrics.completed > 0
        for sr in amoeba_run.services.values():
            assert sr.metrics.latencies.capacity == SCENARIO.reservoir

    def test_background_services_are_billed(self, monkeypatch):
        """A co-tenant on the shared pool pays for its invocations."""
        runtimes = []
        run = AmoebaRuntime.run

        def keep_runtime(rt, until):
            runtimes.append(rt)
            run(rt, until)

        monkeypatch.setattr(AmoebaRuntime, "run", keep_runtime)
        result = run_amoeba(default_scenario("float", day=300.0, seed=3))
        (rt,) = runtimes
        for name in rt.background:
            sr = result.services[name]
            assert sr.cost().total > 0
            assert sr.serverless_invocations == rt.serverless.pool.state(name).completions > 0

    def test_meter_overheads_reported(self, amoeba_run):
        assert set(amoeba_run.meter_overheads) == {"meter_cpu", "meter_io", "meter_net"}
        assert amoeba_run.meter_overhead == pytest.approx(
            sum(amoeba_run.meter_overheads.values())
        )

    def test_usage_grids(self, amoeba_run):
        fg = amoeba_run.foreground(SCENARIO)
        grid = np.linspace(0, SCENARIO.duration, 50)
        cpu = fg.cpu_usage_on_grid(grid)
        mem = fg.mem_usage_on_grid(grid)
        assert cpu.shape == mem.shape == (50,)
        assert cpu.max() > 0 and mem.max() > 0

    def test_variants(self):
        nom = run_amoeba(SCENARIO, variant="nom")
        assert nom.system == "amoeba-nom"
        with pytest.raises(ValueError):
            run_amoeba(SCENARIO, variant="bogus")


class TestNamekoRun:
    def test_holds_rental_all_day(self, nameko_run):
        fg = nameko_run.foreground(SCENARIO)
        # constant rental: flat usage timeline
        grid = np.linspace(10, SCENARIO.duration, 20)
        cpu = fg.cpu_usage_on_grid(grid)
        assert np.allclose(cpu, cpu[0])
        assert cpu[0] == fg.usage.mean_cores == pytest.approx(
            fg.usage.cpu_core_seconds / SCENARIO.duration
        )

    def test_meets_qos(self, nameko_run):
        fg = nameko_run.foreground(SCENARIO)
        assert fg.metrics.latency_percentile(95) <= SCENARIO.foreground.qos_target


class TestOpenwhiskRun:
    def test_all_services_serverless(self, openwhisk_run):
        fg = openwhisk_run.foreground(SCENARIO)
        assert fg.metrics.served_by.get("serverless", 0) == fg.metrics.completed
        assert fg.mode_timeline == []  # no engine involved
        for sr in openwhisk_run.services.values():
            assert sr.metrics.latencies.capacity == SCENARIO.reservoir

    def test_uses_fewer_cores_than_nameko(self, openwhisk_run, nameko_run):
        fo = openwhisk_run.foreground(SCENARIO)
        fn = nameko_run.foreground(SCENARIO)
        assert fo.usage.mean_cores < fn.usage.mean_cores


class TestCrossSystem:
    def test_same_arrivals_across_systems(self, amoeba_run, nameko_run, openwhisk_run):
        """All systems replay the identical query stream (same seed)."""
        counts = {
            r.foreground(SCENARIO).metrics.completed
            for r in (amoeba_run, nameko_run, openwhisk_run)
        }
        # completions may differ by in-flight tails, not by more than that
        assert max(counts) - min(counts) < 20

    def test_amoeba_saves_resources_and_meets_qos(self, amoeba_run, nameko_run):
        fa = amoeba_run.foreground(SCENARIO)
        fn = nameko_run.foreground(SCENARIO)
        cpu_ratio, mem_ratio = fa.usage.normalized_to(fn.usage)
        assert cpu_ratio < 1.0
        assert mem_ratio < 1.0
        assert fa.metrics.latency_percentile(95) <= SCENARIO.foreground.qos_target * 1.05
