"""The contention-aware deployment controller."""

import math

import pytest

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode
from repro.core.runtime import AmoebaRuntime
from repro.faults import FaultPlan
from repro.workloads.functionbench import benchmark
from repro.workloads.traces import ConstantTrace, StepTrace


def make_runtime(config=None, seed=7):
    return AmoebaRuntime(seed=seed, config=config)


FAST = AmoebaConfig(
    min_sample_period=10.0,
    max_sample_period=10.0,
    min_dwell=30.0,
)


class TestDecisionLoop:
    def test_decisions_are_logged_periodically(self):
        rt = make_runtime(FAST)
        svc = rt.add_service(benchmark("float"), ConstantTrace(5.0), limit=6)
        rt.run(until=120.0)
        d = svc.controller.decisions
        assert len(d) == pytest.approx(12, abs=2)
        assert all(dec.lambda_max >= 0 for dec in d)
        assert svc.controller.period == 10.0

    def test_low_load_switches_to_serverless(self):
        rt = make_runtime(FAST)
        svc = rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        rt.run(until=300.0)
        assert svc.engine.mode is DeployMode.SERVERLESS
        assert any(d.switch_target is not None for d in svc.controller.decisions)

    def test_overload_switches_back_to_iaas(self):
        # load above any serverless ceiling with limit=2
        rt = make_runtime(FAST)
        trace = StepTrace([(0.0, 2.0), (300.0, 25.0)])
        trace.peak_rate = 30.0  # size the IaaS side generously
        svc = rt.add_service(benchmark("float"), trace, limit=2)
        rt.run(until=300.0)
        assert svc.engine.mode is DeployMode.SERVERLESS
        rt.run(until=900.0)
        assert svc.engine.mode is DeployMode.IAAS
        directions = [leg.target for leg in svc.engine.legs]
        assert directions[-1] == DeployMode.IAAS

    def test_eq8_period_respected(self):
        rt = make_runtime()  # default config: clamp [15, 120]
        svc = rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        # float: (1.4 - 0.3 + 0.08)/(0.9*0.3) = 4.37 -> clamped to 15
        assert svc.controller.period == pytest.approx(15.0)

    def test_slack_qos_uses_min_period(self):
        rt = make_runtime()
        svc = rt.add_service(benchmark("linpack"), ConstantTrace(2.0), limit=6)
        # linpack QoS 2.4 > cold start: Eq. 8 gives ~0 -> min period
        assert svc.controller.period == pytest.approx(15.0)

    def test_decisions_carry_a_positive_lambda_max_under_steady_load(self):
        rt = make_runtime(FAST)
        svc = rt.add_service(benchmark("float"), ConstantTrace(4.0), limit=6)
        rt.run(until=100.0)
        d = svc.controller.decisions
        assert d and all(dec.lambda_max > 0 and not dec.safe_mode for dec in d)
        times = [dec.time for dec in d]
        assert times == sorted(times)

    def test_switch_decisions_match_the_engine_log(self):
        rt = make_runtime(FAST)
        svc = rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        rt.run(until=300.0)
        decisions = svc.controller.decisions
        switched = [(dec.time, dec.switch_target) for dec in decisions if dec.switch_target is not None]
        assert switched
        assert switched[0][1] is DeployMode.SERVERLESS
        assert switched == [(leg.time, leg.target) for leg in svc.engine.legs]


class TestGuard:
    def test_guard_blocks_when_tenant_would_violate(self):
        rt = make_runtime(FAST)
        # a guard that always refuses
        svc = rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        svc.controller.guard = lambda load, s: False
        rt.run(until=300.0)
        assert svc.engine.mode is DeployMode.IAAS
        assert any(d.guard_blocked for d in svc.controller.decisions)

    def test_guard_disabled_allows_switch(self):
        rt = make_runtime(FAST)
        svc = rt.add_service(
            benchmark("float"), ConstantTrace(3.0), guard_enabled=False, limit=6
        )
        rt.run(until=300.0)
        assert svc.engine.mode is DeployMode.SERVERLESS
        assert not any(d.guard_blocked for d in svc.controller.decisions)

    def test_switch_in_is_safe_accounts_for_tenants(self):
        rt = make_runtime(FAST)
        # matmul is strongly CPU-sensitive: a CPU-heavy switch-in hurts it
        rt.add_background(benchmark("matmul"), ConstantTrace(2.0), limit=6)
        rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        rt.run(until=60.0)
        # a reasonable switch is safe; an absurd projected load is not
        assert rt.switch_in_is_safe("float", load=1.0, service_time=0.1)
        assert not rt.switch_in_is_safe("float", load=5000.0, service_time=1.0)


class TestSafeMode:
    STALE_CFG = AmoebaConfig(
        min_sample_period=10.0,
        max_sample_period=10.0,
        min_dwell=30.0,
        telemetry_stale_periods=2.0,
    )

    def test_dark_meters_pin_iaas(self):
        # every meter loop iteration starts an effectively-infinite
        # outage, so telemetry is stale from the first staleness budget on
        plan = FaultPlan(meter_outage_prob=1.0, meter_outage_duration_s=1e6)
        rt = AmoebaRuntime(seed=7, config=self.STALE_CFG, faults=plan)
        svc = rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        rt.run(until=300.0)
        # the same load/config without the outage switches to serverless
        # (TestDecisionLoop); with dark meters the service stays pinned
        assert svc.engine.mode is DeployMode.IAAS
        safes = [d for d in svc.controller.decisions if d.safe_mode]
        assert safes
        assert all(d.lambda_max == 0.0 for d in safes)
        assert all(math.isnan(d.mu) for d in safes)

    def test_late_outage_switches_back_out_of_serverless(self):
        # wire an inert (zero-rate) injector, then script a total meter
        # blackout once the service has already switched to serverless
        rt = AmoebaRuntime(seed=7, config=self.STALE_CFG, faults=FaultPlan())
        svc = rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
        rt.run(until=300.0)
        assert svc.engine.mode is DeployMode.SERVERLESS  # healthy so far
        assert not any(d.safe_mode for d in svc.controller.decisions)
        assert rt.faults is not None
        rt.faults.meter_outage = lambda meter: 1e6
        rt.run(until=600.0)
        assert svc.engine.mode is DeployMode.IAAS
        safes = [d for d in svc.controller.decisions if d.safe_mode]
        assert any(d.switch_target is DeployMode.IAAS for d in safes)


class TestNaiveDiscriminant:
    def test_utilization_rule_used_when_configured(self):
        cfg = AmoebaConfig(
            min_sample_period=10.0,
            max_sample_period=10.0,
            min_dwell=30.0,
            discriminant="utilization",
            naive_rho_max=0.7,
        )
        rt = make_runtime(cfg)
        svc = rt.add_service(benchmark("float"), ConstantTrace(4.0), limit=6)
        rt.run(until=60.0)
        d = svc.controller.decisions[-1]
        # the naive rule: lambda_max = rho_max * n * mu exactly
        n_avail = rt.serverless.n_max("float")
        assert d.lambda_max == pytest.approx(0.7 * n_avail * d.mu, rel=1e-6)
