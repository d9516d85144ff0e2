"""Cross-module integration scenarios.

These exercise end-to-end behaviours no single module owns: burst
reaction, guard protection under a hostile foreground, NoP's cold-start
economics, the canary feedback loop, and cross-system determinism.
"""

import numpy as np
import pytest

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode
from repro.core.runtime import AmoebaRuntime
from repro.workloads.functionbench import benchmark
from repro.workloads.traces import BurstTrace, ConstantTrace, DiurnalTrace

# cross-module end-to-end scenarios: excluded from the quick tier
pytestmark = pytest.mark.slow


FAST = AmoebaConfig(min_sample_period=10.0, max_sample_period=10.0, min_dwell=60.0)


class TestBurstReaction:
    def test_burst_forces_switch_out_and_recovery(self):
        """SII-E challenge 3: capture load change, switch quickly."""
        base = ConstantTrace(3.0)
        trace = BurstTrace(base, [(400.0, 500.0, 22.0)])  # 3 -> 25 qps burst
        rt = AmoebaRuntime(seed=5, config=FAST)
        svc = rt.add_service(benchmark("float"), trace, limit=3)
        rt.run(until=1500.0)
        directions = [leg.target.value for leg in svc.engine.legs]
        # in at low load, out during the burst, back in after it
        assert "serverless" in directions
        assert "iaas" in directions
        assert svc.engine.mode is DeployMode.SERVERLESS  # recovered
        # QoS held throughout (the IaaS rental absorbs the burst)
        assert svc.metrics.latency_percentile(95) <= svc.spec.qos_target

    def test_switch_out_happens_during_burst_window(self):
        trace = BurstTrace(ConstantTrace(3.0), [(400.0, 500.0, 22.0)])
        rt = AmoebaRuntime(seed=5, config=FAST)
        svc = rt.add_service(benchmark("float"), trace, limit=3)
        rt.run(until=1500.0)
        out_times = [leg.time for leg in svc.engine.legs if leg.target is DeployMode.IAAS]
        assert out_times
        assert 400.0 <= out_times[0] <= 950.0


class TestGuardProtection:
    def test_hostile_foreground_blocked_by_guard(self):
        """A CPU-hungry foreground must not be switched onto a platform
        whose CPU-bound tenant is already near its QoS."""
        rt = AmoebaRuntime(seed=9, config=FAST)
        # matmul tenant at substantial load on the shared platform
        rt.add_background(benchmark("matmul"), ConstantTrace(8.0), limit=8)
        # hostile foreground: CPU-heavy, would add a lot of pressure
        hostile = benchmark("linpack")
        svc = rt.add_service(hostile, ConstantTrace(8.0), limit=12)
        rt.run(until=600.0)
        blocked = [d for d in svc.controller.decisions if d.guard_blocked]
        allowed = [d for d in svc.controller.decisions if d.switch_target is not None]
        # either the guard blocked at least once, or the discriminant
        # itself already refused — but never both zero AND switched in
        if svc.engine.mode is DeployMode.SERVERLESS:
            # if it did switch, the background tenant must still be fine
            bg = rt.background["matmul"].metrics
            assert bg.latency_percentile(95) <= benchmark("matmul").qos_target * 1.1
        else:
            assert blocked or not allowed


class TestCanaryFeedback:
    def test_canaries_feed_pca_while_on_iaas(self):
        cfg = AmoebaConfig(
            min_sample_period=10.0,
            max_sample_period=10.0,
            min_dwell=10000.0,  # pin the service on IaaS
            canary_fraction=0.1,
        )
        rt = AmoebaRuntime(seed=4, config=cfg)
        svc = rt.add_service(benchmark("float"), ConstantTrace(10.0), limit=4)
        svc.controller.guard = lambda load, s: False  # never switch in
        rt.run(until=900.0)
        assert svc.engine.mode is DeployMode.IAAS
        assert rt.monitor.feedback_count("float") > 10
        assert rt.monitor.refit_count("float") > 0
        # canaries really executed on the serverless side
        assert rt.serverless.pool.state("float").completions > 20


class TestNoPEconomics:
    def test_nop_pays_cold_start_per_query_on_serverless(self):
        cfg = FAST.variant_nop()
        rt = AmoebaRuntime(seed=6, config=cfg)
        svc = rt.add_service(benchmark("matmul"), ConstantTrace(2.0), limit=8)
        rt.run(until=900.0)
        fs = rt.serverless.pool.state("matmul")
        if svc.engine.mode is DeployMode.SERVERLESS and fs.completions > 20:
            # nearly every completion needed its own cold start
            assert fs.cold_starts >= 0.9 * fs.completions

    def test_full_amoeba_reuses_containers(self):
        rt = AmoebaRuntime(seed=6, config=FAST)
        rt.add_service(benchmark("matmul"), ConstantTrace(2.0), limit=8)
        rt.run(until=900.0)
        fs = rt.serverless.pool.state("matmul")
        assert fs.completions > 20
        assert fs.cold_starts < 0.3 * fs.completions


class TestDeterminismAcrossSubsystems:
    def test_full_runtime_bitwise_repeatable(self):
        def run():
            rt = AmoebaRuntime(seed=77, config=FAST)
            rt.add_background(benchmark("dd"), ConstantTrace(2.0), limit=6)
            svc = rt.add_service(
                benchmark("float"), DiurnalTrace(peak_rate=15.0, day=600.0, seed=3), limit=4
            )
            rt.run(until=600.0)
            return (
                svc.metrics.completed,
                round(svc.metrics.latency_percentile(95), 12),
                tuple(round(leg.time, 9) for leg in svc.engine.legs),
                round(rt.service_usage("float").cpu_core_seconds, 9),
            )

        assert run() == run()


class TestOpenLoopOverload:
    def test_queue_grows_when_capacity_exceeded(self):
        """Open-loop arrivals above n_max*mu back up — the failure mode
        the discriminant exists to predict."""
        from repro.serverless.platform import ServerlessPlatform
        from repro.sim.environment import Environment
        from repro.sim.rng import RngRegistry
        from repro.telemetry import ServiceMetrics
        from repro.workloads.loadgen import LoadGenerator

        env = Environment()
        rng = RngRegistry(seed=2)
        platform = ServerlessPlatform(env, rng)
        spec = benchmark("matmul")
        metrics = ServiceMetrics("matmul", spec.qos_target)
        platform.register(spec, metrics=metrics, limit=2)  # capacity ~5 qps
        LoadGenerator(env, "matmul", ConstantTrace(10.0), platform.invoke, rng)
        env.run(until=300.0)
        assert len(platform.pool.state("matmul").queue) > 50
        assert metrics.violation_fraction > 0.5


def _history(result, name="matmul"):
    """Every switch, decision and breaker count one run's result records."""
    fg = result.services[name]
    legs, decisions, ov = fg.switch_legs, fg.decisions, result.overload
    breaker = None
    if ov is not None:
        states = [state for _t, state in ov.breaker_transitions]
        edges = list(zip(["closed", *states], states))
        breaker = (
            edges.count(("closed", "open")),
            edges.count(("half_open", "open")),
            states.count("half_open"),
            states.count("closed"),
            ov.breaker_state,
        )
    return {
        "requests": fg.switch_events,
        "flips": fg.mode_timeline[1:],
        "aborts": [(leg.end, leg.target.value, leg.abort_reason) for leg in legs if leg.abort_reason],
        "forced_drains": sum(leg.forced_drain for leg in legs),
        "emergency": sum(leg.emergency for leg in legs),
        "safe_mode": sum(d.safe_mode for d in decisions),
        "brownout": None if ov is None else sum(d.brownout for d in decisions),
        "surge": None if ov is None else sum(d.surge for d in decisions),
        "breaker": breaker,
    }


class TestRunHistoryPins:
    """Switch legs, controller period counts and breaker edges, as literals.

    The values were recorded from the stored counters and lists; they
    must come back unchanged from whatever the run history is read from.
    """

    def test_chaos_at_fault_scale_two(self):
        from repro.experiments.runner import run_amoeba
        from repro.experiments.scenarios import chaos_scenario

        result = run_amoeba(chaos_scenario("matmul", fault_scale=2.0, day=600.0))
        assert _history(result) == {
            "requests": [(60.0, "serverless", 3.4280390036822452), (255.0, "iaas", 9.566666666666666)],
            "flips": [(65.17906264562812, "serverless"), (281.9527714622048, "iaas")],
            "aborts": [],
            "forced_drains": 0,
            "emergency": 0,
            "safe_mode": 15,
            "brownout": None,
            "surge": None,
            "breaker": None,
        }

    def test_ack_loss_and_boot_failure_abort_legs(self):
        from repro.experiments.runner import run_amoeba
        from repro.experiments.scenarios import chaos_scenario
        from repro.faults import FaultPlan

        plan = FaultPlan(prewarm_ack_loss_prob=0.7, vm_boot_failure_prob=0.6, max_boot_retries=1)
        result = run_amoeba(chaos_scenario("matmul", plan=plan, day=900.0, seed=0))
        assert _history(result) == {
            "requests": [
                (15.0, "serverless", 3.7159768891940326),
                (285.0, "iaas", 7.933333333333334),
                (630.0, "iaas", 9.4),
                (840.0, "serverless", 6.233333333333333),
            ],
            "flips": [(18.50925364977894, "serverless"), (657.665351812735, "iaas")],
            "aborts": [
                (343.51096899086644, "iaas", "VMBootFailed: matmul: boot failed after 2 attempts"),
                (870.0, "serverless", "prewarm ack deadline"),
            ],
            "forced_drains": 0,
            "emergency": 0,
            "safe_mode": 0,
            "brownout": None,
            "surge": None,
            "breaker": None,
        }

    def test_overload_at_factor_three(self):
        from repro.experiments.runner import run_amoeba
        from repro.experiments.scenarios import overload_scenario
        from repro.overload import OverloadPolicy

        result = run_amoeba(
            overload_scenario("matmul", lambda_factor=3.0, policy=OverloadPolicy(), day=600.0)
        )
        assert _history(result) == {
            "requests": [],
            "flips": [],
            "aborts": [],
            "forced_drains": 0,
            "emergency": 0,
            "safe_mode": 6,
            "brownout": 16,
            "surge": 0,
            "breaker": (3, 1, 4, 3, "closed"),
        }

    def test_graceful_spot_cell_with_flash_crowds(self):
        from repro.experiments.runner import run_amoeba
        from repro.experiments.scenarios import spot_scenario
        from repro.overload import OverloadPolicy

        result = run_amoeba(
            spot_scenario(
                "matmul", spot_fraction=0.5, preemption_prob=1.0, graceful=True,
                spike_magnitude=0.5, policy=OverloadPolicy(), day=600.0,
            )
        )
        assert _history(result) == {
            "requests": [
                (15.0, "serverless", 3.2828593257004655),
                (210.0, "iaas", 8.65),
                (570.0, "serverless", 6.266666666666667),
            ],
            "flips": [
                (18.509218701743773, "serverless"),
                (236.95277146220477, "iaas"),
                (571.2797177304823, "serverless"),
            ],
            "aborts": [],
            "forced_drains": 0,
            "emergency": 0,
            "safe_mode": 0,
            "brownout": 4,
            "surge": 19,
            "breaker": (1, 0, 1, 1, "closed"),
        }
