"""Flash-crowd surge detection and the emergency preemption switch."""

import pytest

from repro.cluster import SpotSpec
from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode
from repro.core.runtime import AmoebaRuntime
from repro.faults import FaultPlan
from repro.workloads.functionbench import benchmark
from repro.workloads.traces import ConstantTrace, StepTrace

FAST = AmoebaConfig(
    min_sample_period=10.0,
    max_sample_period=10.0,
    min_dwell=30.0,
)


def spike_trace(high=20.0, t_up=300.0, t_down=None):
    """A low base with one rectangular flash crowd (optionally ending)."""
    steps = [(0.0, 4.0), (t_up, high)]
    if t_down is not None:
        steps.append((t_down, 4.0))
    trace = StepTrace(steps)
    trace.peak_rate = 30.0  # size the IaaS side generously
    return trace


class TestConfigKnobs:
    def test_surge_validation(self):
        with pytest.raises(ValueError):
            AmoebaConfig(surge_factor=1.0)
        with pytest.raises(ValueError):
            AmoebaConfig(surge_ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AmoebaConfig(surge_ewma_alpha=1.5)
        with pytest.raises(ValueError):
            AmoebaConfig(surge_hold_periods=0)
        with pytest.raises(ValueError):
            AmoebaConfig(surge_headroom=-1)


class TestSurgeDetection:
    def test_steady_load_never_trips(self):
        rt = AmoebaRuntime(seed=7, config=FAST)
        svc = rt.add_service(benchmark("float"), ConstantTrace(5.0), limit=6)
        rt.run(until=600.0)
        assert all(not d.surge for d in svc.controller.decisions)

    def test_flash_crowd_trips_the_detector(self):
        rt = AmoebaRuntime(seed=7, config=FAST)
        svc = rt.add_service(benchmark("float"), spike_trace(), limit=6)
        rt.run(until=600.0)
        surged = [d for d in svc.controller.decisions if d.surge]
        assert surged and all(d.time > 300.0 for d in surged)
        # tripped samples stay out of the EWMA, so a multi-period crowd
        # keeps reading as a surge instead of normalising itself away
        assert len(surged) >= 3

    def test_surge_window_lapses_after_the_crowd_ends(self):
        rt = AmoebaRuntime(seed=7, config=FAST)
        svc = rt.add_service(
            benchmark("float"), spike_trace(t_up=300.0, t_down=360.0), limit=6
        )
        rt.run(until=300.0)
        assert not svc.engine.in_surge
        rt.run(until=340.0)
        assert svc.engine.in_surge
        # crowd over: no more trips, the hold window expires
        rt.run(until=600.0)
        assert not svc.engine.in_surge

    def test_detection_is_deterministic(self):
        def run():
            rt = AmoebaRuntime(seed=7, config=FAST)
            svc = rt.add_service(benchmark("float"), spike_trace(), limit=6)
            rt.run(until=600.0)
            return [(d.time, d.surge) for d in svc.controller.decisions]

        assert run() == run()


def make_pinned_runtime(limit, rate, spot=True, dwell=600.0):
    """A runtime whose controller never acts (first decision at t=3600)."""
    cfg = AmoebaConfig(min_sample_period=3600.0, max_sample_period=3600.0, min_dwell=dwell)
    rt = AmoebaRuntime(
        seed=7, config=cfg, spot=SpotSpec(fraction=0.5) if spot else None
    )
    svc = rt.add_service(benchmark("float"), ConstantTrace(rate), limit=limit)
    rt.run(until=60.0)
    assert svc.engine.mode is DeployMode.IAAS
    return rt, svc


class TestEmergencyPreemptionSwitch:
    def test_engine_is_wired_to_the_iaas_notice_hook(self):
        rt, svc = make_pinned_runtime(limit=6, rate=3.0)
        assert svc.iaas.on_preemption == svc.engine.handle_preemption

    def test_notice_waives_dwell_and_switches_to_serverless(self):
        rt, svc = make_pinned_runtime(limit=6, rate=3.0)
        svc.engine.last_switch_time = rt.env.now  # dwell freshly armed
        assert not svc.engine.can_switch()
        svc.engine.handle_preemption(120.0)
        assert [leg.emergency for leg in svc.engine.legs] == [True]
        rt.run(until=600.0)
        assert svc.engine.mode is DeployMode.SERVERLESS

    def test_infeasible_serverless_refuses_the_emergency_switch(self):
        # the container ceiling cannot hold the offered load: stay on
        # IaaS and let the drain protocol handle the reclamation
        rt, svc = make_pinned_runtime(limit=2, rate=25.0)
        svc.engine.handle_preemption(120.0)
        assert not svc.engine.legs
        assert svc.engine.mode is DeployMode.IAAS

    def test_notice_is_a_noop_when_already_serverless(self):
        rt, svc = make_pinned_runtime(limit=6, rate=3.0)
        svc.engine.handle_preemption(120.0)
        rt.run(until=600.0)
        assert svc.engine.mode is DeployMode.SERVERLESS
        svc.engine.handle_preemption(120.0)
        assert [leg.emergency for leg in svc.engine.legs] == [True]  # the first one only

    def test_full_path_graceful_episode_under_management(self):
        # end to end: watcher -> notice -> drain -> replacement, with the
        # serverless ceiling too small for an emergency escape
        cfg = AmoebaConfig(min_sample_period=3600.0, max_sample_period=3600.0)
        rt = AmoebaRuntime(
            seed=7,
            config=cfg,
            faults=FaultPlan(vm_preemption_prob=1.0, preemption_check_interval_s=30.0),
            spot=SpotSpec(fraction=0.5, notice_s=120.0, graceful=True),
        )
        svc = rt.add_service(benchmark("float"), ConstantTrace(25.0), limit=2)
        rt.run(until=600.0)
        assert svc.engine.mode is DeployMode.IAAS
        assert svc.metrics.preemptions["noticed"] == 1
        assert svc.metrics.preemptions["replaced"] == 1
        assert svc.metrics.preemptions["killed_inflight"] == 0
