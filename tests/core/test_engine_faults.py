"""Graceful degradation in the switch protocol: aborts, watchdogs, reapers.

The acceptance bar: under lost acks, failed boots, stuck drains or plain
bugs inside a switch leg, the engine never wedges — every aborted switch
clears ``switching``, ends its switch leg with an abort reason, re-enters dwell,
and the service can still switch successfully later.
"""

import itertools
from dataclasses import replace

import pytest

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode, HybridExecutionEngine
from repro.faults import FaultInjector, FaultPlan
from repro.iaas.service import IaaSService, ServiceState
from repro.iaas.sizing import size_service
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from tests.core.test_engine import mode_timeline

QIDS = itertools.count()


def make_engine(config=None, initial=DeployMode.IAAS, plan=None, seed=6):
    env = Environment()
    rng = RngRegistry(seed=seed)
    faults = FaultInjector(env, plan, rng) if plan is not None else None
    config = config if config is not None else AmoebaConfig(min_dwell=0.0)
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    iaas = IaaSService(
        env, spec, size_service(spec, 30.0), rng, metrics=metrics, faults=faults
    )
    if initial is DeployMode.IAAS:
        iaas.deploy(instant=True)
    serverless = ServerlessPlatform(env, rng, faults=faults)
    serverless.register(spec, metrics=metrics, limit=8)
    engine = HybridExecutionEngine(
        env, spec, iaas, serverless, metrics, config, rng, initial_mode=initial
    )
    return env, engine, faults


def aborts(engine):
    """(time, target, reason) of every aborted switch leg."""
    return [(leg.end, leg.target, leg.abort_reason) for leg in engine.legs if leg.abort_reason]


class TestAckLoss:
    CFG = AmoebaConfig(min_dwell=0.0, switch_ack_timeout=5.0)

    def test_lost_ack_aborts_and_clears_switching(self):
        env, engine, faults = make_engine(
            config=self.CFG, plan=FaultPlan(prewarm_ack_loss_prob=1.0)
        )
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=30.0)
        assert engine.mode is DeployMode.IAAS  # rolled back
        assert not engine.switching
        ((t, target, reason),) = aborts(engine)
        assert target is DeployMode.SERVERLESS
        assert reason == "prewarm ack deadline"
        assert t == pytest.approx(5.0)
        assert engine.last_switch_time == pytest.approx(t)  # dwell re-entered
        assert faults.stats["prewarm_acks_lost"] == 1

    def test_switch_succeeds_after_an_abort(self):
        env, engine, faults = make_engine(
            config=self.CFG, plan=FaultPlan(prewarm_ack_loss_prob=1.0)
        )
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=30.0)
        assert engine.mode is DeployMode.IAAS
        # the ack path heals; the same engine must still be able to switch
        engine.serverless.faults = None
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=90.0)
        assert engine.mode is DeployMode.SERVERLESS
        assert not engine.switching
        assert len(aborts(engine)) == 1

    def test_delayed_ack_within_deadline_still_flips(self):
        cfg = AmoebaConfig(min_dwell=0.0, switch_ack_timeout=60.0)
        plan = FaultPlan(prewarm_ack_delay_prob=1.0, prewarm_ack_delay_s=10.0)
        env, engine, faults = make_engine(config=cfg, plan=plan)
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=90.0)
        assert engine.mode is DeployMode.SERVERLESS
        assert aborts(engine) == []
        assert faults.stats["prewarm_acks_delayed"] == 1


class TestBootFailure:
    def test_failed_boot_aborts_via_guard_then_recovers(self):
        cfg = AmoebaConfig(min_dwell=0.0, switch_boot_timeout=500.0)
        plan = FaultPlan(vm_boot_failure_prob=1.0, max_boot_retries=0)
        env, engine, faults = make_engine(
            config=cfg, initial=DeployMode.SERVERLESS, plan=plan
        )
        assert engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=200.0)
        assert engine.mode is DeployMode.SERVERLESS
        assert not engine.switching
        assert engine.iaas.state is ServiceState.STOPPED  # rolled back
        ((_, target, reason),) = aborts(engine)
        assert target is DeployMode.IAAS
        assert "VMBootFailed" in reason
        # hypervisor heals: the switch-out must now succeed
        engine.iaas.faults = None
        assert engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=500.0)
        assert engine.mode is DeployMode.IAAS
        assert engine.iaas.state is ServiceState.RUNNING

    def test_boot_deadline_abort_reaps_the_late_rental(self):
        cfg = AmoebaConfig(min_dwell=0.0, switch_boot_timeout=30.0)
        plan = FaultPlan(vm_boot_delay_prob=1.0, vm_boot_delay_s=200.0)
        env, engine, _ = make_engine(
            config=cfg, initial=DeployMode.SERVERLESS, plan=plan
        )
        engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=100.0)
        assert engine.mode is DeployMode.SERVERLESS
        assert not engine.switching
        assert aborts(engine)[-1][2] == "vm boot deadline"
        # the straggling boot lands after the abort; the reaper undeploys
        # the unwanted rental instead of letting it bill forever
        env.run(until=500.0)
        assert engine.iaas.state is ServiceState.STOPPED

    def test_rejoined_boot_after_deadline_abort(self):
        # first switch aborts on the boot deadline, second re-joins the
        # same in-flight boot instead of raising on a second deploy()
        cfg = AmoebaConfig(min_dwell=0.0, switch_boot_timeout=30.0)
        plan = FaultPlan(vm_boot_delay_prob=1.0, vm_boot_delay_s=100.0)
        env, engine, _ = make_engine(
            config=cfg, initial=DeployMode.SERVERLESS, plan=plan
        )
        engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=40.0)
        assert aborts(engine)  # deadline abort happened
        assert engine.iaas.state is ServiceState.BOOTING
        # retry with a patient deadline: deploy() would raise in BOOTING,
        # so a successful flip proves the in-flight boot was re-joined
        engine.config = replace(cfg, switch_boot_timeout=500.0)
        assert engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=400.0)
        assert engine.mode is DeployMode.IAAS
        assert engine.iaas.state is ServiceState.RUNNING


class TestDrainWatchdog:
    def test_flip_back_while_draining_force_releases_after_timeout(self):
        cfg = AmoebaConfig(min_dwell=0.0, drain_timeout=20.0)
        env, engine, _ = make_engine(config=cfg)
        engine.iaas.in_flight += 1  # a query that will never finish
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        assert engine.mode is DeployMode.SERVERLESS
        assert engine.iaas.state is ServiceState.DRAINING  # stuck drain
        assert engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=300.0)
        assert engine.mode is DeployMode.IAAS
        assert engine.iaas.state is ServiceState.RUNNING
        assert [leg.forced_drain for leg in engine.legs] == [False, True]
        assert engine._drain_event is None
        assert aborts(engine) == []  # delayed, not aborted

    def test_drain_finishing_in_time_cancels_the_watchdog(self):
        cfg = AmoebaConfig(min_dwell=0.0, drain_timeout=50.0)
        env, engine, _ = make_engine(config=cfg)
        engine.iaas.in_flight += 1
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        assert engine.iaas.state is ServiceState.DRAINING
        engine.request_switch(DeployMode.IAAS, load=20.0)

        def finish():
            engine.iaas.in_flight -= 1
            engine.iaas._maybe_release()

        env.schedule_callback(5.0, finish)
        env.run(until=300.0)
        assert engine.mode is DeployMode.IAAS
        assert not any(leg.forced_drain for leg in engine.legs)


class TestGuard:
    def test_exception_in_switch_body_clears_switching(self):
        env, engine, _ = make_engine()

        def boom(load):
            raise RuntimeError("kaboom")
            yield  # pragma: no cover

        engine._switch_to_serverless = boom
        assert engine.request_switch(DeployMode.SERVERLESS, load=5.0)
        env.run(until=1.0)
        assert not engine.switching
        assert engine.mode is DeployMode.IAAS
        assert aborts(engine)[-1][2] == "RuntimeError: kaboom"

    def test_body_exiting_without_flip_is_aborted(self):
        env, engine, _ = make_engine()

        def bail(load):
            yield engine.env.timeout(1.0)
            # returns without flipping and without aborting

        engine._switch_to_serverless = bail
        engine.request_switch(DeployMode.SERVERLESS, load=5.0)
        env.run(until=5.0)
        assert not engine.switching
        assert aborts(engine)[-1][2] == "switch process exited without flipping"


class TestTimelineRecords:
    def test_aborted_switch_leaves_the_timeline_alone(self):
        env, engine, _ = make_engine(
            config=AmoebaConfig(min_dwell=0.0, switch_ack_timeout=5.0),
            plan=FaultPlan(prewarm_ack_loss_prob=1.0),
        )
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=30.0)
        (leg,) = engine.legs  # the request is logged ...
        assert leg.abort_reason == "prewarm ack deadline"
        assert mode_timeline(engine) == [(0.0, DeployMode.IAAS)]  # ... the flip is not

    def test_every_flip_changes_the_mode(self):
        env, engine, _ = make_engine()
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=200.0)
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=300.0)
        modes = [m for _, m in mode_timeline(engine)]
        assert len(modes) == 4
        assert all(a is not b for a, b in zip(modes, modes[1:]))
