"""IaaS service under fault injection: boot retries, failures, force release."""

import pytest

from repro.faults import FaultInjector, FaultPlan, VMBootFailed
from repro.iaas.service import IaaSService, ServiceState
from repro.iaas.sizing import size_service
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark


def make_service(plan=None, seed=6):
    env = Environment()
    rng = RngRegistry(seed=seed)
    faults = FaultInjector(env, plan, rng) if plan is not None else None
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    svc = IaaSService(
        env, spec, size_service(spec, 30.0), rng, metrics=metrics, faults=faults
    )
    return env, svc, faults


def script(faults, method, results):
    it = iter(results)
    setattr(faults, method, lambda service: next(it, False))


class TestBootFaults:
    def test_failed_boot_retries_then_runs(self):
        env, svc, faults = make_service(FaultPlan(vm_boot_failure_prob=0.5))
        script(faults, "vm_boot_fails", [True, False])
        ready = svc.deploy()
        env.run(until=300.0)
        assert ready.processed and ready.ok
        assert svc.state is ServiceState.RUNNING
        assert svc.boot_ready is None

    def test_exhausted_boot_fails_ready_and_rolls_back(self):
        plan = FaultPlan(vm_boot_failure_prob=1.0, max_boot_retries=1)
        env, svc, faults = make_service(plan)
        ready = svc.deploy()
        failures = []
        assert ready.callbacks is not None
        ready.callbacks.append(lambda ev: failures.append(ev.value) or ev.defuse())
        env.run(until=600.0)
        assert failures and isinstance(failures[0], VMBootFailed)
        assert svc.state is ServiceState.STOPPED
        assert svc.boot_ready is None
        assert faults.stats["vm_boots_abandoned"] == 1
        # the rollback leaves the service deployable again
        script(faults, "vm_boot_fails", [False])
        ready2 = svc.deploy()
        env.run(until=1200.0)
        assert ready2.processed and ready2.ok
        assert svc.state is ServiceState.RUNNING

    def test_boot_delay_stretches_the_attempt(self):
        def ready_time(plan):
            env, svc, _ = make_service(plan, seed=12)
            ready = svc.deploy()
            times = []
            assert ready.callbacks is not None
            ready.callbacks.append(lambda ev: times.append(env.now))
            env.run(until=600.0)
            assert times, "boot never completed"
            return times[0]

        plain = ready_time(FaultPlan())
        # same seed, same vmboot draw; the fault adds exactly the delay
        delayed = ready_time(FaultPlan(vm_boot_delay_prob=1.0, vm_boot_delay_s=50.0))
        assert delayed == pytest.approx(plain + 50.0)


class TestForceRelease:
    def test_force_release_frees_a_stuck_drain(self):
        env, svc, _ = make_service()
        svc.deploy(instant=True)
        svc.in_flight += 1  # a query that never finishes
        drained = svc.undeploy()
        env.run(until=50.0)
        assert svc.state is ServiceState.DRAINING
        assert not drained.triggered
        svc.force_release()
        assert svc.state is ServiceState.STOPPED
        env.run(until=60.0)
        assert drained.processed
        # the straggler finishing later must not double-release the ledger
        svc.in_flight -= 1
        svc._maybe_release()
        assert svc.state is ServiceState.STOPPED

    def test_force_release_is_noop_unless_draining(self):
        env, svc, _ = make_service()
        svc.force_release()  # STOPPED: nothing to do
        assert svc.state is ServiceState.STOPPED
        svc.deploy(instant=True)
        svc.force_release()  # RUNNING: not a drain, untouched
        assert svc.state is ServiceState.RUNNING
