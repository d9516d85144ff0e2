"""FaultInjector: named streams, zero-draw inertness, ack filtering."""

from repro.faults import FaultInjector, FaultPlan
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry


def make(plan=None, seed=3):
    rng = RngRegistry(seed=seed)
    return FaultInjector(plan if plan is not None else FaultPlan(), rng), rng


class TestZeroPlan:
    def test_zero_plan_makes_no_draws_and_no_streams(self):
        inj, rng = make()
        assert not inj.cold_start_fails("svc")
        assert not inj.container_crashes("svc")
        assert inj.vm_boot_delay("svc") == 0.0
        assert not inj.vm_boot_fails("svc")
        assert inj.meter_outage("m") == 0.0
        assert not inj.meter_sample_dropped("m")
        # the determinism contract: a zero plan is invisible to the RNG
        assert rng._streams == {}
        assert inj.stats.total_injected == 0

    def test_zero_plan_passes_ack_through_untouched(self):
        env = Environment()
        inj, rng = make()
        ack = env.event()
        assert inj.filter_prewarm_ack("svc", ack, env) is ack
        assert rng._streams == {}


class TestDeterminism:
    def test_same_seed_same_decision_sequence(self):
        plan = FaultPlan(container_crash_prob=0.3)
        a, _ = make(plan, seed=11)
        b, _ = make(plan, seed=11)
        seq_a = [a.container_crashes("svc") for _ in range(200)]
        seq_b = [b.container_crashes("svc") for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_decision_sequences_are_pinned(self):
        # one uniform [0, 1) draw per roll, compared against the probability
        crash, _ = make(FaultPlan(container_crash_prob=0.3), seed=11)
        boot, _ = make(FaultPlan(cold_start_failure_prob=0.5), seed=3)
        rolls = {
            "crash": "".join("01"[crash.container_crashes("svc")] for _ in range(48)),
            "coldstart": "".join("01"[boot.cold_start_fails("svc")] for _ in range(48)),
        }
        assert rolls == {
            "crash": "010000000000101000011001000000010000000010100111",
            "coldstart": "001111100011001101111111100000100001100100111110",
        }

    def test_streams_are_named_per_fault_class_and_service(self):
        inj, rng = make(FaultPlan(container_crash_prob=0.3, cold_start_failure_prob=0.3))
        inj.container_crashes("a")
        inj.container_crashes("b")
        inj.cold_start_fails("a")
        assert set(rng._streams) == {
            "faults/crash/a",
            "faults/crash/b",
            "faults/coldstart/a",
        }


class TestCounters:
    def test_counters_track_injections(self):
        plan = FaultPlan(container_crash_prob=1.0, cold_start_failure_prob=1.0)
        inj, _ = make(plan)
        assert inj.container_crashes("svc")
        assert inj.cold_start_fails("svc")
        assert inj.stats.container_crashes == 1
        assert inj.stats.cold_start_failures == 1
        assert inj.stats.total_injected == 2
        assert inj.stats.as_dict()["container_crashes"] == 1

    def test_certain_boot_delay_returns_plan_duration(self):
        inj, _ = make(FaultPlan(vm_boot_delay_prob=1.0, vm_boot_delay_s=17.0))
        assert inj.vm_boot_delay("svc") == 17.0
        assert inj.stats.vm_boot_delays == 1

    def test_certain_meter_outage_returns_plan_duration(self):
        inj, _ = make(FaultPlan(meter_outage_prob=1.0, meter_outage_duration_s=45.0))
        assert inj.meter_outage("cpu-meter") == 45.0
        assert inj.stats.meter_outages == 1


class TestPreemption:
    def test_zero_prob_makes_no_draws(self):
        inj, rng = make()
        assert not inj.vm_preempted("svc")
        assert rng._streams == {}
        assert inj.stats.vm_preemptions == 0

    def test_certain_preemption_counts_and_uses_named_stream(self):
        inj, rng = make(FaultPlan(vm_preemption_prob=1.0))
        assert inj.vm_preempted("svc")
        assert inj.stats.vm_preemptions == 1
        assert set(rng._streams) == {"faults/preemption/svc"}

    def test_same_seed_same_preemption_sequence(self):
        plan = FaultPlan(vm_preemption_prob=0.3)
        a, _ = make(plan, seed=21)
        b, _ = make(plan, seed=21)
        seq_a = [a.vm_preempted("svc") for _ in range(200)]
        seq_b = [b.vm_preempted("svc") for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)


class TestAckFilter:
    def test_lost_ack_never_fires(self):
        env = Environment()
        inj, _ = make(FaultPlan(prewarm_ack_loss_prob=1.0))
        ack = env.timeout(1.0, value=4)
        seen = inj.filter_prewarm_ack("svc", ack, env)
        assert seen is not ack
        env.run(until=100.0)
        assert ack.processed  # the warming itself still happened
        assert not seen.triggered
        assert inj.stats.prewarm_acks_lost == 1

    def test_delayed_ack_relays_value_late(self):
        env = Environment()
        inj, _ = make(FaultPlan(prewarm_ack_delay_prob=1.0, prewarm_ack_delay_s=5.0))
        ack = env.timeout(1.0, value=4)
        seen = inj.filter_prewarm_ack("svc", ack, env)
        env.run(until=3.0)
        # the relay is armed (triggered) but fires only after the delay
        assert ack.processed and not seen.processed
        env.run(until=10.0)
        assert seen.processed
        assert seen.value == 4
        assert inj.stats.prewarm_acks_delayed == 1

    def test_delay_applies_to_already_processed_ack(self):
        env = Environment()
        inj, _ = make(FaultPlan(prewarm_ack_delay_prob=1.0, prewarm_ack_delay_s=5.0))
        ack = env.timeout(1.0, value=9)
        env.run(until=2.0)
        seen = inj.filter_prewarm_ack("svc", ack, env)
        assert not seen.processed
        env.run(until=10.0)
        assert seen.processed and seen.value == 9
