"""Spot-backed IaaS rentals: billing split, reclamation episodes, drain vs kill."""

import pytest

from repro.cluster import SpotSpec
from repro.faults import FaultInjector, FaultPlan
from repro.iaas.service import IaaSService, ServiceState
from repro.iaas.sizing import RPC_OVERHEAD, size_service
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query


def make_spot_service(
    spot=None,
    plan=None,
    seed=6,
    name="float",
    peak=30.0,
):
    env = Environment()
    rng = RngRegistry(seed=seed)
    faults = FaultInjector(env, plan, rng) if plan is not None else None
    spec = benchmark(name)
    metrics = ServiceMetrics(name, spec.qos_target)
    svc = IaaSService(
        env, spec, size_service(spec, peak), rng, metrics=metrics, faults=faults, spot=spot
    )
    return env, svc, metrics


def drive(env, svc, ready, n, gap=0.1, start=0.0):
    """After ``ready``, submit ``n`` queries every ``gap`` s, from ``start``."""

    def _gen():
        yield ready
        if start > 0:
            yield env.timeout(start)
        for i in range(n):
            svc.invoke(Query(qid=i, service=svc.spec.name, t_submit=env.now))
            if gap > 0:
                yield env.timeout(gap)

    env.process(_gen())


class TestSpotSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpotSpec(fraction=1.5)
        with pytest.raises(ValueError):
            SpotSpec(fraction=-0.1)
        with pytest.raises(ValueError):
            SpotSpec(notice_s=-1.0)

    def test_no_spot_leaves_state_inert(self):
        env, svc, _ = make_spot_service()
        assert svc.spot is None
        assert svc.spot_ledger is None
        assert svc.spot_cores == 0.0

    def test_zero_fraction_is_treated_as_no_spot(self):
        env, svc, _ = make_spot_service(spot=SpotSpec(fraction=0.0))
        assert svc.spot is None
        assert svc.spot_ledger is None


class TestBillingSplit:
    def test_spot_share_bills_on_its_own_ledger(self):
        env, svc, _ = make_spot_service(spot=SpotSpec(fraction=0.5))
        svc.deploy()
        env.run(until=120.0)
        assert svc.state is ServiceState.RUNNING
        assert svc.spot_ledger is not None
        assert svc.spot_ledger.current_cores == pytest.approx(0.5 * svc.sizing.rented_cores)
        assert svc.ledger.current_cores == pytest.approx(0.5 * svc.sizing.rented_cores)

    def test_undeploy_releases_both_ledgers(self):
        env, svc, _ = make_spot_service(spot=SpotSpec(fraction=0.5))
        svc.deploy()
        env.run(until=120.0)
        svc.undeploy()
        env.run(until=240.0)
        assert svc.spot_ledger is not None
        assert svc.spot_ledger.current_cores == 0.0
        assert svc.ledger.current_cores == 0.0


class TestZeroProbIsInert:
    def test_no_faults_means_no_watch_and_no_preemption(self):
        env, svc, metrics = make_spot_service(spot=SpotSpec(fraction=0.5))
        ready = svc.deploy()
        drive(env, svc, ready, 50)
        env.run(until=600.0)
        assert not svc.preempted
        assert metrics.preemptions.records == []

    def test_spot_rental_with_zero_prob_is_bit_identical_to_on_demand(self):
        def run(spot, plan):
            env, svc, metrics = make_spot_service(spot=spot, plan=plan)
            ready = svc.deploy()
            drive(env, svc, ready, 100)
            env.run(until=600.0)
            return [x.hex() for x in metrics.latencies.values()]

        plain = run(None, None)
        spotted = run(SpotSpec(fraction=0.5), FaultPlan(vm_preemption_prob=0.0))
        assert spotted == plain


class TestGracefulReclamation:
    PLAN = FaultPlan(vm_preemption_prob=1.0, preemption_check_interval_s=5.0)

    def test_graceful_episode_drains_without_killing(self):
        env, svc, metrics = make_spot_service(
            spot=SpotSpec(fraction=0.5, notice_s=120.0, graceful=True), plan=self.PLAN
        )
        ready = svc.deploy()
        drive(env, svc, ready, 400, gap=0.5)
        env.run(until=600.0)
        assert svc.preempted and svc.replaced
        assert metrics.preemptions["noticed"] == 1
        assert metrics.preemptions["drained"] == 1
        assert metrics.preemptions["killed_inflight"] == 0
        assert metrics.preemptions["replaced"] == 1
        kinds = [(kind, where) for _t, kind, where in metrics.preemptions.records]
        assert kinds == [("noticed", "float"), ("replaced", "float"), ("drained", "float")]
        notice_t = metrics.preemptions.records[0][0]
        # the share is taken at the deadline, one notice after the warning
        assert metrics.preemptions.records[2][0] == notice_t + 120.0
        assert notice_t < metrics.preemptions.records[1][0] <= notice_t + 120.0
        assert metrics.drops.get("preempted", 0) == 0
        assert metrics.failed == 0
        # conservation: everything submitted either completed or is in flight
        assert metrics.completed + svc.in_flight == metrics.load.total

    def test_notice_fires_the_preemption_hook(self):
        env, svc, _ = make_spot_service(
            spot=SpotSpec(fraction=0.5, notice_s=90.0, graceful=True), plan=self.PLAN
        )
        seen = []
        svc.on_preemption = seen.append
        svc.deploy()
        env.run(until=300.0)
        assert seen == [90.0]

    def test_one_episode_per_run(self):
        env, svc, metrics = make_spot_service(
            spot=SpotSpec(fraction=0.5, notice_s=30.0, graceful=True), plan=self.PLAN
        )
        ready = svc.deploy()
        drive(env, svc, ready, 400, gap=0.5)
        env.run(until=1200.0)
        # prob=1.0 at a 5s cadence would re-preempt every check otherwise
        assert metrics.preemptions["noticed"] == 1
        assert metrics.preemptions["replaced"] == 1


class TestSlotResize:
    def test_shrunk_slots_queue_new_work_and_restore_starts_it_in_order(self):
        env, svc, _ = make_spot_service(spot=SpotSpec(fraction=0.5))
        svc.deploy(instant=True)
        started = []
        start = svc._start

        def logged_start(query, t_q):
            started.append(query.qid)
            start(query, t_q)

        svc._start = logged_start
        workers, survivors = svc.sizing.workers, svc._surviving_workers
        assert workers > survivors
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(workers + 6)]
        for q in queries[:workers]:
            svc.invoke(q)
        env.run(until=0.01)
        assert started == list(range(workers))
        svc._stop_doomed_dispatch()
        assert svc._worker_capacity() == survivors
        for q in queries[workers:]:
            svc.invoke(q)
        env.run(until=0.02)
        # every slot is held by a survivor of the shrink: the new work queues
        assert started == list(range(workers)) and len(svc._waiting) == 6
        # the first waiter starts only once the holders fit the shrunk slots
        while len(started) == workers:
            env.step()
        holders_done = sorted(q.t_complete for q in queries[:workers] if q.t_complete is not None)
        assert len(holders_done) == workers - survivors + 1
        assert env.now == holders_done[-1]
        assert svc._busy == survivors
        svc._restore_capacity()
        assert svc._busy == workers and len(svc._waiting) == 6 - 1 - (workers - survivors)
        env.run()
        assert started == [q.qid for q in queries]
        assert all(q.t_complete is not None for q in queries)

    def test_restore_grants_the_waiters_at_once(self):
        env, svc, _ = make_spot_service(spot=SpotSpec(fraction=0.5))
        svc.deploy(instant=True)
        svc._stop_doomed_dispatch()
        survivors = svc._worker_capacity()
        assert svc.sizing.workers >= survivors + 2
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(survivors + 2)]
        for q in queries:
            svc.invoke(q)
        env.run(until=0.01)
        assert svc._busy == survivors and len(svc._waiting) == 2
        svc._restore_capacity()
        assert svc._busy == survivors + 2 and not svc._waiting
        env.run()
        assert all(q.t_complete is not None and not q.failed for q in queries)
        assert svc._busy == 0

    def test_surviving_slots_never_drop_below_one(self):
        env, svc, _ = make_spot_service(spot=SpotSpec(fraction=1.0))
        svc.deploy(instant=True)
        svc._stop_doomed_dispatch()
        assert svc._worker_capacity() == 1
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(3)]
        for q in queries:
            svc.invoke(q)
        env.run()
        # one slot: each query starts as its predecessor completes
        started = [RPC_OVERHEAD + q.breakdown["queue"] for q in queries]
        assert started == pytest.approx([RPC_OVERHEAD] + [q.t_complete for q in queries[:-1]])
        assert all(q.t_complete is not None and not q.failed for q in queries)


class TestHardKill:
    PLAN = FaultPlan(vm_preemption_prob=1.0, preemption_check_interval_s=5.0)

    def test_hard_kill_drops_inflight_with_preempted_reason(self):
        env, svc, metrics = make_spot_service(
            spot=SpotSpec(fraction=0.5, graceful=False), plan=self.PLAN
        )
        ready = svc.deploy()
        # saturate the workers just before the first preemption check
        drive(env, svc, ready, 4 * svc.sizing.workers, gap=0.0, start=4.9)
        env.run(until=600.0)
        assert svc.preempted and svc.replaced
        assert metrics.preemptions["noticed"] == 0
        assert metrics.preemptions["drained"] == 0
        assert metrics.preemptions["killed_inflight"] >= 1
        assert metrics.preemptions["replaced"] == 1
        assert metrics.drops["preempted"] == metrics.preemptions["killed_inflight"]
        assert metrics.failed == metrics.preemptions["killed_inflight"]
        # conservation holds even through the kills
        assert metrics.completed + metrics.failed + svc.in_flight == metrics.load.total

    def test_slots_balance_after_the_kills(self):
        # a victim's slot is freed once, by its ghost execution finishing
        env, svc, metrics = make_spot_service(
            spot=SpotSpec(fraction=0.5, graceful=False), plan=self.PLAN
        )
        ready = svc.deploy()
        drive(env, svc, ready, 4 * svc.sizing.workers, gap=0.0, start=4.9)
        env.run(until=600.0)
        assert metrics.preemptions["killed_inflight"] >= 1
        assert svc.in_flight == 0
        assert svc._busy == 0 and not svc._waiting and not svc._active
        assert metrics.completed + metrics.failed == metrics.load.total

    def test_hook_reports_zero_notice(self):
        env, svc, _ = make_spot_service(
            spot=SpotSpec(fraction=0.5, graceful=False), plan=self.PLAN
        )
        seen = []
        svc.on_preemption = seen.append
        svc.deploy()
        env.run(until=300.0)
        assert seen == [0.0]


class TestDeterminism:
    def test_same_seed_same_episode(self):
        def run(seed):
            env, svc, metrics = make_spot_service(
                spot=SpotSpec(fraction=0.5, graceful=False),
                plan=FaultPlan(vm_preemption_prob=0.5, preemption_check_interval_s=10.0),
                seed=seed,
            )
            ready = svc.deploy()
            drive(env, svc, ready, 300, gap=0.5)
            env.run(until=600.0)
            return (
                list(metrics.preemptions.records),
                [x.hex() for x in metrics.latencies.values()],
            )

        a_counters, a_lat = run(13)
        b_counters, b_lat = run(13)
        c_counters, c_lat = run(14)
        assert a_counters == b_counters
        assert a_lat == b_lat
        assert (a_counters, a_lat) != (c_counters, c_lat)
