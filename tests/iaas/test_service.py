"""IaaS service lifecycle and serving."""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iaas.platform import IaaSPlatform
from repro.iaas.service import IaaSService, ServiceState
from repro.iaas.sizing import RPC_OVERHEAD, size_service
from repro.overload import OverloadGovernor, OverloadPolicy
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query


def make_service(env, rng, name="float", peak=30.0, metrics=None):
    spec = benchmark(name)
    sizing = size_service(spec, peak)
    return IaaSService(env, spec, sizing, rng, metrics=metrics)


def query(env, n=0):
    return Query(qid=n, service="float", t_submit=env.now)


def slot_service(workers, seed=3, overload=None):
    """A deployed ``float`` service with ``workers`` worker slots."""
    env = Environment()
    spec = benchmark("float")
    sizing = dataclasses.replace(size_service(spec, 30.0), workers=workers)
    svc = IaaSService(env, spec, sizing, RngRegistry(seed=seed), overload=overload)
    svc.deploy(instant=True)
    return env, svc


def log_starts(svc):
    """Record ``(qid, now)`` of each worker grant, in grant order."""
    starts = []
    start = svc._start

    def logged_start(query, t_q):
        starts.append((query.qid, svc.env.now))
        start(query, t_q)

    svc._start = logged_start
    return starts


class TestLifecycle:
    def test_instant_deploy(self, env, rng):
        svc = make_service(env, rng)
        ready = svc.deploy(instant=True)
        assert ready.triggered
        assert svc.state is ServiceState.RUNNING
        assert svc.ledger.current_cores == svc.sizing.rented_cores

    def test_boot_delay(self, env, rng):
        svc = make_service(env, rng)
        ready = svc.deploy()
        assert svc.state is ServiceState.BOOTING
        env.run(until=ready)
        assert env.now > 10.0  # VM boot takes tens of seconds
        assert svc.state is ServiceState.RUNNING

    def test_double_deploy_raises(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        with pytest.raises(RuntimeError):
            svc.deploy()

    def test_undeploy_releases_resources(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        done = svc.undeploy()
        assert done.triggered  # nothing in flight
        assert svc.state is ServiceState.STOPPED
        assert svc.ledger.current_cores == 0.0

    def test_undeploy_waits_for_drain(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        svc.invoke(query(env))
        done = svc.undeploy()
        assert not done.triggered
        assert svc.state is ServiceState.DRAINING
        env.run(until=done)
        assert svc.state is ServiceState.STOPPED
        assert svc.completions == 1

    def test_undeploy_while_stopped_raises(self, env, rng):
        svc = make_service(env, rng)
        with pytest.raises(RuntimeError):
            svc.undeploy()

    def test_redeploy_after_drain(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        env.run(until=svc.undeploy())
        ready = svc.deploy(instant=True)
        assert ready.triggered
        assert svc.state is ServiceState.RUNNING


class TestServing:
    def test_invoke_while_stopped_raises(self, env, rng):
        svc = make_service(env, rng)
        with pytest.raises(RuntimeError):
            svc.invoke(query(env))

    def test_query_served_and_recorded(self, env, rng):
        metrics = ServiceMetrics("float", benchmark("float").qos_target)
        svc = make_service(env, rng, metrics=metrics)
        svc.deploy(instant=True)
        q = query(env)
        svc.invoke(q)
        env.run(until=5.0)
        assert q.served_by == "iaas"
        assert q.latency < 0.2
        assert metrics.completed == 1

    def test_worker_slots_queue_excess(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        n = svc.sizing.workers
        qs = [query(env, i) for i in range(3 * n)]
        for q in qs:
            svc.invoke(q)
        env.run(until=30.0)
        waits = [q.breakdown["queue"] for q in qs]
        assert max(waits) > 0.0  # someone queued
        assert all(q.t_complete is not None for q in qs)

    def test_draining_serves_inflight_only(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        svc.invoke(query(env))
        svc.undeploy()
        # new invocations during draining are allowed (engine routes away)
        svc.invoke(query(env, 1))
        env.run(until=10.0)
        assert svc.completions == 2
        assert svc.state is ServiceState.STOPPED


#: latency (``float.hex``) or ``"shed"`` of each query in
#: :meth:`TestServingGolden.test_queued_and_shed_outcomes_are_pinned`
GOLDEN_OUTCOMES = [
    "0x1.3d48c7f5ea8fep-4", "0x1.6e212bea04e8cp-4", "0x1.bc0b039f436fep-4", "0x1.d5f53effc9814p-4",
    "0x1.51fb151b3900cp-3", "0x1.763450e905c6bp-3", "0x1.b0a926ddcbb4ep-3", "0x1.e27eafc52a696p-3",
    "shed", "shed", "0x1.b1975d0b98122p-3", "0x1.88a09202f4918p-3",
    "shed", "0x1.2defb53220004p-3", "0x1.0476d53a4fbdcp-3", "0x1.7f2b6a3d4f428p-4",
    "0x1.e9f3359643888p-4", "0x1.6525416d51284p-3", "0x1.83ae96db40df4p-3", "0x1.abb57759d46d4p-3",
    "0x1.774d9fdaeec4cp-3", "0x1.dc1cc1e9feb18p-3", "shed", "0x1.c11d04c161c38p-3",
    "shed", "0x1.e5ab27c228c28p-3", "0x1.9e99727a109c4p-3", "shed",
    "0x1.9a834e2e6f9e0p-3", "0x1.9ac9c35e5a238p-3", "0x1.9a21f7fa6e370p-3", "0x1.23c1934226098p-3",
    "0x1.c2e41673ba700p-3", "0x1.a730eaf9df3d8p-3", "0x1.ba55cf8c4fdd8p-3", "0x1.b154209177588p-3",
    "shed", "0x1.cd448fb354440p-3", "0x1.59c4780d41730p-3", "0x1.d7715f9c9cca8p-3",
]


class TestServingGolden:
    def test_queued_and_shed_outcomes_are_pinned(self):
        # two worker slots at ~25 queries/s of capacity against ~25/s of
        # Poisson arrivals: queries queue, and a tight wait budget sheds
        # some of them, so every serving step shows in the outcomes
        env = Environment()
        spec = benchmark("float")
        sizing = dataclasses.replace(size_service(spec, 30.0), workers=2)
        policy = OverloadPolicy(
            admission_control=False, breaker_enabled=False, queue_wait_budget=0.5
        )
        mu = 1.0 / (spec.exec_time + RPC_OVERHEAD)
        gov = OverloadGovernor(policy, qos_target=spec.qos_target, mu_serverless=mu, mu_iaas=mu)
        svc = IaaSService(env, spec, sizing, RngRegistry(seed=21), overload=gov)
        svc.deploy(instant=True)
        queries = []
        t = 0.0
        for i, gap in enumerate(np.random.default_rng(5).exponential(0.04, size=40).tolist()):
            t += gap
            q = Query(qid=i, service=spec.name, t_submit=t)
            queries.append(q)
            env.schedule_callback(t, lambda q=q: svc.invoke(q))
        env.run()
        outcomes = ["shed" if q.failed else q.latency.hex() for q in queries]
        assert outcomes == GOLDEN_OUTCOMES
        assert gov.rejections["shed"] == 7 and svc.peak_queue_depth == 6
        assert svc.in_flight == 0 and svc.completions == 33

    def test_uncontended_query_schedules_three_events(self):
        # RPC overhead, worker grant and the machine's completion timer,
        # which calls the query's finisher directly; nothing else touches
        # the heap
        env = Environment()
        spec = benchmark("float")
        svc = IaaSService(env, spec, size_service(spec, 30.0), RngRegistry(seed=1234))
        svc.deploy(instant=True)
        before = env.scheduled_total
        q = Query(qid=0, service=spec.name, t_submit=env.now)
        svc.invoke(q)
        env.run()
        assert env.scheduled_total - before == 3
        assert q.latency.hex() == "0x1.79b76e1f00c6ep-4"


class TestWorkerSlots:
    def test_zero_worker_slots_are_rejected(self):
        spec = benchmark("float")
        sizing = dataclasses.replace(size_service(spec, 30.0), workers=0)
        with pytest.raises(ValueError):
            IaaSService(Environment(), spec, sizing, RngRegistry(seed=3))

    def test_claims_past_the_slots_wait(self):
        env, svc = slot_service(2)
        starts = log_starts(svc)
        for i in range(3):
            svc.invoke(Query(qid=i, service="float", t_submit=0.0))
        env.run(until=2 * RPC_OVERHEAD)
        assert starts == [(0, RPC_OVERHEAD), (1, RPC_OVERHEAD)]
        assert svc._busy == 2
        assert [q.qid for q, _ in svc._waiting] == [2]
        assert svc.peak_queue_depth == 1

    def test_one_slot_starts_queries_in_submit_order(self):
        env, svc = slot_service(1)
        starts = log_starts(svc)
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(4)]
        for q in queries:
            svc.invoke(q)
        env.run()
        assert [qid for qid, _ in starts] == [0, 1, 2, 3]
        # each query starts the instant its predecessor frees the slot
        assert [t for _, t in starts[1:]] == [q.t_complete for q in queries[:-1]]

    def test_finish_hands_the_slot_to_the_oldest_waiter(self):
        env, svc = slot_service(1)
        starts = log_starts(svc)
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(3)]
        for q in queries:
            svc.invoke(q)
        while queries[0].t_complete is None:
            env.step()
        assert svc._busy == 1
        assert [q.qid for q, _ in svc._waiting] == [2]
        while len(starts) < 2:
            env.step()
        assert starts[1] == (1, queries[0].t_complete)

    def test_waiters_start_when_holders_leave(self):
        env, svc = slot_service(2)
        starts = log_starts(svc)
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(4)]
        for q in queries:
            svc.invoke(q)
        env.run()
        q0, q1, q2, _ = (q.t_complete for q in queries)
        first_free, second_free = sorted([q0, q1])
        assert starts == [
            (0, RPC_OVERHEAD),
            (1, RPC_OVERHEAD),
            (2, first_free),
            (3, min(second_free, q2)),
        ]

    def test_undeploy_serves_the_waiting_queue_before_stopping(self):
        env, svc = slot_service(1)
        starts = log_starts(svc)
        queries = [Query(qid=i, service="float", t_submit=0.0) for i in range(3)]
        for q in queries:
            svc.invoke(q)
        env.run(until=2 * RPC_OVERHEAD)
        assert len(svc._waiting) == 2
        done = svc.undeploy()
        assert svc.state is ServiceState.DRAINING
        env.run(until=done)
        assert [qid for qid, _ in starts] == [0, 1, 2]
        assert all(not q.failed for q in queries)
        assert env.now == queries[-1].t_complete
        assert svc.state is ServiceState.STOPPED

    def test_shed_waiter_passes_its_slot_to_the_next(self):
        spec = benchmark("float")
        policy = OverloadPolicy(
            admission_control=False, breaker_enabled=False, queue_wait_budget=0.5
        )
        mu = 1.0 / (spec.exec_time + RPC_OVERHEAD)
        gov = OverloadGovernor(policy, qos_target=spec.qos_target, mu_serverless=mu, mu_iaas=mu)
        env, svc = slot_service(1, overload=gov)
        starts = log_starts(svc)
        queries = [Query(qid=i, service="float", t_submit=0.02 * i) for i in range(12)]
        for q in queries:
            env.schedule_callback(q.t_submit, lambda q=q: svc.invoke(q))
        env.run()
        shed = [q.qid for q in queries if q.failed]
        # some shed query hands its slot to one that is then served
        assert any(not queries[qid + 1].failed for qid in shed if qid < 11)
        assert [qid for qid, _ in starts] == list(range(12))
        for (qid, t), (_, t_next) in zip(starts, starts[1:]):
            if qid in shed:
                # the shed query never executed; the next waiter got the slot at once
                assert "exec" not in queries[qid].breakdown
                assert queries[qid].t_complete == t == t_next
        assert svc._busy == 0 and not svc._waiting and svc.in_flight == 0

    def test_grant_leaves_no_cyclic_garbage(self):
        # a grant is a plain callback: a served query leaves nothing that
        # only the cycle collector can free
        env, svc = slot_service(4)
        queries = []
        for i in range(200):
            q = Query(qid=i, service="float", t_submit=i * 0.01)
            queries.append(q)
            env.schedule_callback(q.t_submit, lambda q=q: svc.invoke(q))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            env.run()
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert svc.peak_queue_depth > 0
        assert all(q.t_complete is not None and not q.failed for q in queries)

    @given(
        st.integers(1, 4),
        st.lists(st.floats(0.0, 0.1, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_fifo_grants_capped_at_the_slots_and_no_idle_slot_while_waiting(self, workers, gaps):
        env, svc = slot_service(workers)
        # each worker claim and each start as (qid, now), in event order
        claims = []
        claim = svc._claim_worker

        def logged_claim(query):
            claims.append((query.qid, env.now))
            claim(query)

        svc._claim_worker = logged_claim
        starts = log_starts(svc)
        queries = []
        t = 0.0
        for i, gap in enumerate(gaps):
            t += gap
            q = Query(qid=i, service="float", t_submit=t)
            queries.append(q)
            env.schedule_callback(t, lambda q=q: svc.invoke(q))
        env.run()
        assert all(q.t_complete is not None for q in queries)
        # queries start in claim order
        assert [qid for qid, _ in starts] == [qid for qid, _ in claims]
        claimed_at = dict(claims)
        runs = [(now, queries[qid].t_complete) for qid, now in starts]

        def executing(t):
            return sum(1 for s, e in runs if s <= t < e)

        # at most ``workers`` execute at once
        assert max(executing(s) for s, _ in runs) <= workers
        # a query waits only while every slot is busy
        for qid, started in starts:
            c = claimed_at[qid]
            if started > c:
                edges = [c] + [x for run in runs for x in run if c < x < started]
                assert all(executing(x) == workers for x in edges), qid


class TestUtilization:
    def test_machine_cpu_in_use_rises_under_load(self, env, rng):
        svc = make_service(env, rng)
        svc.deploy(instant=True)
        for i in range(20):
            svc.invoke(query(env, i))
        env.run(until=10.0)
        busy = svc.machine.cpu_in_use.mean(env.now)
        assert 0.0 < busy < svc.sizing.rented_cores

    def test_platform_deploy_and_route(self, env, rng):
        platform = IaaSPlatform(env, rng)
        metrics = ServiceMetrics("float", benchmark("float").qos_target)
        platform.deploy(benchmark("float"), peak_rate=30.0, metrics=metrics)
        platform.invoke(query(env))
        env.run(until=5.0)
        assert metrics.completed == 1
        with pytest.raises(KeyError):
            platform.service("ghost")
        with pytest.raises(ValueError):
            platform.deploy(benchmark("float"), peak_rate=30.0)
