"""Overload protection at IaaS dispatch: admission, worker-queue shedding."""

import itertools

from repro.iaas.service import IaaSService
from repro.iaas.sizing import RPC_OVERHEAD, size_service
from repro.overload import OverloadGovernor, OverloadPolicy
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query

QIDS = itertools.count()


def make_service(policy=None, rate=30.0, seed=4):
    env = Environment()
    spec = benchmark("float")
    metrics = ServiceMetrics(spec.name, spec.qos_target)
    gov = None
    if policy is not None:
        mu = 1.0 / (spec.exec_time + RPC_OVERHEAD)
        gov = OverloadGovernor(
            policy, qos_target=spec.qos_target, mu_serverless=mu, mu_iaas=mu
        )
    svc = IaaSService(
        env, spec, size_service(spec, rate), RngRegistry(seed=seed),
        metrics=metrics, overload=gov,
    )
    svc.deploy(instant=True)
    return env, svc, metrics, gov


def submit(env, svc, n=1):
    out = []
    for _ in range(n):
        q = Query(qid=next(QIDS), service=svc.spec.name, t_submit=env.now)
        svc.invoke(q)
        out.append(q)
    return out


class TestAdmission:
    def test_full_worker_queue_rejects_at_dispatch(self):
        policy = OverloadPolicy(
            max_queue_depth=2, admission_control=False,
            shed_expired=False, breaker_enabled=False,
        )
        env, svc, metrics, gov = make_service(policy)
        submit(env, svc, n=12)
        env.run(until=0.05)  # burst now queued on the worker slots
        late = submit(env, svc, n=3)
        assert metrics.drops["admission"] == 3 == metrics.failed
        assert gov.rejections["admission"] == 3
        for q in late:
            assert q.failed and q.served_by == "iaas"

    def test_predicted_qos_miss_rejects_at_dispatch(self):
        policy = OverloadPolicy(shed_expired=False, breaker_enabled=False)
        env, svc, metrics, gov = make_service(policy)
        submit(env, svc, n=40)
        env.run(until=0.05)
        submit(env, svc, n=5)
        assert metrics.drops["admission"] >= 1
        # admitted in-flight work is unaffected by the rejections
        env.run(until=60.0)
        assert metrics.completed > 0
        assert svc.in_flight == 0

    def test_no_policy_admits_everything(self):
        env, svc, metrics, _ = make_service(policy=None)
        submit(env, svc, n=30)
        env.run(until=60.0)
        assert metrics.failed == 0
        assert metrics.completed == 30


class TestShedding:
    def test_expired_queue_wait_sheds_and_frees_the_worker(self):
        policy = OverloadPolicy(
            admission_control=False, breaker_enabled=False, queue_wait_budget=0.5
        )
        env, svc, metrics, gov = make_service(policy)
        queries = submit(env, svc, n=60)  # ~0.08 s exec vs a 0.15 s budget
        env.run(until=60.0)
        n_shed = metrics.drops["shed"]
        assert n_shed >= 1
        shed = [q for q in queries if q.failed]
        assert len(shed) == n_shed
        for q in shed:
            assert q.breakdown["queue"] > policy.wait_budget(svc.spec.qos_target)
        # every shed slot was reused: the service fully drained
        assert svc.in_flight == 0
        assert metrics.completed == 60 - n_shed

    def test_disabled_policy_sheds_nothing(self):
        env, svc, metrics, _ = make_service(OverloadPolicy.disabled())
        submit(env, svc, n=60)
        env.run(until=60.0)
        assert metrics.failed == 0
        assert metrics.completed == 60


class TestQueueDepthObservability:
    def test_depth_timeline_and_exact_peak_are_sampled(self):
        env, svc, metrics, _ = make_service(policy=None)
        submit(env, svc, n=30)
        env.run(until=60.0)
        times, values = svc.queue_depth.times(), svc.queue_depth.values()
        assert len(times) == len(values) > 0
        assert svc.peak_queue_depth >= max(int(v) for v in values)
        assert svc.peak_queue_depth >= 1
