"""Fault injection in the container pool: cold-start retries, crashes, drops."""

import itertools

from repro.faults import FaultInjector, FaultPlan
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query

QIDS = itertools.count()


def make_platform(plan, seed=5):
    env = Environment()
    rng = RngRegistry(seed=seed)
    faults = FaultInjector(plan, rng)
    platform = ServerlessPlatform(env, rng, faults=faults)
    return env, platform, faults


def register(platform, spec, **kw):
    metrics = ServiceMetrics(spec.name, spec.qos_target)
    platform.register(spec, metrics=metrics, **kw)
    return metrics


def submit(env, platform, name, n=1):
    out = []
    for _ in range(n):
        q = Query(qid=next(QIDS), service=name, t_submit=env.now)
        platform.invoke(q)
        out.append(q)
    return out


def script(faults, method, results):
    """Replace one injector hook with a scripted decision sequence."""
    it = iter(results)
    setattr(faults, method, lambda service: next(it, False))


class TestColdStartFaults:
    def test_failed_cold_start_retries_in_place_and_serves(self):
        env, platform, faults = make_platform(FaultPlan(cold_start_failure_prob=0.5))
        script(faults, "cold_start_fails", [True, False])
        register(platform, benchmark("float"))
        (q,) = submit(env, platform, "float")
        env.run(until=60.0)
        assert q.t_complete is not None
        fs = platform.pool.state("float")
        assert fs.cold_starts == 1  # relaunched in place, not re-pledged
        assert fs.n_init == 0

    def test_exhausted_cold_start_abandons_pledge(self):
        plan = FaultPlan(cold_start_failure_prob=1.0, max_cold_start_retries=0)
        env, platform, faults = make_platform(plan)
        register(platform, benchmark("float"))
        ack = platform.prewarm("float", 1)
        env.run(until=60.0)
        # the prewarm ack still resolves (with None from the dead pledge)
        assert ack.processed
        assert faults.stats.cold_starts_abandoned >= 1
        fs = platform.pool.state("float")
        assert fs.n_init == 0
        assert platform.warm_count("float") == 0
        assert platform.pool.container_memory_in_use == 0.0


class TestCrashFaults:
    def test_crashed_query_is_retried_and_completes(self):
        env, platform, faults = make_platform(FaultPlan(container_crash_prob=0.5))
        script(faults, "container_crashes", [True, False])
        metrics = register(platform, benchmark("float"))
        (q,) = submit(env, platform, "float")
        env.run(until=60.0)
        assert q.t_complete is not None and not q.failed
        assert q.attempts == 1
        assert metrics.retries["attempted"] == 1
        assert metrics.retries.total == 1
        assert metrics.completed == 1
        assert faults.stats.query_retries == 1
        assert faults.stats.queries_dropped == 0

    def test_retry_budget_exhausted_drops_the_query(self):
        plan = FaultPlan(container_crash_prob=1.0, max_query_retries=1)
        env, platform, faults = make_platform(plan)
        metrics = register(platform, benchmark("float"))
        (q,) = submit(env, platform, "float")
        env.run(until=120.0)
        assert q.failed
        assert q.attempts == 2  # initial + one retry, both crashed
        assert metrics.retries["attempted"] == 1
        assert metrics.retries["exhausted"] == 1
        assert metrics.failed == 1
        assert metrics.completed == 0  # drops never pollute the latency ledgers
        assert metrics.violation_fraction_with_failures == 1.0
        assert faults.stats.queries_dropped == 1
        fs = platform.pool.state("float")
        assert fs.n_busy == 0

    def test_crashed_container_memory_is_returned(self):
        plan = FaultPlan(container_crash_prob=1.0, max_query_retries=0)
        env, platform, faults = make_platform(plan)
        register(platform, benchmark("float"))
        submit(env, platform, "float")
        env.run(until=120.0)
        # the crashed container was retired; nothing warm survives it
        assert platform.pool.container_memory_in_use == 0.0
        assert platform.warm_count("float") == 0


class TestPoolFaultDeterminism:
    def _run(self, seed):
        plan = FaultPlan(container_crash_prob=0.3, cold_start_failure_prob=0.3)
        env, platform, faults = make_platform(plan, seed=seed)
        metrics = register(platform, benchmark("float"))
        for t in range(40):
            env.run(until=float(t))
            submit(env, platform, "float")
        env.run(until=120.0)
        return metrics, faults.stats

    def test_same_seed_reproduces_fault_sequence(self):
        m1, s1 = self._run(seed=9)
        m2, s2 = self._run(seed=9)
        assert s1.as_dict() == s2.as_dict()
        assert s1.total_injected > 0
        lat1 = [x.hex() for x in m1.latencies.values()]
        lat2 = [x.hex() for x in m2.latencies.values()]
        assert lat1 == lat2
