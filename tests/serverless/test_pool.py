"""Container pool: lifecycle, dispatch, memory cap, prewarm, NoP mode."""

import itertools

import pytest

from repro.serverless.config import ServerlessConfig
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query

QIDS = itertools.count()


def make_platform(env=None, **cfg_kwargs):
    env = env if env is not None else Environment()
    rng = RngRegistry(seed=5)
    cfg = ServerlessConfig(**cfg_kwargs)
    return env, ServerlessPlatform(env, rng, config=cfg)


def submit(env, platform, name, n=1):
    out = []
    for _ in range(n):
        q = Query(qid=next(QIDS), service=name, t_submit=env.now)
        platform.invoke(q)
        out.append(q)
    return out


def register(platform, spec, **kw):
    metrics = ServiceMetrics(spec.name, spec.qos_target)
    platform.register(spec, metrics=metrics, **kw)
    return metrics


class TestLifecycle:
    def test_first_query_cold_starts(self):
        env, platform = make_platform()
        spec = benchmark("float")
        register(platform, spec)
        (q,) = submit(env, platform, "float")
        env.run(until=30.0)
        assert q.t_complete is not None
        assert q.breakdown["cold"] > 0.5
        assert platform.pool.state("float").cold_starts == 1

    def test_second_query_reuses_warm_container(self):
        env, platform = make_platform()
        spec = benchmark("float")
        register(platform, spec)
        submit(env, platform, "float")
        env.run(until=10.0)
        (q2,) = submit(env, platform, "float")
        env.run(until=20.0)
        assert q2.breakdown.get("cold", 0.0) == 0.0
        assert platform.pool.state("float").cold_starts == 1

    def test_keep_alive_reaps_idle_container(self):
        env, platform = make_platform(keep_alive=30.0)
        register(platform, benchmark("float"))
        submit(env, platform, "float")
        env.run(until=10.0)
        assert platform.warm_count("float") == 1
        env.run(until=60.0)
        assert platform.warm_count("float") == 0
        assert platform.pool.container_memory_in_use == 0.0

    def test_reuse_rearms_keep_alive(self):
        env, platform = make_platform(keep_alive=30.0)
        register(platform, benchmark("float"))
        submit(env, platform, "float")
        env.run(until=25.0)
        submit(env, platform, "float")  # re-used near end of keep-alive
        env.run(until=40.0)
        assert platform.warm_count("float") == 1  # timer restarted

    def test_zero_keep_alive_retires_after_each_query(self):
        env, platform = make_platform()
        register(platform, benchmark("float"), keep_alive=0.0)
        submit(env, platform, "float", n=3)
        env.run(until=60.0)
        fs = platform.pool.state("float")
        assert fs.completions == 3
        assert fs.cold_starts == 3  # no reuse at all
        assert platform.warm_count("float") == 0

    def test_breakdown_has_all_stages(self):
        env, platform = make_platform()
        register(platform, benchmark("matmul"))
        (q,) = submit(env, platform, "matmul")
        env.run(until=30.0)
        for stage in ("proc", "queue", "cold", "load", "exec", "post"):
            assert stage in q.breakdown
        assert q.served_by == "serverless"
        total = sum(q.breakdown.values())
        assert total == pytest.approx(q.latency, rel=1e-6)


class TestEventCount:
    def test_warm_query_schedules_four_events(self):
        # front-end proc, warm load, the machine's completion timer and
        # result posting: the reaper is already armed, and the machine
        # calls the query's finisher directly (no completion event)
        env, platform = make_platform(keep_alive=60.0)
        register(platform, benchmark("float"))
        submit(env, platform, "float")
        env.run(until=10.0)
        assert platform.warm_count("float") == 1
        assert platform.pool.state("float")._reap_timer is not None
        q = Query(qid=next(QIDS), service="float", t_submit=env.now)
        before = env.scheduled_total
        pushed = []
        q.on_done = lambda _q: pushed.append(env.scheduled_total - before)
        platform.invoke(q)
        env.run()  # no horizon: run(until=...) would schedule a stop event
        assert pushed == [4]
        assert q.breakdown["queue"] == 0.0
        assert q.latency.hex() == "0x1.db8ad74b5aa80p-4"


class TestDispatch:
    def test_queue_is_fifo(self):
        # zero front-end jitter so pool-entry order == submission order
        env, platform = make_platform(proc_overhead_sigma=0.0)
        register(platform, benchmark("float"), limit=1)
        qs = submit(env, platform, "float", n=5)
        env.run(until=60.0)
        completions = sorted(qs, key=lambda q: q.t_complete)
        assert [q.qid for q in completions] == [q.qid for q in qs]

    def test_limit_caps_containers(self):
        env, platform = make_platform()
        register(platform, benchmark("float"), limit=2)
        submit(env, platform, "float", n=20)
        env.run(until=2.0)
        assert platform.pool.state("float").total_containers <= 2

    def test_memory_cap_blocks_launch(self):
        env, platform = make_platform(pool_memory_mb=512.0)  # room for 2
        register(platform, benchmark("float"))
        submit(env, platform, "float", n=10)
        env.run(until=2.0)
        assert platform.pool.state("float").total_containers == 2

    def test_all_queries_complete_under_backlog(self):
        env, platform = make_platform()
        register(platform, benchmark("float"), limit=3)
        qs = submit(env, platform, "float", n=30)
        env.run(until=120.0)
        assert all(q.t_complete is not None for q in qs)

    def test_unregistered_function_raises(self):
        env, platform = make_platform()
        with pytest.raises(KeyError):
            submit(env, platform, "ghost")

    def test_double_register_raises(self):
        env, platform = make_platform()
        register(platform, benchmark("float"))
        with pytest.raises(ValueError):
            platform.register(benchmark("float"))


class TestPrewarm:
    def test_prewarm_creates_idle_containers(self):
        env, platform = make_platform()
        register(platform, benchmark("float"))
        ack = platform.prewarm("float", 4)
        env.run(until=ack)
        assert ack.value == 4
        assert platform.warm_count("float") == 4

    def test_prewarm_ack_waits_for_warm(self):
        env, platform = make_platform()
        register(platform, benchmark("float"))
        ack = platform.prewarm("float", 2)
        env.run(until=ack)
        assert env.now > 0.5  # cold start takes ~1.4 s

    def test_prewarmed_queries_skip_cold_start(self):
        env, platform = make_platform()
        m = register(platform, benchmark("float"))
        ack = platform.prewarm("float", 3)
        env.run(until=ack)
        qs = submit(env, platform, "float", n=3)
        env.run(until=env.now + 10.0)
        assert all(q.breakdown.get("cold", 0.0) == 0.0 for q in qs)
        assert m.completed == 3

    def test_prewarm_is_idempotent_on_warm_pool(self):
        env, platform = make_platform()
        register(platform, benchmark("float"))
        env.run(until=platform.prewarm("float", 3))
        ack2 = platform.prewarm("float", 3)
        assert ack2.triggered  # nothing to launch: immediate
        assert platform.pool.state("float").total_containers == 3

    def test_prewarm_capped_by_memory(self):
        env, platform = make_platform(pool_memory_mb=512.0)
        register(platform, benchmark("float"))
        ack = platform.prewarm("float", 10)
        env.run(until=ack)
        assert ack.value == 2

    def test_prewarm_count_validation(self):
        env, platform = make_platform()
        register(platform, benchmark("float"))
        with pytest.raises(ValueError):
            platform.prewarm("float", -1)


class TestNMax:
    def test_n_max_limit_bound(self):
        env, platform = make_platform()
        register(platform, benchmark("float"), limit=7)
        assert platform.n_max("float") == 7

    def test_n_max_memory_bound(self):
        env, platform = make_platform(pool_memory_mb=1024.0)
        register(platform, benchmark("float"), limit=100)
        assert platform.n_max("float") == 4

    def test_n_max_counts_own_containers_as_reusable(self):
        env, platform = make_platform(pool_memory_mb=1024.0)
        register(platform, benchmark("float"), limit=100)
        env.run(until=platform.prewarm("float", 3))
        assert platform.n_max("float") == 4  # own 3 + 1 free


class TestAccounting:
    def test_container_memory_hits_ledger(self):
        env, platform = make_platform(keep_alive=50.0)
        register(platform, benchmark("float"))
        submit(env, platform, "float")
        env.run(until=20.0)
        ledger = platform.function_ledger("float")
        assert ledger.current_memory_mb == pytest.approx(256.0)
        env.run(until=120.0)  # reaped
        assert ledger.current_memory_mb == pytest.approx(0.0)

    def test_execution_cpu_hits_ledger(self):
        env, platform = make_platform()
        register(platform, benchmark("float"))
        submit(env, platform, "float", n=5)
        env.run(until=60.0)
        snap = platform.function_ledger("float").snapshot()
        # 5 queries x ~0.08 s x 1 core, plus idle overhead of up to 5
        # containers (one cold start is pledged per queued query)
        assert 0.3 < snap.cpu_core_seconds < 5.0
