"""Front-end behaviour in isolation."""

import pytest

from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query


def make_platform():
    env = Environment()
    platform = ServerlessPlatform(env, RngRegistry(seed=8))
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    platform.register(spec, metrics=metrics)
    return env, platform, metrics


def test_proc_overhead_recorded():
    env, platform, metrics = make_platform()
    q = Query(qid=0, service="float", t_submit=0.0)
    platform.invoke(q)
    env.run(until=30.0)
    assert q.breakdown["proc"] > 0.0
    assert metrics.completed == 1 and metrics.failed == 0


def test_arrival_recorded_at_submission_not_completion():
    env, platform, metrics = make_platform()
    platform.invoke(Query(qid=0, service="float", t_submit=0.0))
    # before anything completes, the load estimator already saw it
    assert metrics.load.total == 1
    env.run(until=30.0)
    assert metrics.completed == 1


def test_canary_arrival_excluded_from_load():
    env, platform, metrics = make_platform()
    platform.invoke(Query(qid=0, service="float", t_submit=0.0, canary=True))
    assert metrics.load.total == 0
    env.run(until=30.0)
    assert metrics.completed == 0  # canaries are not user traffic
    assert len(metrics.canary_latencies) == 1


def test_proc_overhead_precedes_queueing():
    """The front-end pays its overhead before the query can be queued."""
    env, platform, metrics = make_platform()
    platform.invoke(Query(qid=0, service="float", t_submit=0.0))
    assert len(platform.pool.state("float").queue) == 0  # still in the front end
    env.run(until=0.2)
    # by now the proc stage is over and the query reached the pool
    fs = platform.pool.state("float")
    assert fs.total_containers >= 1
