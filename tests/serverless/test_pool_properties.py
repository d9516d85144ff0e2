"""Property-based pool invariants (hypothesis).

Random interleavings of submissions, prewarms and time advances must
never break the pool's conservation laws:

* container memory accounting equals 256 MB x live containers,
* per-function containers never exceed the concurrency limit,
* every accepted query eventually completes once arrivals stop,
* completions never exceed submissions.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serverless.config import ServerlessConfig
from repro.serverless.container import ContainerState
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query

# action alphabet: (kind, amount)
actions = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 4)),
        st.tuples(st.just("prewarm"), st.integers(0, 5)),
        st.tuples(st.just("advance"), st.floats(0.1, 30.0)),
    ),
    min_size=1,
    max_size=25,
)


@given(actions, st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_pool_conservation_laws(script, limit):
    env = Environment()
    rng = RngRegistry(seed=13)
    cfg = ServerlessConfig(pool_memory_mb=8 * 256.0)  # room for 8 containers
    platform = ServerlessPlatform(env, rng, config=cfg)
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    platform.register(spec, metrics=metrics, limit=limit)
    qid = itertools.count()
    submitted = 0

    def check_invariants():
        fs = platform.pool.state("float")
        live = fs.total_containers
        assert live <= limit
        assert live <= 8  # memory cap
        assert platform.pool.container_memory_in_use == 256.0 * live
        assert fs.completions <= submitted
        for c in fs.idle:
            assert c.state is ContainerState.IDLE

    for kind, amount in script:
        if kind == "submit":
            for _ in range(int(amount)):
                platform.invoke(Query(qid=next(qid), service="float", t_submit=env.now))
                submitted += 1
        elif kind == "prewarm":
            platform.prewarm("float", int(amount))
        else:
            env.run(until=env.now + float(amount))
        check_invariants()

    # drain: with arrivals stopped, everything completes and the pool
    # eventually returns all memory
    env.run(until=env.now + 600.0)
    fs = platform.pool.state("float")
    assert fs.completions == submitted == metrics.completed
    assert len(platform.pool.state("float").queue) == 0
    assert fs.total_containers == 0  # keep-alive reaped everything
    assert platform.pool.container_memory_in_use == 0.0
