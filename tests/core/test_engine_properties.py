"""Property-based engine invariants under random switch/load interleavings."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.workloads.loadgen import Query

actions = st.lists(
    st.one_of(
        st.tuples(st.just("queries"), st.integers(1, 3)),
        st.tuples(st.just("to_serverless"), st.floats(1.0, 20.0)),
        st.tuples(st.just("to_iaas"), st.floats(1.0, 20.0)),
        st.tuples(st.just("advance"), st.floats(1.0, 60.0)),
    ),
    min_size=3,
    max_size=20,
)


def make_engine(config, plan=None):
    env = Environment()
    rng = RngRegistry(seed=99)
    faults = FaultInjector(plan, rng) if plan is not None else None
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    iaas = IaaSService(env, spec, size_service(spec, 30.0), rng, metrics=metrics, faults=faults)
    iaas.deploy(instant=True)
    serverless = ServerlessPlatform(env, rng, faults=faults)
    serverless.register(spec, metrics=metrics, limit=8)
    engine = HybridExecutionEngine(env, spec, iaas, serverless, metrics, config, rng)
    return env, engine, metrics


def play(env, engine, script, after_each):
    """Run a random action script; returns how many queries were routed."""
    qids = itertools.count()
    submitted = 0
    for kind, amount in script:
        if kind == "queries":
            for _ in range(int(amount)):
                engine.route(Query(qid=next(qids), service="float", t_submit=env.now))
                submitted += 1
        elif kind == "to_serverless":
            engine.request_switch(DeployMode.SERVERLESS, float(amount))
        elif kind == "to_iaas":
            engine.request_switch(DeployMode.IAAS, float(amount))
        else:
            env.run(until=env.now + float(amount))
        after_each(engine)
    return submitted


def check_switch_log(engine):
    """The switch legs reconcile requests, flips and aborts.

    Every leg ends in exactly one flip or one abort, at or after its
    request; the only exception is a single open last leg while a switch
    is in flight.  Flips alternate modes, starting away from the initial
    mode, and end in the current mode.
    """
    legs = engine.legs
    for leg in legs[:-1]:
        assert leg.end is not None
    for leg in legs:
        if leg.end is None:
            assert leg.abort_reason is None
        else:
            assert leg.end >= leg.time
            assert leg.abort_reason is None or leg.abort_reason  # an abort names its cause
    open_legs = [leg for leg in legs if leg.end is None]
    assert len(open_legs) == (1 if engine.switching else 0)
    t0, initial = engine.start
    flips = [leg for leg in legs if leg.end is not None and leg.abort_reason is None]
    modes = [initial] + [leg.target for leg in flips]
    assert all(a is not b for a, b in zip(modes, modes[1:]))
    assert modes[-1] is engine.mode
    times = [t0] + [leg.end for leg in flips]
    assert times == sorted(times)


@given(actions)
@settings(max_examples=25, deadline=None)
def test_engine_never_loses_queries_or_resources(script):
    env, engine, metrics = make_engine(AmoebaConfig(min_dwell=0.0, canary_fraction=0.0))
    iaas, serverless = engine.iaas, engine.serverless
    submitted = play(env, engine, script, check_switch_log)

    # let everything drain (including an in-flight switch)
    env.run(until=env.now + 600.0)
    assert not engine.switching
    check_switch_log(engine)
    # every routed query completed exactly once
    assert metrics.completed == submitted
    # resource hygiene: whichever side is inactive holds nothing
    if engine.mode is DeployMode.SERVERLESS:
        assert iaas.state in (ServiceState.STOPPED, ServiceState.RUNNING)
        if iaas.state is ServiceState.STOPPED:
            assert iaas.ledger.current_cores == 0.0
    else:
        assert iaas.state is ServiceState.RUNNING
        assert iaas.ledger.current_cores == iaas.sizing.rented_cores
    # the serverless pool never leaks container memory forever
    assert serverless.pool.state("float").n_busy == 0


@given(actions, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_switch_log_reconciles_under_lost_acks_and_failed_boots(script, ack_loss, boot_failure):
    plan = FaultPlan(
        prewarm_ack_loss_prob=ack_loss, vm_boot_failure_prob=boot_failure, max_boot_retries=0
    )
    config = AmoebaConfig(
        min_dwell=0.0, canary_fraction=0.0, switch_ack_timeout=5.0, switch_boot_timeout=20.0
    )
    env, engine, _ = make_engine(config, plan)
    play(env, engine, script, check_switch_log)
    env.run(until=env.now + 600.0)
    assert not engine.switching
    check_switch_log(engine)
