"""Hybrid execution engine: routing, canaries, the switch protocol."""

import itertools

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode, HybridExecutionEngine
from repro.iaas.service import IaaSService, ServiceState
from repro.iaas.sizing import size_service
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query

QIDS = itertools.count()


def make_engine(config=None, initial=DeployMode.IAAS, seed=6):
    env = Environment()
    rng = RngRegistry(seed=seed)
    config = config if config is not None else AmoebaConfig(min_dwell=0.0)
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    sizing = size_service(spec, 30.0)
    iaas = IaaSService(env, spec, sizing, rng, metrics=metrics)
    if initial is DeployMode.IAAS:
        iaas.deploy(instant=True)
    serverless = ServerlessPlatform(env, rng)
    serverless.register(spec, metrics=metrics, limit=8)
    engine = HybridExecutionEngine(
        env, spec, iaas, serverless, metrics, config, rng, initial_mode=initial
    )
    return env, engine, metrics


def send(env, engine, n=1):
    qs = []
    for _ in range(n):
        q = Query(qid=next(QIDS), service="float", t_submit=env.now)
        engine.route(q)
        qs.append(q)
    return qs


class TestRouting:
    def test_iaas_mode_serves_on_iaas(self):
        env, engine, metrics = make_engine(config=AmoebaConfig(min_dwell=0.0, canary_fraction=0.0))
        qs = send(env, engine, 5)
        env.run(until=10.0)
        assert all(q.served_by == "iaas" for q in qs)

    def test_serverless_mode_serves_on_serverless(self):
        env, engine, metrics = make_engine(initial=DeployMode.SERVERLESS)
        qs = send(env, engine, 3)
        env.run(until=30.0)
        assert all(q.served_by == "serverless" for q in qs)

    def test_canaries_shadow_to_serverless(self):
        cfg = AmoebaConfig(min_dwell=0.0, canary_fraction=0.5)
        env, engine, metrics = make_engine(config=cfg)
        send(env, engine, 60)
        env.run(until=30.0)
        assert len(metrics.canary_latencies) > 5  # ~half shadowed
        assert metrics.completed == 60  # canaries not in user QoS

    def test_canary_picks_are_pinned(self):
        # one uniform [0, 1) draw per IaaS-routed query decides its shadow
        cfg = AmoebaConfig(min_dwell=0.0, canary_fraction=0.3)
        env, engine, _ = make_engine(config=cfg)
        picks = []
        for k in range(48):
            before = engine._canary_ids
            engine.route(Query(qid=k, service="float", t_submit=env.now))
            picks.append("01"[engine._canary_ids > before])
        assert "".join(picks) == "001110100000100001100111000101001000100100010001"

    def test_no_canaries_when_disabled(self):
        cfg = AmoebaConfig(min_dwell=0.0, canary_fraction=0.0)
        env, engine, metrics = make_engine(config=cfg)
        send(env, engine, 40)
        env.run(until=30.0)
        assert len(metrics.canary_latencies) == 0


class TestSwitchToServerless:
    def test_prewarm_then_flip_then_release(self):
        env, engine, _ = make_engine()
        accepted = engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        assert accepted
        assert engine.mode is DeployMode.IAAS  # not flipped yet
        env.run(until=30.0)
        assert engine.mode is DeployMode.SERVERLESS
        # Eq. 7: 10 qps x 0.3 s QoS = 3 containers + headroom
        assert engine.serverless.warm_count("float") >= 3
        assert engine.iaas.state is ServiceState.STOPPED  # drained + released

    def test_flip_happens_only_after_ack(self):
        env, engine, _ = make_engine()
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=0.5)  # cold start not done yet
        assert engine.mode is DeployMode.IAAS
        env.run(until=30.0)
        assert engine.mode is DeployMode.SERVERLESS

    def test_nop_flips_immediately(self):
        cfg = AmoebaConfig(min_dwell=0.0).variant_nop()
        env, engine, _ = make_engine(config=cfg)
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=0.2)
        assert engine.mode is DeployMode.SERVERLESS
        assert engine.serverless.warm_count("float") == 0  # nothing prewarmed

    def test_switch_to_same_mode_refused(self):
        env, engine, _ = make_engine()
        assert not engine.request_switch(DeployMode.IAAS, load=5.0)

    def test_switch_while_switching_refused(self):
        env, engine, _ = make_engine()
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        assert not engine.request_switch(DeployMode.SERVERLESS, load=10.0)

    def test_dwell_time_blocks_rapid_flip(self):
        cfg = AmoebaConfig(min_dwell=300.0)
        env, engine, _ = make_engine(config=cfg)
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=30.0)
        assert engine.mode is DeployMode.SERVERLESS
        assert not engine.request_switch(DeployMode.IAAS, load=20.0)  # dwell
        env.run(until=400.0)
        assert engine.request_switch(DeployMode.IAAS, load=20.0)


class TestSwitchToIaaS:
    def test_boot_before_flip(self):
        env, engine, _ = make_engine(initial=DeployMode.SERVERLESS)
        engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=2.0)
        assert engine.mode is DeployMode.SERVERLESS  # VMs still booting
        env.run(until=90.0)
        assert engine.mode is DeployMode.IAAS
        assert engine.iaas.state is ServiceState.RUNNING

    def test_round_trip(self):
        env, engine, _ = make_engine()
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=200.0)
        assert engine.mode is DeployMode.IAAS
        qs = send(env, engine, 2)
        env.run(until=210.0)
        assert all(q.served_by == "iaas" for q in qs)


def mode_timeline(engine):
    """(time, mode) of the start and of every flip."""
    return [engine.start] + [
        (leg.end, leg.target) for leg in engine.legs if leg.end is not None and not leg.abort_reason
    ]


class TestTimelines:
    def test_mode_timeline_records_switches(self):
        env, engine, _ = make_engine()
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        assert [m for _, m in mode_timeline(engine)] == [
            DeployMode.IAAS,
            DeployMode.SERVERLESS,
        ]
        (leg,) = engine.legs
        assert leg.target is DeployMode.SERVERLESS and leg.load == 10.0
        assert not leg.emergency and leg.abort_reason is None and not leg.forced_drain

    def test_mode_timeline_starts_with_the_initial_mode_at_t0(self):
        _, iaas_engine, _ = make_engine()
        _, fn_engine, _ = make_engine(initial=DeployMode.SERVERLESS)
        assert mode_timeline(iaas_engine) == [(0.0, DeployMode.IAAS)]
        assert mode_timeline(fn_engine) == [(0.0, DeployMode.SERVERLESS)]

    def test_flip_lands_after_the_request_and_routes_from_then_on(self):
        env, engine, _ = make_engine(config=AmoebaConfig(min_dwell=0.0, canary_fraction=0.0))
        env.run(until=5.0)
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        (leg,) = engine.legs
        t_req, flip_t, mode = leg.time, leg.end, leg.target
        assert t_req == 5.0 < flip_t <= 60.0
        assert mode is engine.mode is DeployMode.SERVERLESS
        qs = send(env, engine, 2)
        env.run(until=90.0)
        assert all(q.served_by == "serverless" for q in qs)

    def test_round_trip_timeline_is_time_ordered(self):
        env, engine, _ = make_engine()
        engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=60.0)
        engine.request_switch(DeployMode.IAAS, load=20.0)
        env.run(until=400.0)
        times = [t for t, _ in mode_timeline(engine)]
        assert [m for _, m in mode_timeline(engine)] == [
            DeployMode.IAAS,
            DeployMode.SERVERLESS,
            DeployMode.IAAS,
        ]
        assert times == sorted(times) and times[1] < 60.0 < times[2]
        assert [leg.time for leg in engine.legs] == [0.0, 60.0]
