"""Engine x overload: brownout pinning, abort evidence, shed-aware prewarm."""

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode, HybridExecutionEngine
from repro.core.prewarm import prewarm_count
from repro.faults import FaultInjector, FaultPlan
from repro.iaas.service import IaaSService
from repro.iaas.sizing import size_service
from repro.overload import OverloadGovernor, OverloadPolicy
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark


def make_engine(policy=None, config=None, plan=None, seed=6, limit=16):
    env = Environment()
    rng = RngRegistry(seed=seed)
    faults = FaultInjector(plan, rng) if plan is not None else None
    config = config if config is not None else AmoebaConfig(min_dwell=0.0)
    spec = benchmark("float")
    metrics = ServiceMetrics("float", spec.qos_target)
    gov = None
    if policy is not None:
        gov = OverloadGovernor(
            policy, qos_target=spec.qos_target, mu_serverless=5.0, mu_iaas=5.0
        )
    iaas = IaaSService(env, spec, size_service(spec, 30.0), rng, metrics=metrics, faults=faults)
    iaas.deploy(instant=True)
    serverless = ServerlessPlatform(env, rng, faults=faults)
    serverless.register(spec, metrics=metrics, limit=limit, overload=gov)
    engine = HybridExecutionEngine(
        env, spec, iaas, serverless, metrics, config, rng,
        initial_mode=DeployMode.IAAS, overload=gov,
    )
    return env, engine, gov


BREAKER_POLICY = OverloadPolicy(
    breaker_min_samples=1, breaker_threshold=1.0, breaker_dwell_s=30.0
)


class TestBrownout:
    def test_open_breaker_suppresses_switches(self):
        env, engine, gov = make_engine(policy=BREAKER_POLICY)
        gov.note_rejection("shed", env.now)  # trips the 1-sample breaker
        assert engine.in_brownout()
        assert not engine.can_switch()
        assert not engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        assert engine.mode is DeployMode.IAAS
        assert not engine.legs

    def test_switching_resumes_after_the_dwell(self):
        env, engine, gov = make_engine(policy=BREAKER_POLICY)
        gov.note_rejection("shed", env.now)
        env.run(until=40.0)  # past the 30 s dwell: breaker half-opens
        assert not engine.in_brownout()
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=120.0)
        assert engine.mode is DeployMode.SERVERLESS

    def test_no_governor_means_no_brownout(self):
        env, engine, gov = make_engine(policy=None)
        assert gov is None
        assert not engine.in_brownout()
        assert engine.can_switch()


class TestAbortEvidence:
    def test_aborted_switch_is_weighted_breaker_evidence(self):
        policy = OverloadPolicy(
            switch_abort_weight=4, breaker_min_samples=4, breaker_threshold=1.0
        )
        env, engine, gov = make_engine(
            policy=policy,
            config=AmoebaConfig(min_dwell=0.0, switch_ack_timeout=5.0),
            plan=FaultPlan(prewarm_ack_loss_prob=1.0),
        )
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=30.0)
        (leg,) = engine.legs
        assert leg.abort_reason == "prewarm ack deadline"
        # one abort carried enough weight to trip the breaker outright
        assert gov.breaker is not None and gov.breaker.trips == 1
        assert engine.in_brownout()


class TestShedAwarePrewarm:
    def _prewarm_pledges(self, gov_shed_times):
        policy = OverloadPolicy(breaker_enabled=False)
        env, engine, gov = make_engine(policy=policy)
        for t in gov_shed_times:
            gov.note_rejection("shed", t)
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=0.01)  # bootstrap the switch leg; cold starts pledge
        fs = engine.serverless.pool.state("float")
        return fs.warm_or_warming

    def test_prewarm_provisions_for_shed_traffic_too(self):
        headroom = AmoebaConfig().prewarm_headroom
        # Eq. 7 for the surviving 10 q/s load alone...
        assert self._prewarm_pledges([]) == prewarm_count(10.0, 0.3, headroom)
        # ...but 600 sheds in the last 60 s is another 10 q/s of demand
        assert self._prewarm_pledges([0.0] * 600) == prewarm_count(20.0, 0.3, headroom)

    def test_disabled_policy_ignores_shed_history(self):
        policy = OverloadPolicy.disabled()
        env, engine, gov = make_engine(policy=policy)
        assert engine.request_switch(DeployMode.SERVERLESS, load=10.0)
        env.run(until=0.01)
        fs = engine.serverless.pool.state("float")
        assert fs.warm_or_warming == prewarm_count(10.0, 0.3, AmoebaConfig().prewarm_headroom)
