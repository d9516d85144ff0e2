"""The per-microservice governor: admission verdicts, signals, brownout."""

import pytest

from repro.overload import OverloadGovernor, OverloadPolicy


def make_governor(policy=None, qos=2.0, mu=1.0):
    policy = policy if policy is not None else OverloadPolicy()
    return OverloadGovernor(policy, qos_target=qos, mu_serverless=mu, mu_iaas=mu)


class TestConstruction:
    def test_rejects_bad_rates_and_targets(self):
        with pytest.raises(ValueError):
            make_governor(qos=0.0)
        with pytest.raises(ValueError):
            OverloadGovernor(OverloadPolicy(), 1.0, mu_serverless=0.0, mu_iaas=1.0)

    def test_disabled_policy_builds_no_breaker(self):
        gov = make_governor(OverloadPolicy.disabled())
        assert gov.breaker is None

    def test_breaker_can_be_disabled_independently(self):
        gov = make_governor(OverloadPolicy(breaker_enabled=False))
        assert gov.breaker is None
        assert gov.policy.enabled


class TestAdmission:
    def test_disabled_policy_admits_everything(self):
        gov = make_governor(OverloadPolicy.disabled())
        assert gov.admit(queued=10**6, busy=0, capacity=lambda: 0, mu=gov.mu_serverless, now=0.0) is None
        assert gov.admit(queued=10**6, busy=0, capacity=lambda: 0, mu=gov.mu_iaas, now=0.0) is None

    def test_full_queue_is_an_admission_drop(self):
        gov = make_governor(OverloadPolicy(max_queue_depth=4, admission_control=False))
        assert gov.admit(queued=4, busy=0, capacity=lambda: 8, mu=gov.mu_serverless, now=0.0) == "admission"
        assert gov.admit(queued=3, busy=0, capacity=lambda: 8, mu=gov.mu_serverless, now=0.0) is None

    def test_predicted_qos_miss_is_an_admission_drop(self):
        gov = make_governor(qos=2.0, mu=1.0)
        # deep backlog: predicted sojourn far beyond the 2 s target
        assert gov.admit(queued=50, busy=4, capacity=lambda: 4, mu=gov.mu_serverless, now=0.0) == "admission"
        assert gov.admit(queued=0, busy=0, capacity=lambda: 4, mu=gov.mu_serverless, now=0.0) is None

    def test_zero_capacity_is_an_admission_drop(self):
        gov = make_governor()
        assert gov.admit(queued=0, busy=0, capacity=lambda: 0, mu=gov.mu_serverless, now=0.0) == "admission"

    def test_capacity_is_read_only_at_the_model_check(self):
        def unread():
            raise AssertionError("capacity read before the M/M/N check")

        gov = make_governor(OverloadPolicy(max_queue_depth=4))
        assert gov.admit(queued=4, busy=0, capacity=unread, mu=gov.mu_serverless, now=0.0) == "admission"
        gov2 = make_governor(OverloadPolicy(admission_control=False))
        assert gov2.admit(queued=0, busy=0, capacity=unread, mu=gov2.mu_iaas, now=0.0) is None
        reads = []
        assert gov.admit(queued=0, busy=0, capacity=lambda: reads.append(1) or 4, mu=gov.mu_iaas, now=0.0) is None
        assert reads == [1]

    def test_brownout_drop_tail_uses_the_breaker_reason(self):
        policy = OverloadPolicy(
            breaker_min_samples=1,
            breaker_threshold=1.0,
            brownout_queue_depth=2,
            admission_control=False,
            max_queue_depth=256,
        )
        gov = make_governor(policy)
        gov.note_rejection("shed", 0.0)  # trips the 1-sample breaker
        assert gov.brownout(0.0)
        assert gov.admit(queued=2, busy=0, capacity=lambda: 8, mu=gov.mu_serverless, now=0.0) == "breaker"
        # below the tightened depth, brownout still admits
        assert gov.admit(queued=1, busy=0, capacity=lambda: 8, mu=gov.mu_serverless, now=0.0) is None


class TestShedding:
    def test_budget_comes_from_policy_and_target(self):
        gov = make_governor(OverloadPolicy(queue_wait_budget=0.5), qos=2.0)
        assert not gov.should_shed(0.99)
        assert gov.should_shed(1.01)

    def test_disabled_policy_never_sheds(self):
        gov = make_governor(OverloadPolicy.disabled())
        assert not gov.should_shed(10**6)


class TestSignals:
    def test_rejections_are_counted_by_reason(self):
        gov = make_governor()
        gov.note_rejection("admission", 0.0)
        gov.note_rejection("shed", 1.0)
        gov.note_rejection("shed", 2.0)
        assert gov.rejections == {"admission": 1, "shed": 2, "breaker": 0}
        assert gov.total_rejections == 3

    def test_unknown_reason_raises(self):
        with pytest.raises(ValueError):
            make_governor().note_rejection("crash", 0.0)

    def test_shed_rate_counts_the_trailing_horizon_only(self):
        gov = make_governor()
        for t in range(10):
            gov.note_rejection("shed", float(t))
        assert gov.shed_rate(10.0, horizon=60.0) == pytest.approx(10 / 60.0)
        # the burst has aged out a horizon later
        assert gov.shed_rate(100.0, horizon=60.0) == 0.0

    def test_shed_rate_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            make_governor().shed_rate(0.0, horizon=0.0)

    def test_switch_abort_is_weighted_breaker_evidence(self):
        policy = OverloadPolicy(
            switch_abort_weight=4, breaker_min_samples=4, breaker_threshold=1.0
        )
        gov = make_governor(policy)
        gov.note_switch_abort(0.0)
        assert gov.breaker is not None and gov.breaker.trips == 1

    def test_zero_weight_decouples_aborts_from_the_breaker(self):
        policy = OverloadPolicy(
            switch_abort_weight=0, breaker_min_samples=1, breaker_threshold=1.0
        )
        gov = make_governor(policy)
        gov.note_switch_abort(0.0)
        assert gov.breaker is not None and gov.breaker.trips == 0

    def test_outcomes_feed_the_breaker(self):
        policy = OverloadPolicy(breaker_min_samples=2, breaker_threshold=1.0)
        gov = make_governor(policy)
        gov.note_outcome(False, 0.0)
        gov.note_outcome(False, 1.0)
        assert gov.brownout(1.0)
