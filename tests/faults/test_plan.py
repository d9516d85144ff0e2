"""FaultPlan: validation, scaling, the provably-inert zero plan."""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.faults import FaultPlan


def _probs(plan):
    """Every fault probability of ``plan``, by field name."""
    return {f.name: getattr(plan, f.name) for f in fields(plan) if f.name.endswith("_prob")}


class TestValidation:
    def test_defaults_are_inert(self):
        assert set(_probs(FaultPlan()).values()) == {0.0}

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(container_crash_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(vm_boot_failure_prob=-0.1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(vm_boot_delay_s=-1.0)

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(max_query_retries=-1)

    def test_plan_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            FaultPlan().container_crash_prob = 0.5  # type: ignore[misc]


class TestScaling:
    def test_scaled_multiplies_probabilities(self):
        plan = FaultPlan(container_crash_prob=0.2, meter_drop_prob=0.1)
        half = plan.scaled(0.5)
        assert half.container_crash_prob == pytest.approx(0.1)
        assert half.meter_drop_prob == pytest.approx(0.05)

    def test_scaled_clamps_to_one(self):
        doubled = FaultPlan(prewarm_ack_loss_prob=0.6).scaled(3.0)
        assert doubled.prewarm_ack_loss_prob == 1.0

    def test_scaled_zero_is_inert(self):
        plan = FaultPlan(container_crash_prob=0.5, vm_boot_failure_prob=0.5)
        assert set(_probs(plan.scaled(0.0)).values()) == {0.0}

    def test_scaled_leaves_degradation_policy_unchanged(self):
        plan = FaultPlan(
            container_crash_prob=0.5, max_query_retries=7, retry_backoff_s=1.5
        )
        doubled = plan.scaled(2.0)
        assert doubled.max_query_retries == 7
        assert doubled.retry_backoff_s == 1.5
        assert doubled.container_crash_prob == 1.0

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().scaled(-1.0)


class TestPreemptionFields:
    def test_zero_preemption_is_inert(self):
        assert FaultPlan(vm_preemption_prob=0.0).vm_preemption_prob == 0.0

    def test_preemption_prob_scales(self):
        plan = FaultPlan(vm_preemption_prob=0.4, preemption_check_interval_s=15.0)
        half = plan.scaled(0.5)
        assert half.vm_preemption_prob == pytest.approx(0.2)
        # the check cadence is policy, not a probability: scaling keeps it
        assert half.preemption_check_interval_s == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(vm_preemption_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(preemption_check_interval_s=-1.0)
