"""Overload end-to-end: the bit-identity gate and the acceptance scenario.

Quick-tier forms of the PR's acceptance criteria:

* a run with ``OverloadPolicy.disabled()`` wired in is float.hex-identical
  to a run with no overload layer at all;
* an overload scenario (offered load well beyond Eq. 5 capacity, chaos
  faults on) with the policy enabled keeps admitted-query p95 inside the
  QoS target, keeps queue depths bounded, surfaces the breaker lifecycle
  in telemetry, and never wedges.
"""

from dataclasses import replace

import pytest

from repro.experiments.overload import overload_sweep
from repro.experiments.runner import run_amoeba
from repro.experiments.scenarios import default_scenario, overload_scenario
from repro.overload import OverloadPolicy


def _latency_hex(result, name="matmul"):
    return [x.hex() for x in result.services[name].metrics.latencies.values()]


class TestDisabledPolicyBitIdentity:
    def test_disabled_policy_is_bit_identical_to_no_overload_layer(self):
        base = default_scenario("matmul", day=600.0, seed=0)
        plain = run_amoeba(base)
        wired = run_amoeba(replace(base, overload=OverloadPolicy.disabled()))
        assert plain.overload is None
        assert wired.overload is not None and not wired.overload.policy_enabled
        assert _latency_hex(wired) == _latency_hex(plain)
        m_plain = plain.services["matmul"].metrics
        m_wired = wired.services["matmul"].metrics
        assert m_wired.completed == m_plain.completed
        assert m_wired.violations == m_plain.violations

    def test_disabled_policy_makes_no_decisions(self):
        base = default_scenario("matmul", day=600.0, seed=0)
        wired = run_amoeba(replace(base, overload=OverloadPolicy.disabled()))
        ov = wired.overload
        assert wired.services["matmul"].metrics.drops.total == 0
        assert sum(ov.rejections.values()) == 0
        assert ov.breaker_state == "disabled"
        assert ov.breaker_transitions == ()


class TestOverloadScenario:
    def test_lambda_factor_scales_the_offered_load_only(self):
        nominal = overload_scenario("matmul", lambda_factor=1.0, day=600.0)
        doubled = overload_scenario("matmul", lambda_factor=2.0, day=600.0)
        assert doubled.trace.peak_rate == pytest.approx(2 * nominal.trace.peak_rate)
        # rental sizing and container caps stay nominal: the excess is
        # genuinely excess, not pre-provisioned away
        assert doubled.iaas_peak_rate == nominal.iaas_peak_rate
        assert doubled.faults is not None

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            overload_scenario("matmul", lambda_factor=0.0)

    def test_acceptance_overload_run_holds_qos_and_shows_the_breaker(self):
        policy = OverloadPolicy()
        scenario = overload_scenario(
            "matmul", lambda_factor=2.5, policy=policy, day=600.0, seed=0
        )
        result = run_amoeba(scenario)  # returning at all is the no-wedge bar
        metrics = result.services["matmul"].metrics
        ov = result.overload
        assert ov is not None and ov.policy_enabled
        # enough pressure that protection actually engaged
        assert metrics.drops.total > 0
        assert metrics.completed > 0
        # admitted queries stay inside QoS under 2.5x offered load + faults
        assert metrics.latency_percentile(95) <= metrics.qos_target
        # queue depths bounded by the policy on both platforms
        assert 0 < ov.peak_queue_depth_serverless <= policy.max_queue_depth
        assert 0 < ov.peak_queue_depth_iaas <= policy.max_queue_depth
        # the breaker's full lifecycle is visible in telemetry
        assert ov.breaker_state in ("closed", "open", "half_open")
        states = [state for _, state in ov.breaker_transitions]
        assert "open" in states and "half_open" in states
        times = [t for t, _ in ov.breaker_transitions]
        assert times == sorted(times)
        # per-platform queue-depth timelines exported for the report
        fg = result.services["matmul"]
        assert len(fg.queue_depth_timelines) == 2
        for t, v in fg.queue_depth_timelines:
            assert len(t) == len(v) > 0


@pytest.mark.slow
class TestOverloadSweep:
    def test_sweep_reports_on_off_pairs_per_factor(self):
        fig = overload_sweep("matmul", day=600.0, seed=0, factors=(1.0, 2.5))
        assert fig.headers[0] == "factor"
        assert len(fig.rows) == 2
        calm, stormy = fig.rows
        # protection engages harder as the factor grows
        idx = fig.headers.index("shed_frac")
        assert stormy[idx] >= calm[idx]
        p95_on = fig.headers.index("p95_on")
        viol_on = fig.headers.index("viol_on")
        assert stormy[viol_on] <= 0.05
        # the unprotected baseline degrades past the protected run
        assert stormy[fig.headers.index("viol_off")] >= stormy[viol_on]
        assert stormy[p95_on] > 0.0

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            overload_sweep(factors=())
