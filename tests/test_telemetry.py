"""Shared per-service telemetry."""

import math

import pytest

from repro.overload import OverloadGovernor, OverloadPolicy
from repro.telemetry import LoadEstimator, ServiceMetrics, drop_query
from repro.workloads.loadgen import Query


def make_query(lat, canary=False, cold=0.0, queue=0.0, served_by="serverless"):
    q = Query(qid=0, service="s", t_submit=0.0, canary=canary)
    q.t_complete = lat
    q.breakdown = {"cold": cold, "queue": queue, "exec": lat - cold - queue}
    q.served_by = served_by
    return q


class TestLoadEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadEstimator(window=0.0)

    def test_rate_before_any_arrival(self):
        assert LoadEstimator().rate(10.0) == 0.0

    def test_steady_rate(self):
        est = LoadEstimator(window=10.0)
        for i in range(200):
            est.record(i * 0.5)  # 2 qps for 100 s
        assert est.rate(100.0) == pytest.approx(2.0, rel=0.1)

    def test_window_evicts_old(self):
        est = LoadEstimator(window=10.0)
        for i in range(100):
            est.record(float(i) * 0.1)  # burst in [0, 10)
        assert est.rate(50.0) == 0.0

    def test_early_rate_uses_elapsed_span(self):
        est = LoadEstimator(window=60.0)
        est.record(0.0)
        est.record(1.0)
        # only 2 s elapsed: rate ~1 qps, not 2/60
        assert est.rate(2.0) == pytest.approx(1.0)

    def test_total_counts_everything(self):
        est = LoadEstimator(window=1.0)
        for i in range(50):
            est.record(float(i))
        assert est.total == 50


class TestServiceMetrics:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceMetrics("s", qos_target=0.0)

    def test_violation_accounting(self):
        m = ServiceMetrics("s", qos_target=1.0)
        m.record_completion(make_query(0.5))
        m.record_completion(make_query(2.0))
        m.record_completion(make_query(0.9))
        assert m.completed == 3
        assert m.violations == 1
        assert m.violation_fraction == pytest.approx(1 / 3)

    def test_canaries_not_counted_in_qos(self):
        m = ServiceMetrics("s", qos_target=1.0)
        m.record_completion(make_query(5.0, canary=True))
        assert m.completed == 0
        assert m.violation_fraction == 0.0
        assert m.mean_canary_latency() == pytest.approx(5.0)

    def test_canary_feedback_excludes_cold_and_queue(self):
        m = ServiceMetrics("s", qos_target=1.0)
        m.record_completion(make_query(3.0, canary=True, cold=1.5, queue=1.0))
        assert m.mean_canary_latency() == pytest.approx(0.5)

    def test_recent_excludes_cold_and_queue_but_latencies_do_not(self):
        m = ServiceMetrics("s", qos_target=1.0)
        m.record_completion(make_query(3.0, cold=1.5, queue=1.0))
        assert list(m.recent) == [pytest.approx(0.5)]
        assert m.latencies.values()[0] == pytest.approx(3.0)

    def test_mean_canary_nan_when_empty(self):
        assert math.isnan(ServiceMetrics("s", 1.0).mean_canary_latency())

    def test_breakdown_sums_accumulate_per_stage(self):
        m = ServiceMetrics("s", qos_target=10.0)
        m.record_completion(make_query(1.0, cold=0.25))
        m.record_completion(make_query(2.0, queue=0.5))
        assert m.breakdown_sums["cold"] == 0.25
        assert m.breakdown_sums["queue"] == 0.5
        assert m.breakdown_sums["exec"] == pytest.approx(0.75 + 1.5)
        assert m.breakdown_sums["proc"] == 0.0

    def test_breakdown_sums_ignore_unknown_stages_and_canaries(self):
        m = ServiceMetrics("s", qos_target=10.0)
        q = make_query(1.0)
        q.breakdown["gc"] = 9.0
        m.record_completion(q)
        m.record_completion(make_query(5.0, canary=True))
        assert set(m.breakdown_sums) == {"proc", "queue", "cold", "load", "exec", "post"}
        assert sum(m.breakdown_sums.values()) == pytest.approx(1.0)

    def test_served_by_counts(self):
        m = ServiceMetrics("s", qos_target=10.0)
        m.record_completion(make_query(1.0, served_by="iaas"))
        m.record_completion(make_query(1.0, served_by="serverless"))
        m.record_completion(make_query(1.0, served_by="iaas"))
        assert m.served_by == {"iaas": 2, "serverless": 1}

    def test_arrival_recording(self):
        m = ServiceMetrics("s", qos_target=1.0)
        m.record_arrival(0.0)
        m.record_arrival(1.0, canary=True)  # excluded from load
        assert m.load.total == 1


class TestCounterFamilies:
    def test_families_read_like_dicts(self):
        m = ServiceMetrics("s", qos_target=1.0)
        drop_query(make_query(1.0), "shed", 1.0, "serverless", m, None)
        m.preemptions.add("noticed")
        assert m.drops["shed"] == 1 and m.failed == 1
        assert dict(m.preemptions) == {"noticed": 1, "drained": 0, "killed_inflight": 0, "replaced": 0}
        assert sum(count for _, count in m.retries.items()) == m.retries.total == 0

    def test_unknown_keys_are_rejected(self):
        m = ServiceMetrics("s", qos_target=1.0)
        with pytest.raises(ValueError, match="drop reason"):
            drop_query(make_query(1.0, canary=True), "bogus", 1.0, "serverless", m, None)
        with pytest.raises(ValueError, match="retry kind"):
            m.retries.add("bogus")
        with pytest.raises(ValueError, match="preemption kind"):
            m.preemptions.add("bogus")
        assert m.failed == 0

    def test_families_add_key_by_key(self):
        a, b = ServiceMetrics("a", qos_target=1.0), ServiceMetrics("b", qos_target=1.0)
        a.retries.add("attempted", 2)
        b.retries.add("attempted")
        b.retries.add("exhausted")
        both = a.retries + b.retries
        assert dict(both) == {"attempted": 3, "exhausted": 1, "deadline_abandoned": 0}
        assert a.retries.total == 2  # the operands are unchanged


class TestLatencyPercentileHonesty:
    """Both sides of the reservoir capacity boundary, explicitly.

    ``latency_percentile`` is exact only while every completion is still
    in the reservoir; past capacity it becomes a deterministic seeded
    subsample estimate.  QoS gates (experiments/metrics.py) read
    ``latency_sample_exact`` to know which regime they are in.
    """

    def test_exact_below_capacity(self):
        m = ServiceMetrics("s", qos_target=100.0, reservoir=500)
        lats = [float(i) for i in range(400)]
        for lat in lats:
            m.record_completion(make_query(lat))
        assert m.latency_sample_exact
        assert m.latency_sample_coverage == (400, 500)
        import numpy as np

        assert m.latency_percentile(95) == pytest.approx(float(np.percentile(lats, 95)))

    def test_exact_at_capacity_boundary(self):
        m = ServiceMetrics("s", qos_target=100.0, reservoir=100)
        for i in range(100):
            m.record_completion(make_query(float(i)))
        assert m.latency_sample_exact  # n == capacity: still exhaustive
        m.record_completion(make_query(100.0))
        assert not m.latency_sample_exact  # one past: now a subsample
        assert m.latency_sample_coverage == (101, 100)

    def test_estimate_past_capacity_is_deterministic(self):
        def run():
            m = ServiceMetrics("s", qos_target=100.0, reservoir=50)
            for i in range(5000):
                m.record_completion(make_query(float(i % 1000)))
            return m.latency_percentile(95)

        a, b = run(), run()
        assert not math.isnan(a)
        assert a.hex() == b.hex()  # seeded reservoir: bit-identical reruns

    def test_sized_reservoir_keeps_gate_exact(self):
        # the fleet family sizes reservoirs from expected completions so
        # the QoS gate never silently degrades
        m = ServiceMetrics("s", qos_target=100.0, reservoir=10_000)
        for i in range(6000):
            m.record_completion(make_query(float(i)))
        assert m.latency_sample_exact


class TestDropQuery:
    def _governor(self):
        policy = OverloadPolicy(breaker_enabled=False)
        return OverloadGovernor(policy, qos_target=1.0, mu_serverless=2.0, mu_iaas=2.0)

    def test_stamps_counts_and_fires_the_hook_last(self):
        m, gov = ServiceMetrics("s", qos_target=1.0), self._governor()
        q = Query(qid=0, service="s", t_submit=0.0)
        seen = []
        q.on_done = lambda q: seen.append((q.failed, q.t_complete, q.served_by, m.failed, gov.total_rejections))
        drop_query(q, "breaker", 2.5, "iaas", m, gov)
        assert seen == [(True, 2.5, "iaas", 1, 1)]
        assert m.drops["breaker"] == 1 and gov.rejections["breaker"] == 1

    def test_governor_sees_rejections_not_crashes_or_preemptions(self):
        m, gov = ServiceMetrics("s", qos_target=1.0), self._governor()
        for reason in ("admission", "shed", "breaker", "crash", "preempted"):
            drop_query(Query(qid=0, service="s", t_submit=0.0), reason, 1.0, "serverless", m, gov)
        assert m.failed == m.drops.total == 5
        assert gov.rejections == {"admission": 1, "shed": 1, "breaker": 1}

    def test_canary_drop_counts_nothing_but_is_still_settled(self):
        m, gov = ServiceMetrics("s", qos_target=1.0), self._governor()
        q = Query(qid=-1, service="s", t_submit=0.0, canary=True)
        seen = []
        q.on_done = seen.append
        drop_query(q, "shed", 1.0, "serverless", m, gov)
        assert seen == [q] and q.failed
        assert m.failed == m.drops.total == 0 and gov.total_rejections == 0
