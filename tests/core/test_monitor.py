"""The multi-resource contention monitor: Eq. 8, PCR, live metering."""

import numpy as np
import pytest

from repro.cluster.resource_model import DemandVector
from repro.core.config import AmoebaConfig
from repro.core.meters import AXIS_METERS
from repro.core.monitor import ContentionMonitor, pcr_fit, sample_period
from repro.core.surfaces import build_surface_set
from repro.faults import FaultInjector, FaultPlan
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.functionbench import benchmark


class TestSamplePeriod:
    def test_eq8_formula(self):
        # T > (cold - QoS + exec) / ((1-e) QoS)
        t = sample_period(cold_start=1.4, qos_target=0.3, exec_time=0.08, allowed_error=0.1)
        assert t == pytest.approx((1.4 - 0.3 + 0.08) / (0.9 * 0.3))

    def test_slack_qos_needs_no_minimum(self):
        assert sample_period(1.0, qos_target=2.0, exec_time=0.5, allowed_error=0.1) == 0.0

    def test_smaller_error_means_more_frequent_sampling(self):
        # paper SVI-B: "If the allowed error is small, Amoeba has to
        # sample the contention on the serverless platform more frequently"
        t_small_e = sample_period(1.4, 0.3, 0.08, allowed_error=0.05)
        t_large_e = sample_period(1.4, 0.3, 0.08, allowed_error=0.3)
        assert t_small_e < t_large_e

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_period(-1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            sample_period(1.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            sample_period(1.0, 1.0, 0.1, 1.0)


class TestPCR:
    def test_recovers_true_weights(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(200, 3))
        true_w = np.array([0.8, 0.3, 0.1])
        y = X @ true_w + rng.normal(0, 0.01, 200)
        w, bias = pcr_fit(X, y, variance_coverage=0.999)
        assert np.allclose(w, true_w, atol=0.05)
        assert abs(bias) < 0.05

    def test_collinear_predictors_stay_stable(self):
        """The PCA step is what keeps correlated axes from exploding."""
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 1, 60)
        X = np.column_stack([base, base * 1.001 + 1e-6 * rng.normal(size=60), base * 0.999])
        y = 1.5 * base
        w, _ = pcr_fit(X, y, variance_coverage=0.9)
        assert np.all(w >= 0.0)
        assert np.all(w <= 3.0)
        # combined effect close to the truth even though individual
        # coefficients are unidentifiable
        pred = X @ w
        assert np.corrcoef(pred, y)[0, 1] > 0.99

    def test_negative_weights_clipped(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(100, 3))
        y = -2.0 * X[:, 0]
        w, _ = pcr_fit(X, y)
        assert np.all(w >= 0.0)

    def test_zero_variance_neutral_fit(self):
        X = np.ones((20, 3))
        y = np.full(20, 0.5)
        w, bias = pcr_fit(X, y)
        assert np.allclose(w, 0.0)
        assert bias == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            pcr_fit(np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError):
            pcr_fit(np.ones((5, 3)), np.ones(4))
        with pytest.raises(ValueError):
            pcr_fit(np.ones((5, 3)), np.ones(5), variance_coverage=0.0)


def make_monitor(env=None, config=None, faults=None):
    env = env if env is not None else Environment()
    rng = RngRegistry(seed=3)
    platform = ServerlessPlatform(env, rng)
    config = config if config is not None else AmoebaConfig()
    monitor = ContentionMonitor(env, platform, config, rng, faults=faults)
    return env, platform, monitor


def expected_submits(offset, period, horizon, name=None, faults=None):
    """The sample times of one meter, replayed step by step.

    Each step adds its delay to the clock the way the kernel does
    (``now + delay``): an outage silences the meter for its duration, a
    dropped sample skips one period, any other step samples.
    """
    out = []
    t = 0.0 + offset
    while t < horizon:
        if faults is not None:
            outage = faults.meter_outage(name)
            if outage > 0.0:
                t += outage
                continue
            if faults.meter_sample_dropped(name):
                t += period
                continue
        out.append(t)
        t += period
    return out


class TestMeterSampling:
    HORIZON = 400.0

    def sampled(self, faults=None):
        env, platform, monitor = make_monitor(faults=faults)
        monitor.start()
        seen = {name: [] for name in AXIS_METERS}
        # record the canaries instead of serving them
        platform.invoke = lambda q: seen[q.service].append(q.t_submit)
        env.run(until=self.HORIZON)
        return seen

    def test_each_meter_samples_on_its_phase_grid(self):
        seen = self.sampled()
        period = 1.0 / AmoebaConfig().meter_qps
        for i, name in enumerate(AXIS_METERS):
            offset = (i / len(AXIS_METERS)) * period
            times = seen[name]
            assert times == expected_submits(offset, period, self.HORIZON)
            assert times == pytest.approx([offset + k * period for k in range(len(times))])
            assert len(times) == int(self.HORIZON / period)

    def test_outages_and_drops_skip_like_the_meter_process(self):
        plan = FaultPlan(meter_outage_prob=0.01, meter_outage_duration_s=7.5, meter_drop_prob=0.2)
        faults = FaultInjector(plan, RngRegistry(seed=3))
        seen = self.sampled(faults)
        assert faults.stats.meter_outages > 0 and faults.stats.meter_samples_dropped > 0
        # a fresh injector on the same seed replays the same decisions
        replay = FaultInjector(plan, RngRegistry(seed=3))
        period = 1.0 / AmoebaConfig().meter_qps
        for i, name in enumerate(AXIS_METERS):
            offset = (i / len(AXIS_METERS)) * period
            want = expected_submits(offset, period, self.HORIZON, name, replay)
            assert seen[name] == want
        assert replay.stats == faults.stats


class TestMonitorLive:
    def test_start_registers_meters(self):
        env, platform, monitor = make_monitor()
        monitor.start()
        assert set(platform.pool.registered()) == {"meter_cpu", "meter_io", "meter_net"}
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_pressure_zero_on_idle_platform(self):
        env, platform, monitor = make_monitor()
        monitor.start()
        env.run(until=60.0)
        p = monitor.pressure()
        assert all(abs(x) < 0.1 for x in p)

    def test_pressure_tracks_injected_background(self):
        env, platform, monitor = make_monitor()
        monitor.start()
        caps = platform.machine.capacity
        platform.machine.inject_background(DemandVector(cpu=0.8 * caps[0]))
        env.run(until=120.0)
        p = monitor.pressure()
        assert p[0] == pytest.approx(0.8, abs=0.15)
        assert p[1] < 0.2 and p[2] < 0.2  # other axes stay quiet

    def test_pressure_tracks_io_axis(self):
        env, platform, monitor = make_monitor()
        monitor.start()
        caps = platform.machine.capacity
        platform.machine.inject_background(DemandVector(io_mbps=0.6 * caps[1]))
        env.run(until=120.0)
        p = monitor.pressure()
        assert p[1] == pytest.approx(0.6, abs=0.15)
        assert p[0] < 0.2

    def test_meter_overhead_small(self):
        env, platform, monitor = make_monitor()
        monitor.start()
        env.run(until=300.0)
        assert 0.0 < monitor.meter_cpu_overhead() < 0.02  # paper: ~1%

    def test_feedback_and_refit(self):
        env, platform, monitor = make_monitor()
        monitor.start()
        spec = benchmark("float")
        monitor.register_service("float", build_surface_set(spec))
        env.run(until=30.0)
        for i in range(20):
            monitor.add_feedback(
                "float", load=5.0, observed_latency=0.1 + 0.001 * i, pressures=monitor.pressure()
            )
        assert monitor.feedback_count("float") == 20
        assert monitor.refit_count("float") > 0
        w, bias = monitor.weights("float")
        assert w.shape == (3,)

    def test_nom_mode_keeps_unit_weights(self):
        env, platform, monitor = make_monitor(config=AmoebaConfig().variant_nom())
        monitor.start()
        monitor.register_service("float", build_surface_set(benchmark("float")))
        for _ in range(30):
            monitor.add_feedback("float", load=5.0, observed_latency=0.2, pressures=monitor.pressure())
        w, bias = monitor.weights("float")
        assert np.allclose(w, 1.0)
        assert bias == 0.0
        assert monitor.refit_count("float") == 0

    def test_duplicate_service_rejected(self):
        env, platform, monitor = make_monitor()
        ss = build_surface_set(benchmark("float"))
        monitor.register_service("float", ss)
        with pytest.raises(ValueError):
            monitor.register_service("float", ss)

    def test_unknown_service_raises(self):
        env, platform, monitor = make_monitor()
        with pytest.raises(KeyError):
            monitor.weights("ghost")

    def test_feedback_validation(self):
        env, platform, monitor = make_monitor()
        monitor.register_service("float", build_surface_set(benchmark("float")))
        with pytest.raises(ValueError):
            monitor.add_feedback("float", load=1.0, observed_latency=0.0, pressures=monitor.pressure())
