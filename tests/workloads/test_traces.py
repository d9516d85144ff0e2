"""Load-shape generators."""

import math

import numpy as np
import pytest

from repro.workloads.traces import (
    BurstTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    StepTrace,
    peak_concurrent_extra,
)


class TestConstantTrace:
    def test_rate(self):
        t = ConstantTrace(5.0)
        assert t.rate(0) == 5.0
        assert t.rate(1e6) == 5.0
        assert t.peak_rate == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantTrace(-1.0)

    def test_mean_rate(self):
        assert ConstantTrace(3.0).mean_rate(0, 100) == pytest.approx(3.0)


class TestStepTrace:
    def test_steps(self):
        t = StepTrace([(0.0, 1.0), (10.0, 5.0), (20.0, 2.0)])
        assert t.rate(5.0) == 1.0
        assert t.rate(10.0) == 5.0
        assert t.rate(25.0) == 2.0
        assert t.peak_rate == 5.0

    def test_before_first_breakpoint(self):
        t = StepTrace([(10.0, 5.0)])
        assert t.rate(5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepTrace([])
        with pytest.raises(ValueError):
            StepTrace([(10.0, 1.0), (5.0, 2.0)])
        with pytest.raises(ValueError):
            StepTrace([(0.0, -1.0)])


class TestDiurnalTrace:
    def test_bounds(self):
        t = DiurnalTrace(peak_rate=10.0, low_fraction=0.3, seed=1)
        rates = [t.rate(s) for s in np.linspace(0, 86400, 500)]
        assert max(rates) <= 10.0 + 1e-9
        assert min(rates) >= 0.3 * 10.0 * 0.7  # noise can dip below the floor a bit

    def test_peak_reached_near_evening(self):
        t = DiurnalTrace(peak_rate=10.0, noise_sigma=0.0)
        evening = t.rate(18 * 3600.0)
        night = t.rate(3 * 3600.0)
        assert evening > 0.95 * 10.0
        assert night < 0.45 * 10.0

    def test_two_peaks(self):
        t = DiurnalTrace(peak_rate=10.0, noise_sigma=0.0, morning_fraction=0.8)
        morning = t.rate(8.5 * 3600.0)
        midday = t.rate(13 * 3600.0)
        assert morning > midday

    def test_periodic(self):
        t = DiurnalTrace(peak_rate=10.0, seed=4)
        assert t.rate(1000.0) == pytest.approx(t.rate(1000.0 + 86400.0))

    def test_deterministic(self):
        a = DiurnalTrace(peak_rate=10.0, seed=9)
        b = DiurnalTrace(peak_rate=10.0, seed=9)
        assert [a.rate(s) for s in range(0, 86400, 997)] == [
            b.rate(s) for s in range(0, 86400, 997)
        ]

    def test_seed_changes_noise(self):
        a = DiurnalTrace(peak_rate=10.0, seed=1)
        b = DiurnalTrace(peak_rate=10.0, seed=2)
        assert any(a.rate(s) != b.rate(s) for s in range(0, 86400, 3571))

    def test_compressed_day(self):
        t = DiurnalTrace(peak_rate=10.0, noise_sigma=0.0, day=7200.0)
        # 18:00 of a 7200 s day is t = 5400
        assert t.rate(5400.0) > 0.95 * 10.0
        assert t.rate(5400.0 + 7200.0) == pytest.approx(t.rate(5400.0))

    def test_phase_shift(self):
        base = DiurnalTrace(peak_rate=10.0, noise_sigma=0.0)
        shifted = DiurnalTrace(peak_rate=10.0, noise_sigma=0.0, phase=3600.0)
        assert shifted.rate(17 * 3600.0) == pytest.approx(base.rate(18 * 3600.0))

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("sigma", [0.0, 0.04, 0.3])
    def test_noise_table_matches_numpy_recurrence(self, seed, sigma):
        """The float-list AR(1) loop equals the numpy-scalar recurrence exactly."""
        n, alpha = 1440, 0.9
        innov = np.random.default_rng(seed).normal(0.0, sigma * math.sqrt(1 - alpha**2), size=n)
        ar = np.empty(n)
        ar[0] = 0.0
        for i in range(1, n):
            ar[i] = alpha * ar[i - 1] + innov[i]
        t = DiurnalTrace(peak_rate=10.0, noise_sigma=sigma, seed=seed)
        assert t._noise == np.exp(ar).tolist()

    def test_rate_values_are_pinned(self):
        # the §VII trace, and a noisy floorless one that clips at its peak
        sec7 = DiurnalTrace(peak_rate=12.0, seed=7, day=7200.0, noise_sigma=0.05)
        clipped = DiurnalTrace(
            peak_rate=30.0, seed=9, noise_sigma=0.3, low_fraction=0.0, phase=500.0, day=3600.0
        )
        ts = [0.0, 0.37, 1234.5, 2550.0, 4999.9, 5400.0, 7199.99, 9000.25]
        assert [sec7.rate(t).hex() for t in ts] == [
            "0x1.ccccf95b65eabp+1", "0x1.ccccf98a337afp+1", "0x1.e1340cb71775ep+1",
            "0x1.3c8449c77a3bap+3", "0x1.518c3706643c8p+3", "0x1.62bbc0b3055ecp+3",
            "0x1.cca2edc35efb8p+1", "0x1.72b171cf7be04p+2",
        ]
        assert [clipped.rate(t).hex() for t in ts] == [
            "0x1.2bad370f4d35dp-3", "0x1.2d2bff34affaep-3", "0x1.f21ec66bcedb3p+1",
            "0x1.a8c6cb0e445e5p+3", "0x1.d4af50e39607dp+0", "0x1.e000000000000p+4",
            "0x1.59e6e0f860b45p-3", "0x1.e000000000000p+4",
        ]
        assert all(type(sec7.rate(t)) is float for t in ts)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(peak_rate=0.0)
        with pytest.raises(ValueError):
            DiurnalTrace(peak_rate=1.0, low_fraction=1.0)
        with pytest.raises(ValueError):
            DiurnalTrace(peak_rate=1.0, morning_fraction=0.0)
        with pytest.raises(ValueError):
            DiurnalTrace(peak_rate=1.0, noise_sigma=-0.1)
        with pytest.raises(ValueError):
            DiurnalTrace(peak_rate=1.0, day=0.0)

    def test_mean_rate_between_low_and_peak(self):
        t = DiurnalTrace(peak_rate=10.0, low_fraction=0.3, seed=1)
        m = t.mean_rate(0, 86400)
        assert 3.0 < m < 10.0


class TestBurstTrace:
    def test_burst_adds_rate(self):
        t = BurstTrace(ConstantTrace(2.0), [(10.0, 5.0, 3.0)])
        assert t.rate(5.0) == 2.0
        assert t.rate(12.0) == 5.0
        assert t.rate(15.0) == 2.0
        assert t.peak_rate == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstTrace(ConstantTrace(1.0), [(0.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            BurstTrace(ConstantTrace(1.0), [(0.0, 1.0, -1.0)])

    def test_mean_rate_interval_validation(self):
        with pytest.raises(ValueError):
            ConstantTrace(1.0).mean_rate(5.0, 5.0)

    def test_overlapping_bursts_stack_in_peak_rate(self):
        # regression: peak_rate used to take the single largest extra,
        # undersizing rentals whenever bursts overlapped
        t = BurstTrace(ConstantTrace(2.0), [(10.0, 20.0, 3.0), (15.0, 10.0, 4.0)])
        assert t.rate(18.0) == 2.0 + 3.0 + 4.0
        assert t.peak_rate == 2.0 + 3.0 + 4.0

    def test_disjoint_bursts_do_not_stack(self):
        t = BurstTrace(ConstantTrace(2.0), [(10.0, 5.0, 3.0), (100.0, 5.0, 4.0)])
        assert t.peak_rate == 2.0 + 4.0

    def test_peak_concurrent_extra_helper(self):
        assert peak_concurrent_extra(()) == 0.0
        # a burst ending exactly where another starts does not stack
        assert peak_concurrent_extra([(0.0, 10.0, 2.0), (10.0, 5.0, 3.0)]) == 3.0
        assert peak_concurrent_extra([(0.0, 10.0, 2.0), (9.0, 5.0, 3.0)]) == 5.0


class TestFlashCrowdTrace:
    def test_spikes_add_rate(self):
        t = FlashCrowdTrace(
            ConstantTrace(2.0), horizon=3600.0, mean_gap_s=300.0, magnitude=6.0, seed=1
        )
        assert t.spikes, "an hour at 300s mean gap should produce spikes"
        start, duration, extra = t.spikes[0]
        assert t.rate(start + 0.5 * duration) == pytest.approx(2.0 + extra)
        assert t.peak_rate >= 2.0 + max(s[2] for s in t.spikes)

    def test_deterministic_per_seed(self):
        kw = dict(horizon=7200.0, mean_gap_s=600.0, magnitude=5.0)
        a = FlashCrowdTrace(ConstantTrace(1.0), seed=9, **kw)
        b = FlashCrowdTrace(ConstantTrace(1.0), seed=9, **kw)
        c = FlashCrowdTrace(ConstantTrace(1.0), seed=10, **kw)
        assert a.spikes == b.spikes
        assert a.spikes != c.spikes

    def test_spike_shapes_are_stream_independent(self):
        # spike k's shape comes from its own (seed, k) stream: shrinking
        # the horizon drops later spikes without perturbing earlier ones
        long = FlashCrowdTrace(
            ConstantTrace(1.0), horizon=7200.0, mean_gap_s=600.0, magnitude=5.0, seed=4
        )
        short = FlashCrowdTrace(
            ConstantTrace(1.0), horizon=1800.0, mean_gap_s=600.0, magnitude=5.0, seed=4
        )
        assert long.spikes[: len(short.spikes)] == short.spikes

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdTrace(ConstantTrace(1.0), horizon=0.0, mean_gap_s=10.0, magnitude=1.0)
        with pytest.raises(ValueError):
            FlashCrowdTrace(ConstantTrace(1.0), horizon=10.0, mean_gap_s=0.0, magnitude=1.0)
        with pytest.raises(ValueError):
            FlashCrowdTrace(ConstantTrace(1.0), horizon=10.0, mean_gap_s=10.0, magnitude=-1.0)
        with pytest.raises(ValueError):
            FlashCrowdTrace(
                ConstantTrace(1.0), horizon=10.0, mean_gap_s=10.0, magnitude=1.0, duration_s=0.0
            )
