"""Statistics helpers: correctness against NumPy and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import ReservoirSample, TimeSeries, TimeWeightedStats

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestReservoirSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)

    def test_keeps_everything_under_capacity(self):
        r = ReservoirSample(100)
        for x in range(50):
            r.add(float(x))
        assert sorted(r.values()) == [float(x) for x in range(50)]

    def test_bounded_at_capacity(self):
        r = ReservoirSample(64, rng=np.random.default_rng(0))
        for x in range(10000):
            r.add(float(x))
        assert r.values().size == 64
        assert r.n == 10000

    def test_sample_is_representative(self):
        r = ReservoirSample(2000, rng=np.random.default_rng(1))
        for x in range(100000):
            r.add(float(x))
        assert abs(r.percentile(50) - 50000) < 6000

    def test_percentile_empty_nan(self):
        assert math.isnan(ReservoirSample(10).percentile(50))

    def test_percentile_is_exact_under_capacity(self):
        xs = np.random.default_rng(4).lognormal(0.0, 0.5, 500)
        r = ReservoirSample(1000)
        for x in xs:
            r.add(float(x))
        for p in (0, 50, 95, 99, 100):
            assert r.percentile(p) == np.percentile(xs, p)

    def test_same_generator_seed_keeps_the_same_sample(self):
        samples = []
        for _ in range(2):
            r = ReservoirSample(16, rng=np.random.default_rng(9))
            for x in range(5000):
                r.add(float(x))
            samples.append(r.values())
        assert np.array_equal(samples[0], samples[1])

    def test_replacement_keeps_only_offered_values(self):
        r = ReservoirSample(8, rng=np.random.default_rng(2))
        offered = [float(x) for x in range(100, 400)]
        for x in offered:
            r.add(x)
        assert set(r.values()) <= set(offered)
        assert len(set(r.values())) == 8  # distinct inputs stay distinct


class TestTimeWeightedStats:
    def test_constant_signal(self):
        tw = TimeWeightedStats(t0=0.0, initial=3.0)
        assert tw.integral(10.0) == pytest.approx(30.0)
        assert tw.mean(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        tw = TimeWeightedStats()
        tw.set(2.0, 4.0)  # 0 until t=2, then 4
        assert tw.integral(5.0) == pytest.approx(12.0)
        assert tw.mean(5.0) == pytest.approx(12.0 / 5.0)

    def test_adjust(self):
        tw = TimeWeightedStats()
        tw.adjust(1.0, 2.0)
        tw.adjust(2.0, -1.0)
        assert tw.level == pytest.approx(1.0)
        assert tw.integral(3.0) == pytest.approx(0 + 2.0 * 1.0 + 1.0 * 1.0)

    def test_time_going_backwards_raises(self):
        tw = TimeWeightedStats()
        tw.set(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.set(4.0, 2.0)
        with pytest.raises(ValueError):
            tw.integral(4.0)

    def test_empty_interval_mean_nan(self):
        assert math.isnan(TimeWeightedStats().mean(0.0))

    def test_mean_is_taken_from_t0(self):
        tw = TimeWeightedStats(t0=10.0, initial=1.0)
        tw.set(15.0, 3.0)
        assert tw.integral(20.0) == pytest.approx(5.0 + 15.0)
        assert tw.mean(20.0) == pytest.approx(20.0 / 10.0)
        assert math.isnan(tw.mean(10.0))

    def test_repeated_set_at_one_instant_keeps_only_the_last_level(self):
        tw = TimeWeightedStats()
        tw.set(1.0, 100.0)
        tw.set(1.0, 2.0)  # zero-length segment at level 100
        assert tw.level == 2.0
        assert tw.integral(3.0) == pytest.approx(4.0)

    def test_integral_query_does_not_advance_the_clock(self):
        tw = TimeWeightedStats(initial=2.0)
        assert tw.integral(10.0) == pytest.approx(20.0)
        tw.set(4.0, 0.0)  # still allowed: integral() moved nothing
        assert tw.integral(10.0) == pytest.approx(8.0)

    def test_initial_level(self):
        assert TimeWeightedStats(initial=7.5).level == 7.5

    @given(st.lists(st.tuples(st.floats(0.01, 10.0), finite_floats), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_integral_matches_manual(self, steps):
        tw = TimeWeightedStats()
        t = 0.0
        manual = 0.0
        level = 0.0
        for dt, v in steps:
            manual += level * dt
            t += dt
            tw.set(t, v)
            level = v
        manual += level * 1.0
        assert tw.integral(t + 1.0) == pytest.approx(manual, rel=1e-9, abs=1e-6)


class TestTimeSeries:
    def test_empty(self):
        ts = TimeSeries(min_interval=1.0)
        assert len(ts) == 0
        assert ts.times().size == 0 and ts.values().size == 0

    def test_sample_exactly_one_interval_after_the_anchor_is_kept(self):
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert list(ts.times()) == [0.0, 1.0]

    def test_arrays_are_snapshots(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        vals = ts.values()
        vals[0] = 99.0
        ts.record(1.0, 2.0)
        assert list(ts.values()) == [1.0, 2.0]

    @given(st.lists(st.tuples(st.floats(0.0, 5.0), finite_floats), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_decimated_series_keeps_the_newest_sample_and_its_grid(self, steps):
        ts = TimeSeries(min_interval=1.0)
        t = 0.0
        for dt, v in steps:
            t += dt
            ts.record(t, v)
        times = ts.times()
        assert times[-1] == t and ts.values()[-1] == steps[-1][1]
        assert np.all(np.diff(times) > 0)
        # each kept sample lies within one interval of its window's anchor,
        # and anchors are at least one interval apart
        assert np.all(times[2:] - times[:-2] > 1.0 - 1e-9)

    def test_records_everything_without_decimation(self):
        ts = TimeSeries()
        for i in range(10):
            ts.record(float(i), float(i * i))
        assert len(ts) == 10

    def test_decimation_keeps_latest(self):
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(0.5, 2.0)  # within window: overwrites value
        ts.record(2.0, 3.0)
        assert len(ts) == 2
        assert ts.values()[0] == 2.0

    def test_decimated_sample_keeps_consistent_timestamp(self):
        # the in-window rewrite must replace the (t, v) pair together —
        # it used to keep the stale timestamp with the new value
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(0.5, 2.0)
        assert ts.times()[-1] == 0.5
        assert ts.values()[-1] == 2.0

    def test_decimation_window_does_not_slide(self):
        # rewriting the newest sample's timestamp must not move the
        # decimation grid: the window stays anchored at the first
        # accepted sample's time
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(0.9, 2.0)  # in-window rewrite
        ts.record(1.5, 3.0)  # 1.5s past the anchor at 0.0: new sample
        assert list(ts.times()) == [0.9, 1.5]
        assert list(ts.values()) == [2.0, 3.0]
