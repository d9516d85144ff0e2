"""SampledTrace: replaying recorded rate curves."""

import numpy as np
import pytest

from repro.workloads.traces import SampledTrace


def test_linear_interpolation():
    t = SampledTrace([0.0, 10.0], [0.0, 10.0])
    assert t.rate(5.0) == pytest.approx(5.0)
    assert t.peak_rate == 10.0


def test_previous_interpolation():
    t = SampledTrace([0.0, 10.0, 20.0], [1.0, 5.0, 2.0], interpolation="previous")
    assert t.rate(9.99) == 1.0
    assert t.rate(10.0) == 5.0


def test_clamped_outside_range():
    t = SampledTrace([10.0, 20.0], [3.0, 7.0])
    assert t.rate(0.0) == 3.0
    assert t.rate(100.0) == 7.0


def test_periodic_repetition():
    t = SampledTrace([0.0, 50.0], [2.0, 8.0], period=100.0)
    assert t.rate(25.0) == pytest.approx(5.0)
    assert t.rate(125.0) == pytest.approx(5.0)  # one period later
    assert t.rate(75.0) == pytest.approx(8.0)  # repetition gap: hold last


def test_scale():
    t = SampledTrace([0.0, 1.0], [1.0, 2.0], scale=10.0)
    assert t.peak_rate == 20.0
    assert t.rate(0.0) == 10.0


def test_rate_at_sample_points_is_the_sample():
    times, rates = [0.0, 60.0, 120.0], [1.0, 5.0, 2.0]
    for interpolation in ("linear", "previous"):
        t = SampledTrace(times, rates, interpolation=interpolation)
        assert [t.rate(x) for x in times] == rates
        assert t.peak_rate == 5.0


def test_periodic_step_trace():
    t = SampledTrace([0.0, 10.0], [1.0, 4.0], interpolation="previous", period=20.0)
    assert [t.rate(x) for x in (5.0, 15.0, 25.0, 35.0)] == [1.0, 4.0, 1.0, 4.0]


def test_validation():
    with pytest.raises(ValueError):
        SampledTrace([0.0], [1.0])
    with pytest.raises(ValueError):
        SampledTrace([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SampledTrace([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        SampledTrace([0.0, 1.0], [1.0, 1.0], interpolation="cubic")
    with pytest.raises(ValueError):
        SampledTrace([0.0, 10.0], [1.0, 1.0], period=5.0)
    with pytest.raises(ValueError):
        SampledTrace([0.0, 1.0], [1.0, 1.0], scale=0.0)


def test_drives_load_generation():
    from repro.sim.environment import Environment
    from repro.sim.rng import RngRegistry
    from repro.workloads.loadgen import LoadGenerator

    env = Environment()
    rng = RngRegistry(seed=1)
    queries = []
    trace = SampledTrace([0.0, 200.0], [20.0, 20.0])
    LoadGenerator(env, "svc", trace, queries.append, rng)
    env.run(until=200.0)
    assert len(queries) == pytest.approx(4000, abs=5 * np.sqrt(4000))
