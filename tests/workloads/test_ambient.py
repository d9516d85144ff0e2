"""Ambient tenant pressure injection."""

import pytest

from repro.cluster.resource_model import ContentionConfig, MachineModel
from repro.workloads.ambient import AmbientTenants
from repro.workloads.traces import ConstantTrace, StepTrace


def make_machine(env):
    return MachineModel(env, cores=10.0, io_mbps=1000.0, net_mbps=1000.0, config=ContentionConfig())


def test_constant_pressure_applied(env, rng):
    m = make_machine(env)
    AmbientTenants(env, m, {"cpu": ConstantTrace(0.5)}, rng, interval=5.0, jitter_sigma=0.0)
    env.run(until=1.0)
    assert m.pressures()[0] == pytest.approx(0.5)
    assert m.pressures()[1] == 0.0


def test_pressure_tracks_trace(env, rng):
    m = make_machine(env)
    trace = StepTrace([(0.0, 0.2), (50.0, 0.8)])
    AmbientTenants(env, m, {"io": trace}, rng, interval=10.0, jitter_sigma=0.0)
    env.run(until=5.0)
    assert m.pressures()[1] == pytest.approx(0.2)
    env.run(until=65.0)
    assert m.pressures()[1] == pytest.approx(0.8)


def test_multiple_axes(env, rng):
    m = make_machine(env)
    AmbientTenants(
        env,
        m,
        {"cpu": ConstantTrace(0.3), "net": ConstantTrace(0.6)},
        rng,
        interval=5.0,
        jitter_sigma=0.0,
    )
    env.run(until=1.0)
    p = m.pressures()
    assert p[0] == pytest.approx(0.3)
    assert p[2] == pytest.approx(0.6)


def test_zero_pressure_injects_nothing(env, rng):
    m = make_machine(env)
    AmbientTenants(env, m, {"cpu": ConstantTrace(0.0)}, rng, interval=5.0, jitter_sigma=0.0)
    env.run(until=20.0)
    assert m.pressures() == (0.0, 0.0, 0.0)


def test_jitter_varies_pressure(env, rng):
    m = make_machine(env)
    AmbientTenants(env, m, {"cpu": ConstantTrace(0.5)}, rng, interval=1.0, jitter_sigma=0.2)
    seen = set()
    for t in range(1, 20):
        env.run(until=float(t) + 0.5)
        seen.add(round(m.pressures()[0], 6))
    assert len(seen) > 5


def test_validation(env, rng):
    m = make_machine(env)
    with pytest.raises(ValueError):
        AmbientTenants(env, m, {"cpu": ConstantTrace(0.5)}, rng, interval=0.0)
    with pytest.raises(ValueError):
        AmbientTenants(env, m, {"gpu": ConstantTrace(0.5)}, rng)
    with pytest.raises(ValueError):
        AmbientTenants(env, m, {"cpu": ConstantTrace(0.5)}, rng, jitter_sigma=-1.0)
