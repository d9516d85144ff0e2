"""The multi-resource contention engine: slowdown shape and progress."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resource_model import (
    ContentionConfig,
    DemandVector,
    MachineModel,
    SensitivityVector,
)
from repro.sim.environment import Environment

pressures_st = st.tuples(
    st.floats(0.0, 2.5), st.floats(0.0, 2.5), st.floats(0.0, 2.5)
)


class TestVectors:
    def test_demand_validation(self):
        with pytest.raises(ValueError):
            DemandVector(cpu=-1.0)
        with pytest.raises(ValueError):
            DemandVector(io_mbps=-0.1)

    def test_demand_scaled(self):
        d = DemandVector(cpu=2.0, memory_mb=100.0, io_mbps=10.0, net_mbps=4.0)
        s = d.scaled(0.5)
        assert s.cpu == 1.0 and s.memory_mb == 50.0 and s.io_mbps == 5.0 and s.net_mbps == 2.0
        with pytest.raises(ValueError):
            d.scaled(-1.0)

    def test_sensitivity_validation(self):
        with pytest.raises(ValueError):
            SensitivityVector(cpu=-0.1)
        with pytest.raises(ValueError):
            SensitivityVector(io=6.0)

    def test_sensitivity_tuple(self):
        s = SensitivityVector(cpu=1.0, io=0.5, net=0.2)
        assert s.as_tuple() == (1.0, 0.5, 0.2)


class TestContentionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionConfig(linear=-1.0)
        with pytest.raises(ValueError):
            ContentionConfig(overlap=1.5)
        with pytest.raises(ValueError):
            ContentionConfig(knee=0.0)
        with pytest.raises(ValueError):
            ContentionConfig(pressure_cap=0.5)

    def test_g_zero_at_zero(self):
        assert ContentionConfig().g(0.0) == 0.0

    def test_g_convex_past_knee(self):
        cfg = ContentionConfig()
        below = cfg.g(cfg.knee) - cfg.g(cfg.knee - 0.1)
        above = cfg.g(cfg.knee + 0.2) - cfg.g(cfg.knee + 0.1)
        assert above > below

    def test_g_capped(self):
        cfg = ContentionConfig()
        assert cfg.g(cfg.pressure_cap) == cfg.g(cfg.pressure_cap + 10.0)

    def test_slowdown_one_when_unloaded(self):
        cfg = ContentionConfig()
        s = SensitivityVector(cpu=1.0, io=1.0, net=1.0)
        assert cfg.slowdown(s, (0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_single_axis_is_exact(self):
        """With pressure on one axis only, overlap has nothing to hide."""
        cfg = ContentionConfig()
        s = SensitivityVector(cpu=1.2, io=0.0, net=0.0)
        expected = 1.0 + 1.2 * cfg.g(0.9)
        assert cfg.slowdown(s, (0.9, 0.0, 0.0)) == pytest.approx(expected)

    @given(pressures_st)
    @settings(max_examples=200, deadline=None)
    def test_subadditive_between_max_and_sum(self, p):
        """Paper SII-E: degradation is not the simple accumulation."""
        cfg = ContentionConfig()
        s = SensitivityVector(cpu=1.0, io=0.8, net=0.6)
        d = [s.as_tuple()[i] * cfg.g(p[i]) for i in range(3)]
        slow = cfg.slowdown(s, p)
        assert slow >= 1.0 + max(d) - 1e-12
        assert slow <= 1.0 + sum(d) + 1e-12

    @given(pressures_st, pressures_st)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_pressure(self, p1, p2):
        cfg = ContentionConfig()
        s = SensitivityVector(cpu=1.0, io=1.0, net=1.0)
        lo = tuple(min(a, b) for a, b in zip(p1, p2))
        hi = tuple(max(a, b) for a, b in zip(p1, p2))
        assert cfg.slowdown(s, hi) >= cfg.slowdown(s, lo) - 1e-12

    def test_insensitive_service_immune(self):
        cfg = ContentionConfig()
        s = SensitivityVector(cpu=0.0, io=0.0, net=0.0)
        assert cfg.slowdown(s, (2.0, 2.0, 2.0)) == pytest.approx(1.0)


def make_machine(env, cores=8.0, io=400.0, net=400.0, **cfg):
    return MachineModel(env, cores=cores, io_mbps=io, net_mbps=net, config=ContentionConfig(**cfg))


CPU1 = DemandVector(cpu=1.0, memory_mb=256.0)
SENS_CPU = SensitivityVector(cpu=1.0, io=0.0, net=0.0)


def start(m, work, demand, sens):
    """Start one execution; returns an event that fires with its duration."""
    done = m.env.event()
    m.execute(work, demand, sens, done.succeed)
    return done


class TestMachineModel:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            MachineModel(env, cores=0, io_mbps=1, net_mbps=1)

    def test_solo_execution_takes_its_work(self, env):
        m = make_machine(env, linear=0.0)  # no sub-saturation interference
        done = start(m, 2.0, CPU1, SENS_CPU)
        env.run(until=done)
        assert env.now == pytest.approx(2.0)
        assert done.value == pytest.approx(2.0)

    def test_work_must_be_positive(self, env):
        m = make_machine(env)
        with pytest.raises(ValueError):
            start(m, 0.0, CPU1, SENS_CPU)

    def test_pressures_reflect_active_demand(self, env):
        m = make_machine(env, cores=4.0)
        start(m, 10.0, DemandVector(cpu=2.0, io_mbps=100.0), SENS_CPU)
        p = m.pressures()
        assert p[0] == pytest.approx(0.5)
        assert p[1] == pytest.approx(0.25)
        assert m.active_count == 1

    def test_contention_stretches_execution(self, env):
        # 10 one-core jobs on 8 cores: pressure 1.25, all slowed equally
        m = make_machine(env)
        events = [start(m, 1.0, CPU1, SENS_CPU) for _ in range(10)]
        env.run()
        cfg = m.config
        expected = 1.0 * cfg.slowdown(SENS_CPU, (10.0 / 8.0, 0.0, 0.0))
        assert env.now == pytest.approx(expected, rel=1e-6)
        assert all(e.value == pytest.approx(expected, rel=1e-6) for e in events)

    def test_mid_flight_arrival_slows_existing_job(self, env):
        m = make_machine(env, cores=1.0, linear=1.0, quad=0.0, overlap=0.0)

        def spoiler(env):
            yield env.timeout(0.5)
            start(m, 10.0, CPU1, SENS_CPU)

        env.process(spoiler(env))
        done = start(m, 1.0, CPU1, SENS_CPU)
        env.run(until=done)
        # first half runs at slowdown 1+1*1=2? no: alone pressure=1 -> slowdown 2
        # 0.5s of wall completes 0.25 work; then two jobs: pressure 2 -> slowdown 3
        # remaining 0.75 work takes 2.25s -> total 2.75
        assert env.now == pytest.approx(2.75, rel=1e-6)

    def test_departure_speeds_up_remaining_job(self, env):
        m = make_machine(env, cores=1.0, linear=1.0, quad=0.0, overlap=0.0)
        short = start(m, 0.5, CPU1, SENS_CPU)
        long = start(m, 2.0, CPU1, SENS_CPU)
        env.run(until=long)
        # both at pressure 2 (slowdown 3) until short finishes at t=1.5
        # (0.5 work); long then has 1.5 work left alone (slowdown 2) -> 3.0s
        assert env.now == pytest.approx(4.5, rel=1e-6)

    def test_memory_tracked(self, env):
        m = make_machine(env)
        start(m, 1.0, DemandVector(cpu=0.5, memory_mb=512.0), SENS_CPU)
        assert m.memory_in_use_mb == pytest.approx(512.0)
        env.run()
        assert m.memory_in_use_mb == pytest.approx(0.0)

    def test_inject_background_pressures_and_removal(self, env):
        m = make_machine(env, cores=4.0)
        remove = m.inject_background(DemandVector(cpu=2.0))
        assert m.pressures()[0] == pytest.approx(0.5)
        remove()
        assert m.pressures()[0] == pytest.approx(0.0)
        with pytest.raises(RuntimeError):
            remove()

    def test_background_slows_execution(self, env):
        m = make_machine(env, cores=1.0, linear=1.0, quad=0.0, overlap=0.0)
        m.inject_background(DemandVector(cpu=1.0))
        done = start(m, 1.0, CPU1, SENS_CPU)
        env.run(until=done)
        # pressure 2 (background 1 + own 1) -> slowdown 3
        assert env.now == pytest.approx(3.0, rel=1e-6)

    def test_accounting_taps_integrate(self, env):
        m = make_machine(env, linear=0.0)
        start(m, 2.0, DemandVector(cpu=3.0), SENS_CPU)
        env.run()
        assert m.cpu_in_use.integral(env.now) == pytest.approx(6.0)

    def test_many_jobs_all_complete(self, env):
        m = make_machine(env)
        events = [start(m, 0.1 + 0.01 * i, CPU1, SENS_CPU) for i in range(50)]
        env.run()
        assert all(e.processed for e in events)
        assert m.active_count == 0
        assert m.pressures() == (0.0, 0.0, 0.0)

    def test_slowdown_for_hypothetical(self, env):
        m = make_machine(env, cores=4.0)
        m.inject_background(DemandVector(cpu=4.0))
        assert m.slowdown_for(SENS_CPU) > 1.0
        assert m.slowdown_for(SensitivityVector(cpu=0, io=0, net=0)) == pytest.approx(1.0)

    def test_on_pressure_change_hook(self, env):
        m = make_machine(env)
        seen = []
        m.on_pressure_change = lambda t, p: seen.append((t, p))
        done = start(m, 1.0, CPU1, SENS_CPU)
        env.run(until=done)
        assert len(seen) >= 2  # start + finish
        assert seen[0][1][0] > 0.0
        assert seen[-1][1][0] == pytest.approx(0.0)

    def test_class_that_never_drains_over_a_long_horizon(self, env):
        """A class busy for ~1e5 s carries a large virtual clock.

        A member's remaining work is a difference of two clock readings,
        so its rounding error grows with the clock (one ULP at 8.6e4 is
        1.5e-11).  An absolute 1e-12 completion guard re-arms a
        near-zero-delay timer here forever; the run must finish with O(1)
        timer arms per completion and nothing live left on the heap.
        """
        m = make_machine(env)
        n = 20_000

        def feeder(env):
            # a new job every 5 s, each lasting well over 12 s: the class
            # always has members, so its clock is never rebased
            for i in range(n):
                start(m, 12.0 + 0.1 * (i % 7), DemandVector(cpu=3.1), SENS_CPU)
                yield env.timeout(5.0)

        env.process(feeder(env))
        run_with_step_budget(env, 20 * n)
        assert env.now > 1e5
        assert m.completed == n
        assert m.timer_arms / m.completed < 3
        assert m.active_count == 0
        assert env.live_size == 0

    def test_short_jobs_late_in_a_long_run(self, env):
        """A refilled class has a small clock while ``now`` is large.

        The completion time is rounded to ``now``'s ULP (7.3e-12 at
        3.3e4), which can leave a few 1e-12 of work whose re-armed delay
        no longer moves the clock; that residue must count as done.
        """
        m = make_machine(env)
        n = 5_000

        def feeder(env):
            # one short solo job every 20 s: the class drains every time
            for i in range(n):
                start(m, 0.3 + 0.01 * (i % 7), CPU1, SENS_CPU)
                yield env.timeout(20.0)

        env.process(feeder(env))
        run_with_step_budget(env, 20 * n)
        assert m.completed == n
        assert m.timer_arms == m.completed
        assert env.live_size == 0


def run_with_step_budget(env, budget):
    """Drain ``env`` but fail, rather than hang, if it takes over ``budget`` steps."""
    while env.peek() != float("inf"):
        assert budget, f"completion timer re-armed without end at t={env.now}"
        env.step()
        budget -= 1


# -- bit-exact class rates ---------------------------------------------------
#
# The rebalance evaluates the slowdown inline, once per class, instead of
# calling ContentionConfig.slowdown; these cases pin that every busy
# class's rate is bit-for-bit 1 / slowdown at the machine's pressures.

#: demands on a 4/4/4 machine: 3 = the default knee (0.75), 12 = the
#: default cap (3.0), 4 on every axis = three tied pressures of 1.0 (the
#: knee of KNEE_AT_ONE), plus sub-clamp and ragged values
EXACT_DEMANDS = (
    DemandVector(cpu=3.0),
    DemandVector(cpu=12.0, io_mbps=12.0),
    DemandVector(cpu=4.0, memory_mb=64.0, io_mbps=4.0, net_mbps=4.0),
    DemandVector(cpu=1e-9, io_mbps=0.5e-9, net_mbps=1e-9),
    DemandVector(cpu=0.1, memory_mb=0.3, io_mbps=0.2, net_mbps=0.7),
    DemandVector(),
)
#: zero, tied and lopsided sensitivities
EXACT_SENS = (
    SensitivityVector(cpu=0.0, io=0.0, net=0.0),
    SensitivityVector(cpu=1.0, io=1.0, net=1.0),
    SensitivityVector(cpu=1.0, io=0.0, net=0.0),
    SensitivityVector(cpu=0.0, io=0.5, net=0.5),
    SensitivityVector(cpu=0.5, io=0.5, net=1.0),
)
#: residues a demand total is left with after add/remove churn
RESIDUES = (1e-9, -1e-9, 0.5e-9, -0.5e-9, -0.0)
KNEE_AT_ONE = {"knee": 1.0, "pressure_cap": 2.0}

exact_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            st.sampled_from((0.25, 1.0, 2.5)),
            st.integers(0, len(EXACT_DEMANDS) - 1),
            st.integers(0, len(EXACT_SENS) - 1),
        ),
        st.tuples(st.just("wait"), st.sampled_from((0.0, 0.1, 0.75, 3.0))),
        st.tuples(st.just("background"), st.integers(0, len(EXACT_DEMANDS) - 1)),
        st.tuples(st.just("unbackground")),
        # axis 3 is the memory total
        st.tuples(st.just("residue"), st.integers(0, 3), st.sampled_from(RESIDUES)),
    ),
    min_size=1,
    max_size=30,
)


def assert_rates_exact(m):
    """Every busy class runs at exactly 1 / slowdown; the clamp left no residue."""
    p = m.pressures()
    for cls in m._classes.values():
        if cls.heap:
            assert cls.rate.hex() == (1.0 / m.config.slowdown(cls.sens, p)).hex()
    for total in (*m._demand_totals, m._memory_in_use):
        assert total == 0.0 or abs(total) >= 1e-9
        assert total.hex() != (-0.0).hex()


@given(exact_ops, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_class_rates_bit_identical_to_slowdown(ops, knee_at_one, hooked):
    env = Environment()
    m = make_machine(env, cores=4.0, io=4.0, net=4.0, **(KNEE_AT_ONE if knee_at_one else {}))
    if hooked:

        def on_pressure(_t, pressures):
            assert tuple(x.hex() for x in pressures) == tuple(x.hex() for x in m.pressures())

        m.on_pressure_change = on_pressure
    removers = []
    # a planted residue stays unclamped until the next rebalance
    dirty = False

    def finished(_duration):
        nonlocal dirty
        dirty = False
        assert_rates_exact(m)

    for op in ops:
        if op[0] == "wait":
            env.run(until=env.now + op[1])
        elif op[0] == "residue":
            _kind, axis, residue = op
            # an exactly-cancelled total takes the residue as is (so -0.0
            # stays -0.0); a live one carries it as float drift
            if axis == 3:
                m._memory_in_use = residue if m._memory_in_use == 0.0 else m._memory_in_use + residue
            else:
                t = m._demand_totals[axis]
                m._demand_totals[axis] = residue if t == 0.0 else t + residue
            dirty = True
        elif op[0] == "start":
            m.execute(op[1], EXACT_DEMANDS[op[2]], EXACT_SENS[op[3]], finished)
            dirty = False
        elif op[0] == "background":
            removers.append(m.inject_background(EXACT_DEMANDS[op[1]]))
            dirty = False
        elif removers:
            removers.pop(0)()
            dirty = False
        if not dirty:
            assert_rates_exact(m)
    env.run()
    assert m.active_count == 0


@pytest.mark.parametrize("residue", RESIDUES)
@pytest.mark.parametrize("axis", range(4))
def test_clamp_boundary(env, axis, residue):
    """Residues under 1e-9 (and -0.0) snap to +0.0; residues of 1e-9 stay."""
    m = make_machine(env)
    m.inject_background(DemandVector())  # not provably empty: the clamp runs
    if axis == 3:
        m._memory_in_use = residue
    else:
        m._demand_totals[axis] = residue
    m.inject_background(DemandVector())
    total = m._memory_in_use if axis == 3 else m._demand_totals[axis]
    expected = residue if abs(residue) >= 1e-9 else 0.0
    assert total.hex() == expected.hex()
