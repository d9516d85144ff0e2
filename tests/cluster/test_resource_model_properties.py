"""Property-based conservation laws for the contention engine.

Completion scheduling is the most intricate piece of the substrate: every
arrival and departure changes the rates of everything in flight.  These
hypothesis tests check the laws any such engine must obey, over
randomized workloads whose jobs are drawn from several sensitivity
classes.  Each law runs against both engines in ``ENGINES``: the shipped
per-class virtual-clock kernel and the O(N) reference kernel
(``oracle_kernel.py``), on the same drawn workload.

* **work conservation** — each execution's integrated progress equals the
  work requested, regardless of how often it was rescheduled;
* **slowdown lower bound** — no execution finishes faster than its solo
  time;
* **bounded stretch** — the measured duration never exceeds work × the
  worst instantaneous slowdown its class saw during the run;
* **clean teardown** — after everything finishes, demand totals and
  memory return exactly to zero and no live event is left on the heap.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import resource_model
from repro.cluster.resource_model import ContentionConfig, DemandVector, SensitivityVector
from repro.sim.environment import Environment
from tests.cluster import oracle_kernel

#: the shipped kernel, then the reference kernel it must agree with
ENGINES = (resource_model.MachineModel, oracle_kernel.MachineModel)

#: sensitivity classes a job draws from (a job's last field indexes this)
CLASSES = (
    SensitivityVector(cpu=1.0, io=0.8, net=0.0),
    SensitivityVector(cpu=0.3, io=1.2, net=0.2),
    SensitivityVector(cpu=0.6, io=0.1, net=1.0),
)

# randomized job sets: (start delay, work, cpu demand, io demand, class)
jobs_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 2.0),
        st.floats(0.05, 1.5),
        st.floats(0.1, 2.0),
        st.floats(0.0, 300.0),
        st.integers(0, len(CLASSES) - 1),
    ),
    min_size=1,
    max_size=12,
)


def run_jobs(engine, jobs, pulses=()):
    """Run ``jobs`` (plus background ``pulses``) on a fresh ``engine`` machine.

    ``pulses`` are (wait, width, strength) background bursts injected one
    after another.  Returns the machine, its environment, one
    (work, class, t0, t1, duration) row per finished job in completion
    order, and the worst slowdown each class saw at any pressure change.
    """
    env = Environment()
    cfg = ContentionConfig()
    machine = engine(env, cores=4.0, io_mbps=500.0, net_mbps=500.0, config=cfg)
    results = []
    worst = [1.0] * len(CLASSES)

    def track(_t, pressures):
        for k, sens in enumerate(CLASSES):
            worst[k] = max(worst[k], cfg.slowdown(sens, pressures))

    machine.on_pressure_change = track

    def submit(env, i, delay, work, cpu, io, k):
        yield env.timeout(delay)
        t0 = env.now
        demand = DemandVector(cpu=cpu, memory_mb=64.0, io_mbps=io)
        machine.execute(
            work,
            demand,
            CLASSES[k],
            lambda duration: results.append((i, work, k, t0, env.now, duration)),
        )

    def storm(env):
        for gap, width, strength in pulses:
            yield env.timeout(gap)
            remove = machine.inject_background(
                DemandVector(cpu=strength * 4.0, io_mbps=strength * 250.0)
            )
            yield env.timeout(width)
            remove()

    for i, job in enumerate(jobs):
        env.process(submit(env, i, *job))
    env.process(storm(env))
    env.run()
    return machine, env, results, worst


def assert_laws(engine, jobs, pulses=()):
    machine, env, results, worst = run_jobs(engine, jobs, pulses)
    name = engine.__module__
    assert len(results) == len(jobs), name
    for _i, work, k, t0, t1, duration in results:
        # the event's reported duration matches wall time
        assert duration == (t1 - t0) or math.isclose(duration, t1 - t0, rel_tol=1e-9), name
        # never faster than solo, never slower than the worst slowdown seen
        assert duration >= work * (1.0 - 1e-6), name
        assert duration <= work * worst[k] * (1.0 + 1e-6), name
    # every query completed exactly once
    assert machine.completed == len(jobs), name
    # teardown: all demand and memory fully returned
    assert machine.active_count == 0, name
    assert machine.pressures() == (0.0, 0.0, 0.0), name
    assert machine.memory_in_use_mb == 0.0, name
    # heap hygiene: after the run drains, no live entries linger
    assert env.live_size == 0, name


@given(jobs_strategy)
@settings(max_examples=60, deadline=None)
def test_work_conservation_and_bounds(jobs):
    for engine in ENGINES:
        assert_laws(engine, jobs)


@given(jobs_strategy, st.floats(0.1, 1.5), st.floats(0.5, 4.0))
@settings(max_examples=40, deadline=None)
def test_background_injection_never_breaks_completion(jobs, bg_pressure, bg_lifetime):
    """Random standing background comes and goes; everything still finishes."""
    for engine in ENGINES:
        assert_laws(engine, jobs, [(0.5, bg_lifetime, bg_pressure)])


@given(
    st.floats(0.0, 2.5),
    st.floats(0.0, 2.5),
    st.floats(0.0, 2.5),
    st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_overlap_interpolates_between_max_and_sum(p0, p1, p2, overlap):
    """overlap=0 is plain accumulation; overlap=1 hides behind the max."""
    cfg = ContentionConfig(overlap=overlap)
    sens = SensitivityVector(cpu=1.0, io=0.7, net=0.4)
    d = [sens.as_tuple()[i] * cfg.g((p0, p1, p2)[i]) for i in range(3)]
    slow = cfg.slowdown(sens, (p0, p1, p2))
    expected = 1.0 + max(d) + (1.0 - overlap) * (sum(d) - max(d))
    assert math.isclose(slow, expected, rel_tol=1e-12)


@given(
    jobs_strategy,
    st.lists(
        # reschedule storm: (wait before injecting, pulse width, strength)
        st.tuples(st.floats(0.01, 0.4), st.floats(0.01, 0.5), st.floats(0.2, 1.2)),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=40, deadline=None)
def test_midflight_reschedule_storm(jobs, pulses):
    """A barrage of set changes mid-flight must not corrupt any execution.

    Every background pulse cancels and re-arms the machine's completion
    timer while work is in flight; this is where banking errors would show
    up as conservation violations and stale timers as live heap entries.
    """
    for engine in ENGINES:
        assert_laws(engine, jobs, pulses)
