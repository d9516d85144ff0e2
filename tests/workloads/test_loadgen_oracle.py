"""Differential tests: the planning load generator against the oracle.

``repro.workloads.loadgen`` runs the thinning loop itself and puts only
accepted arrivals (plus a continuation after every ``REJECTION_CAP``
consecutive rejections) on the heap; ``tests/workloads/oracle_loadgen.py``
keeps the per-candidate generator it replaced.  Both draw the owned
``arrivals/<service>`` stream in the same order and every trace is a pure
function of ``t``, so they must submit the same queries at the same
``float.hex`` times however the run is chunked or stopped, and ask the
trace about the same instants.  The heap count per accepted arrival and
the stream ownership are checked here too.
"""

from __future__ import annotations

import pytest

from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.loadgen import REJECTION_CAP, LoadGenerator
from repro.workloads.traces import BurstTrace, ConstantTrace, DiurnalTrace, StepTrace
from tests.workloads import oracle_loadgen

SEEDS = [0, 1, 2, 3]

TRACES = {
    "diurnal": lambda: DiurnalTrace(peak_rate=12.0, seed=7, day=300.0, noise_sigma=0.05),
    "step_zero": lambda: StepTrace([(0.0, 5.0), (10.0, 0.0), (40.0, 8.0), (70.0, 0.5)]),
    "brownout": lambda: BurstTrace(ConstantTrace(0.0), [(30.0, 20.0, 40.0)]),
    # zero for good after 2 s: only the continuations keep the generator alive
    "dies_out": lambda: StepTrace([(0.0, 6.0), (2.0, 0.0)]),
    "constant": lambda: ConstantTrace(9.0),
    # accepted arrivals 2-5x apart in time: there the delay form
    # now + (t - now) can round to t's neighbour, Callback.at cannot
    "far_apart": lambda: StepTrace([(0.0, 20.0), (1.0, 0.0), (3.0, 20.0), (3.2, 0.0), (9.0, 20.0)]),
}


class RecordingTrace:
    """Wraps a trace and logs every ``rate`` query (the candidate times)."""

    def __init__(self, trace):
        self.trace = trace
        self.peak_rate = trace.peak_rate
        self.calls: list[float] = []

    def rate(self, t: float) -> float:
        self.calls.append(t)
        return self.trace.rate(t)


def drive(generator, trace, seed, chunks, stop_after_chunk=None, stop_in_cascade_at=None):
    """Run ``generator`` over ``chunks`` of ``env.run(until=...)``.

    Returns ``(qid, t_submit hex, clock hex at submit)`` per query.
    ``stop_after_chunk`` stops the generator between two runs;
    ``stop_in_cascade_at`` stops it from inside the submit callback of
    that query number.
    """
    env = Environment()
    out: list[tuple[int, str, str]] = []
    gen = None

    def submit(q):
        out.append((q.qid, q.t_submit.hex(), env.now.hex()))
        if stop_in_cascade_at is not None and len(out) == stop_in_cascade_at:
            gen.stop()

    gen = generator(env, "svc", trace, submit, RngRegistry(seed))
    for i, until in enumerate(chunks):
        env.run(until=until)
        if stop_after_chunk == i:
            gen.stop()
    assert gen.generated == len(out)
    return out


def both(trace_name, seed, chunks, **kwargs):
    new = drive(LoadGenerator, TRACES[trace_name](), seed, chunks, **kwargs)
    old = drive(oracle_loadgen.LoadGenerator, TRACES[trace_name](), seed, chunks, **kwargs)
    return new, old


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_single_run_matches_oracle(trace_name, seed):
    new, old = both(trace_name, seed, [120.0])
    assert new == old
    assert new


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_chunked_runs_match_oracle(trace_name, seed):
    chunks = [0.0, 1.3, 1.3, 9.99, 10.0, 31.7, 55.0, 80.25, 120.0]
    new, old = both(trace_name, seed, chunks)
    assert new == old
    assert new == drive(LoadGenerator, TRACES[trace_name](), seed, [120.0])


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_boundary_on_an_arrival_instant(seed):
    # a horizon exactly at an arrival time stops the clock before it fires
    # (the stop event outranks it); the next chunk then delivers it
    times = [float.fromhex(h) for _, h, _ in drive(LoadGenerator, ConstantTrace(9.0), seed, [5.0])]
    chunks = [times[3], times[3], times[10], 5.0]
    new, old = both("constant", seed, chunks)
    assert new == old
    assert len(new) == len(times)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", ["diurnal", "step_zero", "brownout"])
def test_stop_between_runs_matches_oracle(trace_name, seed):
    new, old = both(trace_name, seed, [15.0, 35.0, 120.0], stop_after_chunk=1)
    assert new == old
    assert all(float.fromhex(t) < 35.0 for _, t, _ in new)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", ["diurnal", "step_zero", "brownout"])
def test_stop_inside_the_submit_cascade_matches_oracle(trace_name, seed):
    new, old = both(trace_name, seed, [40.0, 120.0], stop_in_cascade_at=17)
    assert new == old
    assert len(new) == 17


def continuations(calls, accepted):
    """Continuation events the planning generator fires in one run.

    ``calls`` are the oracle's candidate times before the horizon.  One
    continuation fires at every ``REJECTION_CAP``-th consecutive
    rejection after the first candidate, which is an event of its own.
    """
    accepted = set(accepted)
    fired = run = 0
    for t in calls[1:]:
        if t in accepted:
            run = 0
            continue
        run += 1
        if run == REJECTION_CAP:
            run = 0
            fired += 1
    return fired


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_one_heap_push_per_accepted_arrival_plus_continuations(trace_name, seed):
    horizon = 120.0
    recorder = RecordingTrace(TRACES[trace_name]())
    env = Environment()
    accepted: list[float] = []
    oracle_loadgen.LoadGenerator(env, "svc", recorder, lambda q: accepted.append(q.t_submit), RngRegistry(seed))
    env.run(until=horizon)
    extra = continuations(recorder.calls, accepted)
    # the constructor runs outside any run, so it schedules the first
    # candidate untested; if thinning rejects it, that is one more event
    first_rejected = recorder.calls[0] not in accepted

    env = Environment()
    LoadGenerator(env, "svc", TRACES[trace_name](), lambda q: None, RngRegistry(seed))
    env.run(until=horizon)
    # the constructor's push, one push per event fired before the horizon
    # and the horizon's stop event
    assert env.scheduled_total == 2 + first_rejected + len(accepted) + extra
    if trace_name in ("brownout", "dies_out", "step_zero"):
        assert extra > 0
    if trace_name == "constant":
        assert extra == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize(
    "chunks, kwargs",
    [
        ([120.0], {}),
        ([0.0, 1.3, 1.3, 9.99, 10.0, 31.7, 55.0, 80.25, 120.0], {}),
        ([15.0, 35.0, 120.0], {"stop_after_chunk": 1}),
        ([40.0, 120.0], {"stop_in_cascade_at": 17}),
    ],
    ids=["single", "chunked", "stop_between", "stop_in_cascade"],
)
def test_trace_is_asked_only_what_the_oracle_asks(trace_name, seed, chunks, kwargs):
    # planning stops at each run's horizon, so the generator never asks
    # the trace about an instant the run does not reach
    asked = []
    for generator in (LoadGenerator, oracle_loadgen.LoadGenerator):
        recorder = RecordingTrace(TRACES[trace_name]())
        drive(generator, recorder, seed, chunks, **kwargs)
        asked.append([t.hex() for t in recorder.calls])
    assert asked[0] == asked[1]
    assert asked[0]


def test_a_trace_that_stays_at_zero_terminates():
    env = Environment()
    LoadGenerator(env, "svc", StepTrace([(0.0, 4.0), (0.5, 0.0)]), lambda q: None, RngRegistry(0))
    env.run(until=10_000.0)
    # ~4 candidates/s, all rejected after 0.5 s: one continuation per cap
    assert env.scheduled_total < 2 + 4 * 10_000 / REJECTION_CAP * 1.2


def test_second_generator_on_the_same_stream_raises():
    env, rng = Environment(), RngRegistry(0)
    LoadGenerator(env, "svc", ConstantTrace(1.0), lambda q: None, rng)
    with pytest.raises(RuntimeError, match="arrivals/svc"):
        LoadGenerator(env, "svc", ConstantTrace(1.0), lambda q: None, rng)
    with pytest.raises(RuntimeError, match="arrivals/svc"):
        rng.stream("arrivals/svc")
    with pytest.raises(RuntimeError, match="arrivals/svc"):
        rng.lognormal_sampler("arrivals/svc", 1.0, 0.1)


def test_generator_refuses_a_stream_already_handed_out():
    env, rng = Environment(), RngRegistry(0)
    rng.stream("arrivals/svc")
    with pytest.raises(RuntimeError, match="arrivals/svc"):
        LoadGenerator(env, "svc", ConstantTrace(1.0), lambda q: None, rng)


def test_named_stream_keeps_two_generators_on_one_service_apart():
    env, rng = Environment(), RngRegistry(0)
    a: list[float] = []
    b: list[float] = []
    LoadGenerator(env, "svc", ConstantTrace(3.0), lambda q: a.append(q.t_submit), rng)
    LoadGenerator(env, "svc", ConstantTrace(3.0), lambda q: b.append(q.t_submit), rng, stream="extra/svc")
    env.run(until=20.0)
    alone: list[float] = []
    env = Environment()
    LoadGenerator(env, "svc", ConstantTrace(3.0), lambda q: alone.append(q.t_submit), RngRegistry(0))
    env.run(until=20.0)
    assert a == alone
    assert b and b != a


def test_zero_peak_trace_claims_its_stream_and_schedules_nothing():
    env, rng = Environment(), RngRegistry(0)
    LoadGenerator(env, "svc", ConstantTrace(0.0), lambda q: None, rng)
    assert env.scheduled_total == 0
    with pytest.raises(RuntimeError):
        rng.stream("arrivals/svc")
