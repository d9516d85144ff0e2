"""Environment scheduling semantics."""

import math

import pytest

from repro.sim.environment import EmptySchedule, Environment


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0
    env.timeout(5.0)
    env.run()
    assert env.now == 105.0


def test_run_until_time_stops_exactly(env):
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_does_not_process_later_events(env):
    fired = []
    ev = env.timeout(5.0)
    assert ev.callbacks is not None
    ev.callbacks.append(lambda e: fired.append(env.now))
    env.run(until=5.0)
    # the stop event has priority below event processing at t=5
    assert fired == []
    env.run()
    assert fired == [5.0]


def test_horizon_excludes_events_at_the_horizon_itself(env):
    # run(until=T) schedules its stop event at priority -1, below even
    # URGENT (priority 0) bookkeeping: NO event with timestamp exactly T
    # runs before the horizon stops the clock, regardless of priority
    fired = []
    normal = env.timeout(5.0)
    assert normal.callbacks is not None
    normal.callbacks.append(lambda e: fired.append("normal"))
    urgent = env.event()
    urgent.succeed("u", delay=5.0, priority=0)
    assert urgent.callbacks is not None
    urgent.callbacks.append(lambda e: fired.append("urgent"))
    env.run(until=5.0)
    assert env.now == 5.0
    assert fired == []
    # resuming processes them, URGENT first
    env.run()
    assert fired == ["urgent", "normal"]


def test_horizon_property_tracks_the_run_in_progress(env):
    seen = []
    env.schedule_callback(1.0, lambda: seen.append(env.horizon))
    assert env.horizon == 0.0
    env.run(until=5.0)
    assert env.horizon == env.now == 5.0
    ticket = env.event()
    env.schedule_callback(1.0, lambda: seen.append(env.horizon))
    env.schedule_callback(2.0, lambda: ticket.succeed())
    env.run(until=ticket)
    env.schedule_callback(1.0, lambda: seen.append(env.horizon))
    env.run()
    assert seen == [5.0, math.inf, math.inf]
    assert env.horizon == env.now == 8.0


def test_run_until_past_raises(env):
    env.timeout(10.0)
    env.run(until=8.0)
    with pytest.raises(ValueError):
        env.run(until=3.0)


def test_run_until_event_returns_value(env):
    ev = env.timeout(2.5, value="done")
    assert env.run(until=ev) == "done"
    assert env.now == 2.5


def test_run_until_already_processed_event(env):
    ev = env.timeout(1.0, value=7)
    env.run()
    assert env.run(until=ev) == 7


def test_run_until_event_that_never_fires(env):
    pending = env.event()
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=pending)


def test_run_drains_heap(env):
    env.timeout(1.0)
    env.timeout(2.0)
    env.run()
    assert env.peek() == math.inf


def test_step_empty_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_returns_next_time(env):
    env.timeout(3.0)
    env.timeout(1.5)
    assert env.peek() == 1.5


def test_schedule_callback_runs_fn(env):
    hits = []
    env.schedule_callback(2.0, lambda: hits.append(env.now))
    env.run()
    assert hits == [2.0]


def test_clock_is_monotone_across_events(env):
    seen = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(0.1)
            seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == sorted(seen)
    assert len(seen) == 10


# -- lazy discard of cancelled entries ------------------------------------


def test_peek_skips_cancelled_head(env):
    first = env.timeout(1.0)
    env.timeout(2.0)
    first.cancel()
    assert env.peek() == 2.0


def test_step_skips_cancelled_and_empty_heap_raises(env):
    only = env.timeout(1.0)
    only.cancel()
    with pytest.raises(EmptySchedule):
        env.step()
    assert env.now == 0.0  # the clock never moved


def test_live_size_excludes_cancelled_entries(env):
    evs = [env.timeout(float(i + 1)) for i in range(10)]
    assert env.live_size == 10
    for ev in evs[:4]:
        ev.cancel()
    assert env.live_size == 6
    assert env.heap_size >= env.live_size


def test_compaction_bounds_heap_size(env):
    # cancel far more than _COMPACT_MIN entries while keeping them the
    # minority-turned-majority of the heap: compaction must kick in and
    # physically shrink the heap, not just mark entries dead
    evs = [env.timeout(float(i + 1)) for i in range(500)]
    for ev in evs[:400]:
        ev.cancel()
    assert env.heap_size < 500
    assert env.live_size == 100
    env.run()
    assert env.now == 500.0  # survivors all fired at their original times


def test_scheduled_total_is_monotone(env):
    base = env.scheduled_total
    env.timeout(1.0)
    ev = env.timeout(2.0)
    assert env.scheduled_total == base + 2
    ev.cancel()  # cancellation does not un-count the insertion
    assert env.scheduled_total == base + 2
