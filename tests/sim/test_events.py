"""Event primitive semantics."""

import pytest

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Callback, Event, EventAlreadyTriggered, Timeout


def test_event_starts_pending(env):
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed


def test_value_unavailable_before_trigger(env):
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value


def test_succeed_carries_value(env):
    ev = env.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.value == 42
    env.run()
    assert ev.processed


def test_succeed_twice_raises(env):
    ev = env.event()
    ev.succeed()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()


def test_fail_then_succeed_raises(env):
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()


def test_fail_requires_exception(env):
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_escapes_run(env):
    ev = env.event()
    ev.fail(ValueError("unhandled"))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_defused_failure_does_not_escape(env):
    ev = env.event()
    ev.fail(ValueError("handled"))
    ev.defuse()
    env.run()  # no raise
    assert not ev.ok


def test_timeout_fires_at_delay(env):
    t = env.timeout(5.0, value="hello")
    env.run()
    assert env.now == 5.0
    assert t.value == "hello"


def test_timeout_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        Timeout(env, -1.0)


def test_callback_at_fires_at_the_exact_absolute_time():
    # now + (when - now) rounds to when's neighbour for this pair
    now, when = 93.91491627785106, 381.20423768821246
    assert now + (when - now) != when
    env = Environment(initial_time=now)
    fired = []
    Callback.at(env, when, lambda: fired.append(env.now))
    Callback.at(env, now, lambda: fired.append(env.now))
    env.run()
    assert fired == [now, when]


def test_callback_at_in_the_past_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        Callback.at(env, 4.999, lambda: None)


def test_timeouts_fire_in_order(env):
    order = []
    for delay in (3.0, 1.0, 2.0):
        ev = env.timeout(delay, value=delay)
        assert ev.callbacks is not None
        ev.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo(env):
    order = []
    for i in range(5):
        ev = env.timeout(1.0, value=i)
        assert ev.callbacks is not None
        ev.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_all_of_waits_for_all(env):
    a, b = env.timeout(1.0, "a"), env.timeout(3.0, "b")
    cond = AllOf(env, [a, b])
    env.run(until=cond)
    assert env.now == 3.0
    assert set(cond.value.values()) == {"a", "b"}


def test_any_of_fires_on_first(env):
    a, b = env.timeout(1.0, "a"), env.timeout(3.0, "b")
    cond = AnyOf(env, [a, b])
    env.run(until=cond)
    assert env.now == 1.0
    assert list(cond.value.values()) == ["a"]


def test_empty_all_of_fires_immediately(env):
    cond = AllOf(env, [])
    assert cond.triggered
    assert cond.value == {}


def test_all_of_propagates_failure(env):
    good = env.timeout(1.0)
    bad = env.event()
    bad.fail(RuntimeError("child failed"))
    cond = AllOf(env, [good, bad])
    cond.defuse()
    env.run()
    assert not cond.ok
    assert isinstance(cond.value, RuntimeError)


def test_condition_rejects_foreign_events(env):
    other = Environment()
    foreign = other.timeout(1.0)
    with pytest.raises(ValueError):
        AllOf(env, [env.timeout(1.0), foreign])


def test_all_of_with_already_processed_children(env):
    a = env.timeout(1.0, "a")
    env.run()
    b = env.timeout(1.0, "b")
    cond = AllOf(env, [a, b])
    env.run(until=cond)
    assert set(cond.value.values()) == {"a", "b"}


# -- cancellation ---------------------------------------------------------


def test_cancel_scheduled_timeout_never_fires(env):
    fired = []
    early = env.timeout(1.0)
    assert early.callbacks is not None
    early.callbacks.append(lambda e: fired.append("early"))
    late = env.timeout(5.0)
    assert late.callbacks is not None
    late.callbacks.append(lambda e: fired.append("late"))
    late.cancel()
    env.run()
    assert fired == ["early"]
    # the clock never advanced to the cancelled event's timestamp
    assert env.now == 1.0
    assert late.cancelled


def test_cancel_is_idempotent(env):
    ev = env.timeout(1.0)
    ev.cancel()
    ev.cancel()  # no-op, no error
    assert ev.cancelled
    env.timeout(2.0)
    env.run()
    assert env.now == 2.0


def test_cancel_pending_event_is_an_error(env):
    ev = env.event()  # never triggered: nothing scheduled to revoke
    with pytest.raises(RuntimeError, match="cannot cancel"):
        ev.cancel()


def test_cancel_processed_event_is_an_error(env):
    ev = env.timeout(1.0)
    env.run()
    assert ev.processed
    with pytest.raises(RuntimeError, match="cannot cancel"):
        ev.cancel()


def test_cancelled_schedule_callback_does_not_run(env):
    hits = []
    cb = env.schedule_callback(1.0, lambda: hits.append(env.now))
    cb.cancel()
    env.timeout(3.0)
    env.run()
    assert hits == []
    assert env.now == 3.0


# -- conditions, delays and priorities --------------------------------------


def test_any_of_propagates_a_first_failure(env):
    bad = env.event()
    bad.fail(ValueError("first"))
    cond = AnyOf(env, [bad, env.timeout(2.0)])
    cond.defuse()
    env.run()
    assert not cond.ok
    assert isinstance(cond.value, ValueError)


def test_any_of_defuses_a_failure_after_it_resolved(env):
    late = env.event()
    cond = AnyOf(env, [env.timeout(1.0, "ok"), late])
    env.schedule_callback(2.0, lambda: late.fail(RuntimeError("too late")))
    env.run()  # the late failure must not escape the run
    assert cond.ok and list(cond.value.values()) == ["ok"]


def test_condition_value_keeps_child_order(env):
    a, b, c = env.timeout(3.0, "a"), env.timeout(1.0, "b"), env.timeout(2.0, "c")
    cond = AllOf(env, [a, b, c])
    env.run(until=cond)
    assert list(cond.value.values()) == ["a", "b", "c"]


def test_succeed_and_fail_honour_delay(env):
    fired = []
    ok, bad = env.event(), env.event()
    for ev in (ok, bad):
        assert ev.callbacks is not None
        ev.callbacks.append(lambda e: fired.append((env.now, e.ok)))
    ok.succeed("v", delay=2.5)
    bad.fail(RuntimeError("x"), delay=1.5)
    bad.defuse()
    env.run()
    assert fired == [(1.5, False), (2.5, True)]


def test_lower_priority_value_fires_first_at_one_instant(env):
    order = []
    for name, priority in (("normal", 1), ("urgent", 0)):
        ev = env.event()
        assert ev.callbacks is not None
        ev.callbacks.append(lambda e: order.append(e.value))
        ev.succeed(name, delay=1.0, priority=priority)
    env.run()
    assert order == ["urgent", "normal"]
