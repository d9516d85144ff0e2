"""Resource semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.environment import Environment
from repro.sim.resources import Resource


def test_resource_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_fifo_order(env):
    res = Resource(env, capacity=1)
    order = []

    def worker(env, i):
        req = res.request()
        yield req
        order.append(i)
        yield env.timeout(1.0)
        res.release(req)

    for i in range(4):
        env.process(worker(env, i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_release_queued_request_cancels_it(env):
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)  # cancel while still queued
    assert res.queue_length == 0
    res.release(held)
    assert res.count == 0


def test_release_unknown_request_raises(env):
    res = Resource(env, capacity=1)
    other = Resource(env, capacity=1)
    req = other.request()
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resize_grants_waiters(env):
    res = Resource(env, capacity=1)
    res.request()
    waiting = res.request()
    assert not waiting.triggered
    res.resize(2)
    assert waiting.triggered


def test_granted_request_carries_itself_as_value(env):
    res = Resource(env, capacity=1)
    req = res.request()
    assert req.value is req


def test_release_hands_the_slot_to_the_oldest_waiter(env):
    res = Resource(env, capacity=1)
    held = res.request()
    first, second = res.request(), res.request()
    res.release(held)
    assert first.triggered and not second.triggered
    assert res.count == 1
    assert res.queue_length == 1


def test_cancelled_waiter_is_skipped_when_a_slot_frees(env):
    res = Resource(env, capacity=1)
    held = res.request()
    cancelled, waiting = res.request(), res.request()
    res.release(cancelled)
    res.release(held)
    assert not cancelled.triggered
    assert waiting.triggered


def test_double_release_raises(env):
    res = Resource(env, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resize_down_keeps_holders_and_queues_new_requests(env):
    res = Resource(env, capacity=3)
    holders = [res.request() for _ in range(3)]
    res.resize(1)
    assert res.capacity == 1
    assert res.count == 3
    late = res.request()
    assert not late.triggered
    res.release(holders[0])
    res.release(holders[1])
    assert not late.triggered  # the third holder still fills capacity 1
    res.release(holders[2])
    assert late.triggered


def test_resize_validation(env):
    res = Resource(env, capacity=2)
    with pytest.raises(ValueError):
        res.resize(0)
    assert res.capacity == 2


def test_waiters_start_when_holders_leave(env):
    res = Resource(env, capacity=2)
    starts = {}

    def worker(env, i, hold):
        req = res.request()
        yield req
        starts[i] = env.now
        yield env.timeout(hold)
        res.release(req)

    for i, hold in enumerate([3.0, 1.0, 2.0, 2.0]):
        env.process(worker(env, i, hold))
    env.run()
    assert starts == {0: 0.0, 1: 0.0, 2: 1.0, 3: 3.0}


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=60), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_request_release_sequences_keep_fifo_and_capacity(ops, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    live = []  # requests not yet released, in request order
    for is_request, k in ops:
        if is_request or not live:
            live.append(res.request())
        else:
            res.release(live.pop(k % len(live)))
        granted = [r.triggered for r in live]
        # grants form a prefix of the live requests (FIFO) ...
        assert granted == sorted(granted, reverse=True)
        # ... capped at capacity, with nobody waiting while a slot is free
        assert res.count == sum(granted) == min(capacity, len(live))
        assert res.queue_length == len(live) - res.count
