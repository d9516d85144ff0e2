"""Process semantics: sequencing, completion, errors."""

import pytest

from repro.sim.process import Process


def test_process_runs_to_completion(env):
    log = []

    def proc(env):
        yield env.timeout(1.0)
        log.append(env.now)
        yield env.timeout(2.0)
        log.append(env.now)
        return "finished"

    p = env.process(proc(env))
    result = env.run(until=p)
    assert log == [1.0, 3.0]
    assert result == "finished"
    assert p.processed


def test_process_requires_generator(env):
    with pytest.raises(TypeError):
        Process(env, lambda: None)  # type: ignore[arg-type]


def test_process_receives_event_value(env):
    got = []

    def proc(env):
        v = yield env.timeout(1.0, value="payload")
        got.append(v)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_processes_wait_on_each_other(env):
    def child(env):
        yield env.timeout(2.0)
        return 21

    def parent(env):
        v = yield env.process(child(env))
        return v * 2

    p = env.process(parent(env))
    assert env.run(until=p) == 42


def test_yield_non_event_raises(env):
    def proc(env):
        yield 42  # not an event

    env.process(proc(env))
    with pytest.raises(TypeError, match="may only yield events"):
        env.run()


def test_process_exception_propagates_to_waiter(env):
    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(parent(env))
    assert env.run(until=p) == "caught child died"


def test_unwaited_process_exception_escapes(env):
    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("nobody listening")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_waiting_on_already_processed_event(env):
    def proc(env):
        t = env.timeout(1.0, value="early")
        yield env.timeout(3.0)
        v = yield t  # t fired long ago
        return v

    p = env.process(proc(env))
    assert env.run(until=p) == "early"
    assert env.now == 3.0


def test_two_processes_interleave(env):
    log = []

    def ping(env):
        for _ in range(3):
            yield env.timeout(2.0)
            log.append(("ping", env.now))

    def pong(env):
        yield env.timeout(1.0)
        for _ in range(3):
            yield env.timeout(2.0)
            log.append(("pong", env.now))

    env.process(ping(env))
    env.process(pong(env))
    env.run()
    assert log == [
        ("ping", 2.0),
        ("pong", 3.0),
        ("ping", 4.0),
        ("pong", 5.0),
        ("ping", 6.0),
        ("pong", 7.0),
    ]


def test_generator_that_never_yields_completes_at_start(env):
    def proc(env):
        return "instant"
        yield  # pragma: no cover

    p = env.process(proc(env))
    assert env.run(until=p) == "instant"
    assert env.now == 0.0


def test_process_value_is_the_return_value(env):
    def proc(env):
        yield env.timeout(1.0)
        return {"done": True}

    p = env.process(proc(env))
    env.run()
    assert p.processed and p.ok
    assert p.value == {"done": True}


def test_failed_event_is_thrown_into_the_waiting_process(env):
    ev = env.event()
    got = []

    def proc(env):
        try:
            yield ev
        except KeyError as exc:
            got.append((env.now, exc.args[0]))

    env.process(proc(env))
    env.schedule_callback(2.0, lambda: ev.fail(KeyError("gone")))
    env.run()
    assert got == [(2.0, "gone")]


def test_process_waits_on_all_of(env):
    def proc(env):
        yield env.all_of([env.timeout(1.0), env.timeout(4.0), env.timeout(2.0)])
        return env.now

    p = env.process(proc(env))
    assert env.run(until=p) == 4.0


def test_yielding_another_environments_event_raises(env):
    from repro.sim.environment import Environment

    other = Environment()

    def proc(env):
        yield other.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(ValueError, match="different environment"):
        env.run()


def test_process_name_defaults_to_generator_name(env):
    def worker(env):
        yield env.timeout(1.0)

    assert env.process(worker(env)).name == "worker"
    assert Process(env, worker(env), name="w1").name == "w1"
