"""Unit tests for the DES kernel: events, ordering, sleeps, processes."""

import pytest

from repro.sim import Environment, Event


def test_timeout_fires_at_delay():
    env = Environment()
    seen = []

    def proc():
        yield 5.0
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0]


def test_int_delay_sleeps_like_a_float():
    env = Environment()
    seen = []

    def proc():
        yield 2
        seen.append(env.now)
        yield 0
        seen.append(env.now)
        yield 3
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [2.0, 2.0, 5.0]
    assert env.events_processed == 5  # bootstrap, three wake-ups, completion


def test_negative_delay_rejected():
    """A negative delay raises ValueError at the yield, inside the process,
    and schedules nothing."""
    env = Environment()
    caught = []

    def proc():
        try:
            yield -1.0
        except ValueError as e:
            caught.append((str(e), env.now, env.queue_len))
        yield 1
        caught.append(env.now)

    env.process(proc())
    env.run()
    assert caught == [("negative delay -1.0", 0.0, 0), 1.0]


def test_unhandled_negative_delay_fails_the_process():
    env = Environment()

    def proc():
        yield -2

    env.process(proc())
    with pytest.raises(ValueError, match="negative delay -2"):
        env.run()


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield 3.0
            order.append(tag)

        return proc

    for tag in range(10):
        env.process(make(tag)())
    env.run()
    assert order == list(range(10))


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = Event(env)
    got = []

    def waiter():
        v = yield ev
        got.append((env.now, v))

    def firer():
        yield 7.0
        ev.succeed(42)

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [(7.0, 42)]


def test_event_double_trigger_raises():
    env = Environment()
    ev = Event(env)
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = Event(env)
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    def firer():
        yield 1.0
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_failed_event_without_waiter_propagates():
    env = Environment()
    ev = Event(env)
    ev.fail(RuntimeError("unobserved"))
    with pytest.raises(RuntimeError, match="unobserved"):
        env.run()


def test_process_is_event_fork_join():
    env = Environment()
    results = []

    def child(n):
        yield n
        return n * 10

    def parent():
        c1 = env.process(child(3))
        c2 = env.process(child(5))
        r1 = yield c1
        r2 = yield c2
        results.append((r1, r2, env.now))

    env.process(parent())
    env.run()
    assert results == [(30, 50, 5.0)]


def test_wait_on_already_processed_event():
    env = Environment()
    results = []

    def child():
        yield 1.0
        return "done"

    def parent():
        c = env.process(child())
        yield 10.0
        # child finished long ago; waiting must resume immediately
        v = yield c
        results.append((v, env.now))

    env.process(parent())
    env.run()
    assert results == [("done", 10.0)]


def test_interrupt_raises_in_target():
    """A stop closes the target's generator: GeneratorExit is raised at its
    yield when the stop lands, and the process fires with None."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield 100.0
            log.append("completed")
        except GeneratorExit:
            log.append(("stopped", env.now))
            raise

    def stopper(target):
        yield 5.0
        target.stop()
        log.append(("stop issued", env.now, target.is_alive))

    t = env.process(sleeper())
    env.process(stopper(t))
    env.run()
    assert log == [("stop issued", 5.0, True), ("stopped", 5.0)]
    assert not t.is_alive and t.value is None
    # the stopped sleep's wake-up at 100 still fired, inert: the clock
    # stopped at the stop, the last event a process waited on
    assert env.now == 5.0 and env.events_processed == 7


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield 1.0

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError, match="already terminated"):
        p.stop()


def test_yield_non_event_type_error():
    env = Environment()

    def bad():
        yield "42"  # a number is a sleep

    env.process(bad())
    with pytest.raises(TypeError):
        env.run()


def test_event_counter_and_peek():
    env = Environment()

    def proc():
        yield 2.0
        yield 2.0

    env.process(proc())
    env.run()
    assert env.events_processed >= 3


def test_deterministic_replay():
    def run_once():
        env = Environment()
        trace = []

        def worker(tag, delays):
            for d in delays:
                yield d
                trace.append((tag, env.now))

        env.process(worker("a", [1.0, 3.0, 2.0]))
        env.process(worker("b", [2.0, 2.0, 2.0]))
        env.run()
        return trace

    assert run_once() == run_once()
