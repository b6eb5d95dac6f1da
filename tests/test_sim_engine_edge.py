"""Edge-case coverage for the DES kernel beyond the basics."""

import gc

import pytest

from repro.sim import Environment, Event, Resource


def test_process_exception_reaches_waiter():
    env = Environment()
    caught = []

    def failing():
        yield 1.0
        raise RuntimeError("inner")

    def waiter():
        p = env.process(failing())
        try:
            yield p
        except RuntimeError as e:
            caught.append(str(e))

    env.process(waiter())
    env.run()
    assert caught == ["inner"]


def test_unwaited_process_exception_surfaces_from_run():
    env = Environment()

    def failing():
        yield 1.0
        raise RuntimeError("nobody listening")

    env.process(failing())
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_nested_yield_from_generators():
    env = Environment()
    trace = []

    def inner(tag):
        yield 1.0
        trace.append((tag, env.now))
        return tag * 2

    def outer():
        a = yield from inner(1)
        b = yield from inner(10)
        trace.append(("sum", a + b))

    env.process(outer())
    env.run()
    assert trace == [(1, 1.0), (10, 2.0), ("sum", 22)]


def test_zero_delay_timeouts_preserve_order():
    env = Environment()
    order = []

    def proc(tag):
        yield 0.0
        order.append(tag)
        yield 0.0
        order.append(tag + 10)

    env.process(proc(0))
    env.process(proc(1))
    env.run()
    assert order == [0, 1, 10, 11]


def test_chained_immediate_events_terminate():
    """Already-processed events resumed synchronously must not recurse."""
    env = Environment()
    done = []

    def proc():
        ev = Event(env)
        ev.succeed("v")
        yield 0.0
        # ev is processed by now; waiting resumes synchronously many times
        for _ in range(2000):
            v = yield ev
            assert v == "v"
        done.append(True)

    env.process(proc())
    env.run()
    assert done == [True]


def test_process_that_returns_at_once_costs_two_events():
    """One event resumes it for the first time, one fires its completion."""
    env = Environment()

    def instant():
        return "v"
        yield  # unreachable; makes this a generator

    p = env.process(instant())
    env.run()
    assert env.events_processed == 2
    assert p.value == "v" and not p.is_alive


def test_interrupt_before_first_resume_raises():
    env = Environment()

    def proc():
        yield 1.0

    p = env.process(proc())
    with pytest.raises(RuntimeError, match="not waiting on an event yet"):
        p.stop()
    env.run()  # the stop was refused: the process runs to completion
    assert not p.is_alive and env.now == 1.0


def test_ended_processes_leave_no_cyclic_garbage():
    """Returned, joined and stopped processes are freed by reference
    counting alone, whether they slept, queued for a Resource, held it or
    joined an event, and whichever wait a stop cancelled: no wake-up event,
    callback list or exception traceback of a closed generator outlives its
    process as a cycle."""
    env = Environment()
    res, other = Resource(env), Resource(env)
    log = []
    victims = {}

    def sleeper(ms):
        yield ms
        log.append(ms)

    def user(tag, ms, r=res):
        yield r
        try:
            yield ms
        finally:
            r.release()
            log.append(("released", tag, env.now))
        log.append(tag)

    def guarded(tag, wait):
        try:
            yield wait
        finally:
            log.append(("closed", tag, env.now))

    def releaser():
        yield res
        try:
            yield 2.0
        finally:
            res.release()  # grants "granted", which has not resumed yet
        victims["granted"].stop()

    def joiner(kids):
        for kid in kids:
            yield kid  # t = 1
        for tag in ("asleep", "queued", "holding", "joining"):
            victims[tag].stop()

    env.process(releaser())  # holds [0, 2]
    victims["granted"] = env.process(user("granted", 1.0))
    victims["queued"] = env.process(user("queued", 1.0))
    env.process(user("served", 1.0))
    victims["holding"] = env.process(user("holding", 5.0, other))
    victims["asleep"] = env.process(guarded("asleep", 9.0))
    victims["joining"] = env.process(guarded("joining", Event(env)))
    env.process(joiner([env.process(sleeper(1.0)) for _ in range(3)]))
    gc.collect()
    gc.disable()
    try:
        env.run()
        ended = [(p.is_alive, p.value) for p in victims.values()]
        victims.clear()  # the processes' last references outside the kernel
        assert gc.collect() == 0
    finally:
        gc.enable()
    # no victim finished its wait; the closed ones ran their ``finally``
    assert log == [
        1.0, 1.0, 1.0,
        ("closed", "asleep", 1.0), ("released", "holding", 1.0), ("closed", "joining", 1.0),
        ("released", "served", 3.0), "served",
    ]
    assert ended == [(False, None)] * 5
    assert (res.in_use, res.queue_len, res.total_grants) == (0, 0, 3)
    assert (other.in_use, other.queue_len, other.total_grants) == (0, 0, 1)
    # the stopped sleeps at 5 and 9 still fired, inert; the last event a
    # process waited on ended the hold of "served"
    assert env.now == 3.0
