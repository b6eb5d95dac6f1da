"""Edge-case coverage for the DES kernel beyond the basics."""

import gc

import pytest

from repro.sim import Environment, Event, Interrupt


def test_all_of_failure_propagates():
    env = Environment()
    caught = []

    def bad_child():
        yield env.timeout(2.0)
        raise ValueError("child exploded")

    def good_child():
        yield env.timeout(5.0)
        return "ok"

    def parent():
        kids = [env.process(bad_child()), env.process(good_child())]
        try:
            yield env.all_of(kids)
        except ValueError as e:
            caught.append(str(e))

    env.process(parent())
    env.run()
    assert caught == ["child exploded"]


def test_process_exception_reaches_waiter():
    env = Environment()
    caught = []

    def failing():
        yield env.timeout(1.0)
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
        yield env.timeout(1.0)
        raise RuntimeError("nobody listening")

    env.process(failing())
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_interrupt_handled_and_process_continues():
    env = Environment()
    log = []

    def worker():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(3.0)  # keeps going after handling
        log.append(("done", env.now))

    def boss(w):
        yield env.timeout(4.0)
        w.interrupt()

    w = env.process(worker())
    env.process(boss(w))
    env.run()
    assert log == [("interrupted", 4.0), ("done", 7.0)]


def test_nested_yield_from_generators():
    env = Environment()
    trace = []

    def inner(tag):
        yield env.timeout(1.0)
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
        yield env.timeout(0.0)
        order.append(tag)
        yield env.timeout(0.0)
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
        yield env.timeout(0.0)
        # ev is processed by now; waiting resumes synchronously many times
        for _ in range(2000):
            v = yield ev
            assert v == "v"
        done.append(True)

    env.process(proc())
    env.run()
    assert done == [True]


def test_all_of_mixes_processed_and_pending_children_in_child_order():
    """Children already processed when the join is made are folded in by
    urgent events; the values still come back in child order."""
    env = Environment()
    got = []

    def parent():
        early = env.timeout(1.0, value="early")
        late = env.timeout(5.0, value="late")
        also_early = env.timeout(1.0, value="also-early")
        yield env.timeout(2.0)  # both early children are processed now
        got.append((yield env.all_of([late, early, also_early])))
        got.append(env.now)
        got.append((yield env.all_of([early, also_early])))
        got.append(env.now)

    env.process(parent())
    env.run()
    assert got == [["late", "early", "also-early"], 5.0, ["early", "also-early"], 5.0]


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
        yield env.timeout(1.0)

    p = env.process(proc())
    with pytest.raises(RuntimeError, match="not waiting on an event yet"):
        p.interrupt()
    env.run()  # the interrupt was refused: the process runs to completion
    assert not p.is_alive and env.now == 1.0


def test_ended_processes_leave_no_cyclic_garbage():
    """Returned, joined and interrupted processes are freed by reference
    counting alone."""
    env = Environment()
    log = []

    def sleeper(ms):
        yield env.timeout(ms)
        log.append(ms)

    def joiner(kids, victim):
        yield env.all_of(kids)
        victim.interrupt("done")

    env.process(joiner([env.process(sleeper(1.0)) for _ in range(3)], env.process(sleeper(9.0))))
    gc.collect()
    gc.disable()
    try:
        env.run()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert log == [1.0, 1.0, 1.0]  # the victim never woke
