"""Edge-case coverage for the DES kernel beyond the basics."""

import gc

import pytest

from repro.sim import Environment, Event, Interrupt, Resource


def test_all_of_failure_propagates():
    env = Environment()
    caught = []

    def bad_child():
        yield 2.0
        raise ValueError("child exploded")

    def good_child():
        yield 5.0
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


def test_interrupt_handled_and_process_continues():
    env = Environment()
    log = []

    def worker():
        try:
            yield 100.0
        except Interrupt:
            log.append(("interrupted", env.now))
        yield 3.0  # keeps going after handling
        log.append(("done", env.now))

    def boss(w):
        yield 4.0
        w.interrupt()

    w = env.process(worker())
    env.process(boss(w))
    env.run()
    assert log == [("interrupted", 4.0), ("done", 7.0)]


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


def test_all_of_mixes_processed_and_pending_children_in_child_order():
    """Children already processed when the join is made are folded in by
    urgent events; the values still come back in child order."""
    env = Environment()
    got = []

    def child(ms, value):
        yield ms
        return value

    def parent():
        early = env.process(child(1.0, "early"))
        late = env.process(child(5.0, "late"))
        also_early = env.process(child(1.0, "also-early"))
        yield 2.0  # both early children are processed now
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
        yield 1.0

    p = env.process(proc())
    with pytest.raises(RuntimeError, match="not waiting on an event yet"):
        p.interrupt()
    env.run()  # the interrupt was refused: the process runs to completion
    assert not p.is_alive and env.now == 1.0


def test_ended_processes_leave_no_cyclic_garbage():
    """Returned, joined and interrupted processes are freed by reference
    counting alone, whether they slept, queued for a Resource or held it,
    and whichever wait an interrupt cancelled: no wake-up event or its
    callback list outlives its process as a cycle."""
    env = Environment()
    res = Resource(env)
    log = []
    victims = {}

    def sleeper(ms):
        yield ms
        log.append(ms)

    def user(tag, ms):
        yield res
        try:
            yield ms
        finally:
            res.release()
        log.append(tag)

    def releaser():
        yield res
        try:
            yield 2.0
        finally:
            res.release()  # grants "granted", which has not resumed yet
        victims["granted"].interrupt("at the grant")

    def joiner(kids):
        yield env.all_of(kids)  # t = 1
        victims["asleep"].interrupt("done")
        victims["queued"].interrupt("done")

    env.process(releaser())  # holds [0, 2]
    victims["granted"] = env.process(user("granted", 1.0))
    victims["queued"] = env.process(user("queued", 1.0))
    env.process(user("served", 1.0))
    victims["asleep"] = env.process(sleeper(9.0))
    env.process(joiner([env.process(sleeper(1.0)) for _ in range(3)]))
    gc.collect()
    gc.disable()
    try:
        env.run()
        alive = [p.is_alive for p in victims.values()]
        victims.clear()  # the processes' last references outside the kernel
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert log == [1.0, 1.0, 1.0, "served"]  # no victim finished its wait
    assert alive == [False, False, False]
    assert (res.in_use, res.queue_len, res.total_grants) == (0, 0, 3)
    assert env.now == 9.0  # the cancelled sleep still fired, inert
