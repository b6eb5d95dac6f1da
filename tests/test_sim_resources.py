"""Unit tests for Resource, the one-slot FIFO service queue."""

import pytest

from repro.sim import Environment, Interrupt, Resource


def test_resource_serialises_access():
    env = Environment()
    res = Resource(env)
    log = []

    def user(tag, hold):
        yield res
        log.append(("start", tag, env.now))
        yield hold
        res.release()
        log.append(("end", tag, env.now))

    env.process(user("a", 5.0))
    env.process(user("b", 3.0))
    env.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 5.0),
        ("start", "b", 5.0),
        ("end", "b", 8.0),
    ]


def test_resource_wait_time_accounting():
    env = Environment()
    res = Resource(env)

    def user(hold):
        yield res
        try:
            yield hold
        finally:
            res.release()

    env.process(user(4.0))
    env.process(user(4.0))
    env.process(user(4.0))
    env.run()
    # second waits 4, third waits 8
    assert res.total_wait_time == 12.0
    assert res.total_grants == 3
    assert res.peak_queue_len == 2
    assert res.in_use == 0
    assert res.queue_len == 0


def test_resource_cancel_queued_request():
    """An interrupt takes a queued process out of the queue: it is never
    granted, and waits nothing on the books."""
    env = Environment()
    res = Resource(env)
    got = []

    def holder():
        yield res
        try:
            yield 10.0
        finally:
            res.release()

    def impatient():
        try:
            yield res
        except Interrupt as i:
            got.append((i.cause, env.now, res.queue_len, res.in_use))
            return
        res.release()
        got.append("granted")

    def boss(p):
        yield 1.0
        p.interrupt("give up")

    env.process(holder())
    env.process(boss(env.process(impatient())))
    env.run()
    assert got == [("give up", 1.0, 0, 1)]
    assert (res.total_grants, res.total_wait_time, res.peak_queue_len) == (1, 0.0, 1)
    assert (res.in_use, res.queue_len) == (0, 0)


@pytest.mark.parametrize("state", ["asleep", "queued", "granted"])
def test_interrupt_in_each_wait_state_leaves_the_resource_free(state):
    """Asleep in its hold, queued, or granted but not yet resumed: an
    interrupted user leaves no slot held and no waiter queued."""
    env = Environment()
    res = Resource(env)
    seen = []

    def user(hold):
        try:
            yield res
            try:
                yield hold
            finally:
                res.release()
            seen.append(("done", env.now))
        except Interrupt:
            seen.append(("interrupted", env.now))

    def first():
        # holds the slot over [0, 2], then hands it to the victim
        yield res
        try:
            yield 2.0
        finally:
            res.release()
        if state == "granted":
            victim.interrupt()  # before the victim resumes

    def boss():
        yield {"asleep": 3.0, "queued": 1.0}[state]
        victim.interrupt()

    env.process(first())
    victim = env.process(user(5.0))
    if state != "granted":
        env.process(boss())
    env.run()
    at = {"asleep": 3.0, "queued": 1.0, "granted": 2.0}[state]
    assert seen == [("interrupted", at)]
    assert (res.in_use, res.queue_len) == (0, 0)
    assert res.total_grants == (1 if state == "queued" else 2)
    # an asleep victim's cancelled hold still fires, inert, at 2 + 5
    assert env.now == (7.0 if state == "asleep" else 2.0)


def test_interrupt_while_holding_releases_in_finally():
    env = Environment()
    res = Resource(env)
    seen = []

    def holder():
        yield res
        try:
            yield 10.0
        except Interrupt:
            seen.append(("interrupted", env.now, res.in_use))
        finally:
            res.release()

    def waiter():
        yield res
        try:
            seen.append(("granted", env.now))
        finally:
            res.release()

    def boss(p):
        yield 3.0
        p.interrupt()

    env.process(boss(env.process(holder())))
    env.process(waiter())
    env.run()
    assert seen == [("interrupted", 3.0, 1), ("granted", 3.0)]
    assert (res.in_use, res.queue_len, res.total_wait_time) == (0, 0, 3.0)
    assert env.now == 10.0  # the cancelled hold still fired, inert


def test_release_of_a_free_resource_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError, match="nobody holds"):
        res.release()
