"""Unit tests for Resource, the one-slot FIFO service queue."""

import pytest

from repro.sim import Environment, Resource


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
    """A stop takes a queued process out of the queue: it is never granted,
    and waits nothing on the books."""
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
            res.release()
            got.append("granted")
        finally:
            got.append((env.now, res.queue_len, res.in_use))

    def boss(p):
        yield 1.0
        p.stop()

    env.process(holder())
    env.process(boss(env.process(impatient())))
    env.run()
    assert got == [(1.0, 0, 1)]
    assert (res.total_grants, res.total_wait_time, res.peak_queue_len) == (1, 0.0, 1)
    assert (res.in_use, res.queue_len) == (0, 0)


#: events of each stop scenario below, as the earlier kernel
#: (tests/sim_reference.py) counts them with an interrupt the victim does
#: not catch: bootstraps, grants, hold sleeps, the stop's landing, process
#: ends, and the victim's cancelled wake-up (asleep, granted), fired inert
STOP_EVENTS = {"asleep": 12, "queued": 10, "granted": 8}


@pytest.mark.parametrize("state", ["asleep", "queued", "granted"])
def test_interrupt_in_each_wait_state_leaves_the_resource_free(state):
    """Asleep in its hold, queued, or granted but not yet resumed: a
    stopped user leaves no slot held and no waiter queued, runs its
    ``finally``, and costs the events the earlier kernel's interrupt did."""
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
        finally:
            seen.append(("closed", env.now, res.holder is victim))

    def first():
        # holds the slot over [0, 2], then hands it to the victim
        yield res
        try:
            yield 2.0
        finally:
            res.release()
        if state == "granted":
            victim.stop()  # before the victim resumes

    def boss():
        yield {"asleep": 3.0, "queued": 1.0}[state]
        victim.stop()

    env.process(first())
    victim = env.process(user(5.0))
    if state != "granted":
        env.process(boss())
    env.run()
    at = {"asleep": 3.0, "queued": 1.0, "granted": 2.0}[state]
    assert seen == [("closed", at, False)]
    assert not victim.is_alive and victim.value is None
    assert (res.in_use, res.queue_len) == (0, 0)
    assert res.total_grants == (1 if state == "queued" else 2)
    # an asleep victim's stopped hold still fires, inert, at 2 + 5: the
    # clock ends at the stop or at the first user's release, if later
    assert env.now == (3.0 if state == "asleep" else 2.0)
    assert env.events_processed == STOP_EVENTS[state]


def test_interrupt_while_holding_releases_in_finally():
    env = Environment()
    res = Resource(env)
    seen = []

    def holder():
        yield res
        try:
            yield 10.0
        finally:
            seen.append(("stopped", env.now, res.in_use))
            res.release()

    def waiter():
        yield res
        try:
            seen.append(("granted", env.now))
        finally:
            res.release()

    def boss(p):
        yield 3.0
        p.stop()

    env.process(boss(env.process(holder())))
    env.process(waiter())
    env.run()
    assert seen == [("stopped", 3.0, 1), ("granted", 3.0)]
    assert (res.in_use, res.queue_len, res.total_wait_time) == (0, 0, 3.0)
    assert env.now == 3.0  # the stopped hold's wake-up at 10 fired inert


def test_stop_that_a_finally_refuses_fails_the_process():
    """A generator that yields again while it is closed fails the process
    with the RuntimeError that ``close`` raises; a joiner sees it."""
    env = Environment()
    seen = []

    def stubborn():
        try:
            yield 10.0
        finally:
            yield 1.0

    def joiner(p):
        try:
            yield p
        except RuntimeError as exc:
            seen.append((str(exc), env.now))

    def boss(p):
        yield 2.0
        p.stop()

    p = env.process(stubborn())
    env.process(joiner(p))
    env.process(boss(p))
    env.run()
    assert seen == [("generator ignored GeneratorExit", 2.0)]


def test_release_of_a_free_resource_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError, match="nobody holds"):
        res.release()
