"""Unit tests for Resource, the one-slot FIFO service queue."""

from repro.sim import Environment, Resource


def test_resource_serialises_access():
    env = Environment()
    res = Resource(env)
    log = []

    def user(tag, hold):
        req = res.request()
        yield req
        log.append(("start", tag, env.now))
        yield env.timeout(hold)
        res.release(req)
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
        req = res.request()
        try:
            yield req
            yield env.timeout(hold)
        finally:
            res.release(req)

    env.process(user(4.0))
    env.process(user(4.0))
    env.process(user(4.0))
    env.run()
    # second waits 4, third waits 8
    assert res.total_wait_time == 12.0
    assert res.total_grants == 3
    assert res.in_use == 0
    assert res.queue_len == 0


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env)
    got = []

    def holder():
        req = res.request()
        try:
            yield req
            yield env.timeout(10.0)
        finally:
            res.release(req)

    def impatient():
        req = res.request()
        yield env.timeout(1.0)
        # give up before ever being granted
        res.release(req)
        got.append(res.queue_len)

    env.process(holder())
    env.process(impatient())
    env.run()
    assert got == [0]
