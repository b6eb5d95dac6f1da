"""The DES kernel as it was before sleeps and grants reused a wake-up event.

Kept as the reference of ``tests/test_sim_differential.py``: a process
sleeps by yielding a fresh :class:`Timeout` and queues by yielding the
event :meth:`Resource.request` returns, which it hands back with
``release(req)``; a request released while still queued is cancelled.
The code is the earlier ``repro.sim`` engine, process and resources
modules, with ``Environment.process`` bound to this module's
:class:`Process`, without the ``all_of`` join, and with the current
kernel's clock rule in :meth:`Environment.run`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

NORMAL = 1
URGENT = 0
_NORMAL_KEY = NORMAL << 62


class Interrupt(Exception):
    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise AttributeError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        queue = env._queue
        heappush(queue, (env._now, _NORMAL_KEY | seq, self))
        if len(queue) > env._peak_queue:
            env._peak_queue = len(queue)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self


class Timeout(Event):
    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        queue = env._queue
        heappush(queue, (env._now + delay, _NORMAL_KEY | seq, self))
        if len(queue) > env._peak_queue:
            env._peak_queue = len(queue)


class Environment:
    def __init__(self):
        self._now = 0.0
        self._queue: list = []
        self._seq = 0
        self._event_count = 0
        self._peak_queue = 0
        self.timeline: Optional[Any] = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._event_count

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    @property
    def peak_queue_len(self) -> int:
        return self._peak_queue

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        return Process(self, generator)

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._seq = seq = self._seq + 1
        queue = self._queue
        heappush(queue, (self._now + delay, (priority << 62) | seq, event))
        if len(queue) > self._peak_queue:
            self._peak_queue = len(queue)

    def _urgent(self, callback: Callable[[Event], None], value: Any = None, ok: bool = True) -> None:
        ev = Event(self)
        ev._triggered = True
        ev._ok = ok
        ev._value = value
        ev.callbacks.append(callback)
        self._schedule(ev, URGENT, 0.0)

    def run(self) -> None:
        queue = self._queue
        pop = heappop
        count = self._event_count
        tl = self.timeline
        try:
            while queue:
                t, _key, event = pop(queue)
                count += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    # the clock rule of the kernel under test: an event that
                    # no live process waits on (an unjoined process's end,
                    # an interrupted process's timeout) is counted but does
                    # not move the clock; the earlier kernel moved it for
                    # every event.  A process interrupted while it resumes
                    # leaves its callback on the timeout it then sleeps on,
                    # and that callback waits for nothing once it has ended
                    if any(not cb.__self__._triggered for cb in callbacks):
                        self._now = t
                        if tl is not None and t >= tl.window_end_ms:
                            self._event_count = count - 1
                            tl.advance(t)
                    for cb in callbacks:
                        cb(event)
                elif not event._ok:
                    raise event._value
        finally:
            self._event_count = count


class Process(Event):
    __slots__ = ("_generator", "_waiting_on", "_cb")

    def __init__(self, env: Environment, generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._cb = self._on_event
        env._urgent(self._cb)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        if self._triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        if self._waiting_on is None:
            raise RuntimeError(f"{self!r} is not waiting on an event yet")
        target = self._waiting_on
        if target.callbacks is not None:
            target.callbacks = [cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self]
        self._waiting_on = None
        self.env._urgent(self._cb, Interrupt(cause), ok=False)

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if self._triggered:
            return
        value, ok = event._value, event._ok
        gen = self._generator
        send = gen.send
        throw = gen.throw
        cb = self._cb
        while True:
            try:
                target = send(value) if ok else throw(value)
            except StopIteration as stop:
                self._cb = None
                self.succeed(stop.value)
                return
            except Interrupt as exc:
                exc.__traceback__ = None
                self._cb = None
                self.succeed(None)
                return
            except BaseException as exc:
                self._cb = None
                self.fail(exc)
                return
            try:
                if target._processed:
                    value, ok = target._value, target._ok
                    continue
            except AttributeError:
                gen.throw(TypeError(f"process yielded non-event {target!r}"))
                return
            self._waiting_on = target
            target.callbacks.append(cb)
            return


class Resource:
    def __init__(self, env: Environment):
        self.env = env
        self.holder: Optional[Event] = None
        self.waiters: deque = deque()
        self._wait_started: dict = {}
        self.total_wait_time = 0.0
        self.total_grants = 0
        self.peak_queue_len = 0

    @property
    def queue_len(self) -> int:
        return len(self.waiters)

    @property
    def in_use(self) -> int:
        return 0 if self.holder is None else 1

    def request(self) -> Event:
        env = self.env
        req = Event(env)
        if self.holder is None:
            self.holder = req
            self.total_grants += 1
            req._value = None
            req._triggered = True
            env._seq = seq = env._seq + 1
            queue = env._queue
            heappush(queue, (env._now, _NORMAL_KEY | seq, req))
            if len(queue) > env._peak_queue:
                env._peak_queue = len(queue)
        else:
            waiters = self.waiters
            waiters.append(req)
            self._wait_started[req] = env._now
            if len(waiters) > self.peak_queue_len:
                self.peak_queue_len = len(waiters)
        return req

    def release(self, req: Event) -> None:
        if req is not self.holder:
            if req in self._wait_started:
                self.waiters.remove(req)
                del self._wait_started[req]
            return
        if self.waiters:
            nxt = self.waiters.popleft()
            self.total_wait_time += self.env._now - self._wait_started.pop(nxt)
            self.total_grants += 1
            self.holder = nxt
            nxt.succeed()
        else:
            self.holder = None
