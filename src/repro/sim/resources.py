"""One-slot FIFO service queues for DES processes.

Every contended server in the cluster model is one thread behind one FIFO
queue: each MDS (the saturation regime of §5.2, whose queueing delay is
Eq. (1)'s ``Q_i`` term) and each data server of the end-to-end data path.
:class:`Resource` is that queue.  Queueing delay is emergent — a request
waits exactly as long as the holds queued ahead of it last.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Optional

from repro.sim.engine import Environment, Event, _NORMAL_KEY

__all__ = ["Resource"]


class Resource:
    """One server slot with a FIFO wait queue.

    :meth:`request` returns an event that fires when the slot is granted;
    the holder hands it back with :meth:`release` (callers pair the two in
    ``try``/``finally``).  ``queue_len`` and ``in_use`` feed the timeline
    and the elastic pool controller; ``total_wait_time``, ``total_grants``
    and ``peak_queue_len`` the metrics registry.
    """

    def __init__(self, env: Environment):
        self.env = env
        #: the granted request, or None while the slot is free
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
            # inlined req.succeed(None): grants dominate the hot path and the
            # request is born untriggered, so the state guard is dead weight
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
                # Released while still queued (cancelled request).
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
