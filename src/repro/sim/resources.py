"""One-slot FIFO service queues for DES processes.

Every contended server in the cluster model is one thread behind one FIFO
queue: each MDS (the saturation regime of §5.2, whose queueing delay is
Eq. (1)'s ``Q_i`` term) and each data server of the end-to-end data path.
:class:`Resource` is that queue.  Queueing delay is emergent — a process
waits exactly as long as the holds queued ahead of it last.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Optional

from repro.sim.engine import _NORMAL_KEY, Environment

__all__ = ["Resource"]


class Resource:
    """One server slot with a FIFO wait queue.

    A process queues by yielding the resource and resumes holding the slot;
    it hands the slot on with :meth:`release`, in ``try``/``finally``
    (see :mod:`repro.sim.process`).  No event is allocated for either: a
    grant schedules the process's own wake-up.  ``queue_len`` and
    ``in_use`` feed the timeline and the elastic pool controller;
    ``total_wait_time``, ``total_grants`` and ``peak_queue_len`` the metrics
    registry.
    """

    def __init__(self, env: Environment):
        self.env = env
        #: the process holding the slot, or None while it is free
        self.holder: Optional[Any] = None
        #: ``(process, enqueued_at)`` per queued process, in FIFO order
        self.waiters: deque = deque()
        self.total_wait_time = 0.0
        self.total_grants = 0
        self.peak_queue_len = 0

    @property
    def queue_len(self) -> int:
        return len(self.waiters)

    @property
    def in_use(self) -> int:
        return 0 if self.holder is None else 1

    def release(self) -> None:
        """Hand the slot to the longest-waiting process, or free it."""
        waiters = self.waiters
        if waiters:
            proc, enqueued_at = waiters.popleft()
            env = self.env
            now = env._now
            self.total_wait_time += now - enqueued_at
            self.total_grants += 1
            self.holder = proc
            env._seq = seq = env._seq + 1
            queue = env._queue
            heappush(queue, (now, _NORMAL_KEY | seq, proc._wake))
            if len(queue) > env._peak_queue:
                env._peak_queue = len(queue)
        elif self.holder is None:
            raise RuntimeError("release of a Resource nobody holds")
        else:
            self.holder = None
