"""Event loop and primitive events for the DES kernel.

The design follows the classic event-calendar pattern: a binary heap of
``(time, key, event)`` tuples, where ``key`` packs the priority and a
monotonically increasing sequence number into one integer
(``priority << 62 | sequence``).  Because the sequence is unique, the packed
key totally orders same-time entries exactly as the unpacked
``(priority, sequence)`` pair would — events at the same virtual time with
the same priority always fire in the order they were scheduled, and the
event object itself is never compared.  Determinism of the whole simulation
reduces to determinism of the model code plus seeded RNG streams
(:mod:`repro.sim.rng`).

Almost every entry is one of a process's two waits, and neither allocates:
a sleep (the process yields its delay) and a grant of a
:class:`~repro.sim.resources.Resource` (the process yields the resource)
both put the process's own reusable wake-up event on the calendar (see
:mod:`repro.sim.process`).  :class:`Event` objects proper serve
process completions (another process joins one with ``yield process``)
and the urgent bookkeeping below.

Virtual time is a float; the reproduction uses **milliseconds** throughout
(see ``repro.costmodel.params`` for the unit conventions).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Environment", "Event"]

#: priority for ordinary events
NORMAL = 1
#: priority for "urgent" bookkeeping events (fire before normal ones at t)
URGENT = 0

#: pre-shifted heap-key base of normal events; sequence numbers stay far
#: below 2**62 (a run issuing a billion events per second would take a
#: century to overflow)
_NORMAL_KEY = NORMAL << 62

#: lazily bound Process class (circular import; see Environment.process)
_Process = None


class Event:
    """A one-shot occurrence that callbacks (usually processes) wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled on the calendar with a value), and *processed* (callbacks ran).
    Waiting on an already-processed event is allowed and resumes the waiter
    immediately at the current time — the simulator relies on this for cache
    hits that complete "instantly".
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise AttributeError("event value is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
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
        """Trigger the event with an exception; waiters see it raised."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else ("triggered" if self._triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Environment:
    """The event calendar plus factory helpers for events and processes."""

    def __init__(self):
        self._now = 0.0
        self._queue: list = []
        self._seq = 0
        self._event_count = 0
        self._peak_queue = 0
        #: optional TimelineCollector; window roll-over piggybacks on clock
        #: advance so telemetry never schedules events of its own (parity)
        self.timeline: Optional[Any] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time (milliseconds by project convention)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (diagnostics)."""
        return self._event_count

    @property
    def queue_len(self) -> int:
        """Events currently on the calendar (diagnostics)."""
        return len(self._queue)

    @property
    def peak_queue_len(self) -> int:
        """High-water mark of the event calendar (memory-pressure signal)."""
        return self._peak_queue

    # -- factories ---------------------------------------------------------
    def process(self, generator) -> "Process":
        # late import (circular: process.py imports engine.py), cached in a
        # module global — spawning 10^5 clients pays the sys.modules lookup
        # per call otherwise
        global _Process
        if _Process is None:
            from repro.sim.process import Process as _Process
        return _Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._seq = seq = self._seq + 1
        queue = self._queue
        heappush(queue, (self._now + delay, (priority << 62) | seq, event))
        if len(queue) > self._peak_queue:
            self._peak_queue = len(queue)

    def _urgent(self, callback: Callable[[Event], None]) -> None:
        """Call ``callback`` from an urgent zero-delay event: it runs before
        the normal events at the current time, in scheduling order (keeps
        causality ordering)."""
        ev = Event(self)
        ev._triggered = True
        ev._value = None
        ev.callbacks.append(callback)
        self._schedule(ev, URGENT, 0.0)

    def warp(self, to_time: float) -> None:
        """Jump the clock forward on an *empty* calendar (checkpoint restore).

        A checkpoint captures a quiescent simulation — nothing scheduled —
        so restoring one only needs the clock moved to the capture time.
        Warping with pending events would fire them in the past, so that is
        rejected outright."""
        to_time = float(to_time)
        if self._queue:
            raise RuntimeError("cannot warp a calendar with pending events")
        if to_time < self._now:
            raise ValueError(f"warp target {to_time} lies in the past (now={self._now})")
        self._now = to_time

    # -- main loop ----------------------------------------------------------
    def run(self) -> None:
        """Fire events in calendar order until the calendar drains.

        Every event is counted, but only an event that something waits on
        moves the clock and rolls the timeline over: a wake-up whose wait
        was stopped, or a process end nobody joins, fires inert, so a run
        ends at the last event that resumed something.

        One Python frame per event, with local bindings for the queue and
        the event counter.  ``count`` is flushed back before every timeline
        roll-over — window-close telemetry reads ``events_processed`` — and
        unconditionally on the way out.
        """
        queue = self._queue
        pop = heappop
        count = self._event_count
        # the collector is attached before the run and never swapped mid-run,
        # so it can be bound once outside the loop
        tl = self.timeline
        try:
            while queue:
                t, _key, event = pop(queue)
                count += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    self._now = t
                    if tl is not None and t >= tl.window_end_ms:
                        # the closing window counts the events before this one
                        self._event_count = count - 1
                        tl.advance(t)
                    for cb in callbacks:
                        cb(event)
                elif not event._ok:
                    # a failed event nobody waited on would silently swallow
                    # the exception: surface it instead
                    raise event._value
        finally:
            self._event_count = count
