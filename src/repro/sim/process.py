"""Generator-backed processes for the DES kernel.

A process is a Python generator that ``yield``s what it waits for, and
resumes at the ``yield`` expression when the wait is over:

* a delay (an ``int`` or ``float``): the process sleeps that long and
  resumes with ``None``; a negative delay raises :class:`ValueError` at the
  ``yield``;
* a :class:`~repro.sim.resources.Resource`: the process queues for the
  one-slot server and resumes with ``None`` once it holds the slot, which
  it gives back with ``resource.release()`` in ``try``/``finally``::

      yield resource
      try:
          yield hold_ms
      finally:
          resource.release()

* an :class:`~repro.sim.engine.Event`: the process resumes with the
  event's value, or has its exception raised in place.  A
  :class:`Process` is itself an event that fires when the generator
  returns, so processes wait on each other (fork/join) with plain
  ``yield child``.

Sleeps and grants allocate nothing: each process owns one wake-up event,
which the kernel puts back on the calendar for every sleep and every grant
with the key and calendar-peak update a fresh event would get there.

A process is ended from outside with :meth:`Process.stop`.  The stop lands
from an urgent event at the current time and cancels the wait the process
is in *then*: a sleep's wake-up still fires, inert, counted but without
moving the clock; a queued process leaves the queue, a granted one gives
the slot back, and a join forgets the process.  Its generator is then closed, so ``finally``
blocks run (a hold's ``resource.release()`` among them), and the process
fires with ``None``.

A process that returns or is stopped leaves no reference cycle behind, so
a replay frees everything by reference counting (``OrigamiFS.run`` pauses
the cyclic collector on that premise; ``tests/test_gc_pause.py`` holds it).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator

from repro.sim.engine import _NORMAL_KEY, URGENT, Environment, Event
from repro.sim.resources import Resource

__all__ = ["Process"]


class Process(Event):
    """Drives a generator; fires (as an event) with the generator's return value."""

    __slots__ = ("_generator", "_waiting_on", "_stopped_at", "_wake", "_wake_cbs")

    def __init__(self, env: Environment, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: the wake-up event (asleep or granted), the Resource (queued) or
        #: the event this process waits on; None while it runs
        self._waiting_on: Any = None
        #: the wait the last :meth:`stop` found, until the stop lands
        self._stopped_at: Any = None
        # the reusable calendar entry: a triggered event carrying None
        self._wake = wake = Event(env)
        wake._value = None
        wake._triggered = True
        # the wake-up's callback list, put back each time it is scheduled
        # (the engine clears an event's callbacks when it fires).  Its one
        # bound method refers back to the process, so the list is dropped
        # when the generator ends.
        wake.callbacks.append(self._on_event)
        self._wake_cbs = wake.callbacks
        # Bootstrap: resume once at the current time.
        env._schedule(wake, URGENT, 0.0)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def stop(self) -> None:
        """End the process for good at its current wait.

        The stop lands from an urgent event at the current time, and does
        its work then (:meth:`_land`).  Raises :class:`RuntimeError` for a
        process that has ended, or that is not waiting (it has not started,
        it is running, or a stop issued since it last waited has not landed).
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        if self._waiting_on is None:
            raise RuntimeError(f"{self!r} is not waiting on an event yet")
        self._stopped_at = self._waiting_on
        self._waiting_on = None
        self.env._urgent(self._land)

    def _land(self, _event: Event) -> None:
        """Cancel the wait the process is in now, then close its generator.

        The process may have resumed since :meth:`stop` (the event it
        waited on was firing then) and be waiting on something else, or
        have ended."""
        if self._triggered:
            return
        wait = self._waiting_on
        if wait is None:
            wait = self._stopped_at
        self._waiting_on = self._stopped_at = None
        wake = self._wake
        if wait is wake:
            # asleep: the wake-up on the calendar fires inert
            wake.callbacks = None
        elif wait.__class__ is Resource:
            wake.callbacks = None
            if wait.holder is self:
                # granted but not resumed: the grant's wake-up fires inert
                wait.release()
            else:
                waiters = wait.waiters
                del waiters[next(i for i, (proc, _) in enumerate(waiters) if proc is self)]
        else:
            wait.callbacks.remove(self._wake_cbs[0])
        self._wake_cbs = None
        try:
            self._generator.close()
        except BaseException as exc:
            # a ``finally`` that raises, or a generator that yields again
            self.fail(exc)
            return
        self.succeed(None)

    # -- generator stepping -------------------------------------------------
    def _on_event(self, event: Event) -> None:
        # the engine's per-event callback: send the event's outcome into the
        # generator, and keep going synchronously while it yields events
        # that are already over; a sleep or a Resource puts the wake-up on
        # the calendar or in the queue
        self._waiting_on = None
        value, ok = event._value, event._ok
        gen = self._generator
        while True:
            try:
                target = gen.send(value) if ok else gen.throw(value)
            except StopIteration as end:
                self._wake_cbs = None
                self.succeed(end.value)
                return
            except BaseException as exc:
                # An uncaught exception fails the process event: waiters see
                # it raised at their yield; if nobody waits, the engine
                # surfaces it when the failed event fires unobserved.
                self._wake_cbs = None
                self.fail(exc)
                return

            cls = target.__class__
            if cls is Resource:
                wake = self._wake
                wake.callbacks = self._wake_cbs
                env = self.env
                if target.holder is None:
                    # granted at once (the inlined grant of Resource.release)
                    target.holder = self
                    target.total_grants += 1
                    env._seq = seq = env._seq + 1
                    queue = env._queue
                    heappush(queue, (env._now, _NORMAL_KEY | seq, wake))
                    if len(queue) > env._peak_queue:
                        env._peak_queue = len(queue)
                else:
                    waiters = target.waiters
                    waiters.append((self, env._now))
                    if len(waiters) > target.peak_queue_len:
                        target.peak_queue_len = len(waiters)
                self._waiting_on = target
                return
            if cls is not float and cls is not int and not isinstance(target, (int, float)):
                # duck-typed event check: slot access doubles as the type guard
                try:
                    processed = target._processed
                except AttributeError:
                    value = TypeError(f"process yielded {target!r}: not a delay, Resource or event")
                    ok = False
                    continue
                if processed:
                    # Already over: continue synchronously with its outcome.
                    value, ok = target._value, target._ok
                    continue
                self._waiting_on = target
                target.callbacks.append(self._wake_cbs[0])
                return
            # a sleep
            if target < 0:
                value, ok = ValueError(f"negative delay {target}"), False
                continue
            wake = self._wake
            wake.callbacks = self._wake_cbs
            env = self.env
            env._seq = seq = env._seq + 1
            queue = env._queue
            heappush(queue, (env._now + target, _NORMAL_KEY | seq, wake))
            if len(queue) > env._peak_queue:
                env._peak_queue = len(queue)
            self._waiting_on = wake
            return
