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
with the key and calendar-peak update a fresh event would get there.  An
interrupt (:meth:`Process.interrupt`) cancels whatever wait it lands on: a
sleep's wake-up still fires, inert, and advances the clock; a queued
process leaves the queue, and a granted one gives the slot back, before
the :class:`~repro.sim.engine.Interrupt` is raised at its ``yield``.

A process that returns, or ends on an interrupt, leaves no reference cycle
behind, so a replay frees everything by reference counting
(``OrigamiFS.run`` pauses the cyclic collector on that premise;
``tests/test_gc_pause.py`` holds it).
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Any, Generator

from repro.sim.engine import _NORMAL_KEY, URGENT, Environment, Event, Interrupt
from repro.sim.resources import Resource

__all__ = ["Process"]


def _new_wake(env: Environment) -> Event:
    """A process's reusable calendar entry: a triggered event carrying None."""
    wake = Event(env)
    wake._value = None
    wake._triggered = True
    return wake


class Process(Event):
    """Drives a generator; fires (as an event) with the generator's return value."""

    __slots__ = ("_generator", "_waiting_on", "_wake", "_wake_cbs")

    def __init__(self, env: Environment, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: the wake-up event (asleep or granted), the Resource (queued) or
        #: the event this process waits on; None while it runs
        self._waiting_on: Any = None
        self._wake = wake = _new_wake(env)
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

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        The interrupt lands from an urgent event at the current time and
        cancels the wait it finds.  A sleep's wake-up stays on the calendar
        and still fires, inert: it is counted and advances the clock to its
        time.  A process queued for a :class:`Resource` leaves the queue,
        and one granted the slot but not yet resumed gives it back, as the
        interrupt lands and before it is raised.
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        target = self._waiting_on
        if target is None:
            raise RuntimeError(f"{self!r} is not waiting on an event yet")
        self._waiting_on = None
        ev = self.env._urgent(self._wake_cbs[0], Interrupt(cause), ok=False)
        wake = self._wake
        if target is wake:
            # asleep: the wake-up on the calendar fires inert, and a fresh
            # one serves the process from now on
            wake.callbacks = None
            self._wake = _new_wake(self.env)
        elif target.__class__ is Resource:
            # queued, or granted but not resumed: the wake-up fires inert
            # whenever the grant schedules it, and the process leaves the
            # queue or gives the slot back as the interrupt lands
            wake.callbacks = None
            ev.callbacks.insert(0, partial(self._leave, target))
        elif target.callbacks is not None:
            # Detach from the event so its firing later does not resume the
            # process a second time.
            target.callbacks = [cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self]

    def _leave(self, resource: Resource, _event: Event) -> None:
        """Take this interrupted process out of the queue for ``resource``,
        or give the slot back if it was granted meanwhile."""
        waiters = resource.waiters
        for i, (proc, _) in enumerate(waiters):
            if proc is self:
                del waiters[i]
                return
        # granted: the grant's wake-up is still on the calendar, inert
        self._wake = _new_wake(self.env)
        resource.release()

    # -- generator stepping -------------------------------------------------
    def _on_event(self, event: Event) -> None:
        # the engine's per-event callback: send the event's outcome into the
        # generator, and keep going synchronously while it yields events
        # that are already over; a sleep or a Resource puts the wake-up on
        # the calendar or in the queue
        self._waiting_on = None
        if self._triggered:
            return
        value, ok = event._value, event._ok
        gen = self._generator
        while True:
            try:
                target = gen.send(value) if ok else gen.throw(value)
            except StopIteration as stop:
                self._wake_cbs = None
                self.succeed(stop.value)
                return
            except Interrupt as exc:
                # An unhandled interrupt terminates the process quietly; the
                # interrupter decided the work is moot.  Its traceback holds
                # this frame, whose ``value`` holds the interrupt: drop it,
                # or the pair is cyclic garbage pinning every caller's frame.
                exc.__traceback__ = None
                self._wake_cbs = None
                self.succeed(None)
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
