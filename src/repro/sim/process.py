"""Generator-backed processes for the DES kernel.

A process is a Python generator that ``yield``s :class:`~repro.sim.engine.Event`
objects; the process resumes when the yielded event fires, receiving the
event's value at the ``yield`` expression (or its exception raised in place).
A :class:`Process` is itself an event that fires when the generator returns,
so processes can wait on each other (fork/join) with plain ``yield child``.

A process that returns, or ends on an interrupt, leaves no reference cycle
behind, so a replay frees everything by reference counting
(``OrigamiFS.run`` pauses the cyclic collector on that premise;
``tests/test_gc_pause.py`` holds it).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import Environment, Event, Interrupt

__all__ = ["Process"]


class Process(Event):
    """Drives a generator; fires (as an event) with the generator's return value."""

    __slots__ = ("_generator", "_waiting_on", "_cb")

    def __init__(self, env: Environment, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # one bound method for the whole lifetime (a fresh one per yield is
        # measurable on the hot path); interrupt()'s __self__ filter still
        # matches it.  It refers back to the process, so it is dropped when
        # the generator ends.
        self._cb = self._on_event
        # Bootstrap: resume once at the current time.
        env._urgent(self._cb)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        if self._waiting_on is None:
            raise RuntimeError(f"{self!r} is not waiting on an event yet")
        target = self._waiting_on
        # Detach from whatever it waited on so the original event firing
        # later does not double-resume the process.
        if target.callbacks is not None:
            target.callbacks = [cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self]
        self._waiting_on = None
        self.env._urgent(self._cb, Interrupt(cause), ok=False)

    # -- generator stepping -------------------------------------------------
    def _on_event(self, event: Event) -> None:
        # the engine's per-event callback: send the event's outcome into the
        # generator, and keep going synchronously while it yields events
        # that are already over
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
                # An unhandled interrupt terminates the process quietly; the
                # interrupter decided the work is moot.  Its traceback holds
                # this frame, whose ``value`` holds the interrupt: drop it,
                # or the pair is cyclic garbage pinning every caller's frame.
                exc.__traceback__ = None
                self._cb = None
                self.succeed(None)
                return
            except BaseException as exc:
                # An uncaught exception fails the process event: waiters see
                # it raised at their yield; if nobody waits, the engine
                # surfaces it when the failed event fires unobserved.
                self._cb = None
                self.fail(exc)
                return

            # duck-typed event check: slot access doubles as the type guard
            try:
                if target._processed:
                    # Already over: continue synchronously with its outcome.
                    value, ok = target._value, target._ok
                    continue
            except AttributeError:
                gen.throw(TypeError(f"process yielded non-event {target!r}"))
                return

            self._waiting_on = target
            target.callbacks.append(cb)
            return
