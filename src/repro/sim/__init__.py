"""Deterministic discrete-event simulation (DES) kernel.

This package is the substrate every timed component of the reproduction runs
on: metadata servers, clients, the network, and the data path are all
generator-based processes scheduled by :class:`~repro.sim.engine.Environment`.

The kernel is SimPy-flavoured (``env.process``, ``yield event``) so the
simulator code in :mod:`repro.fs` reads like standard DES code, but it is
self-contained, deterministic, and tuned for the event rates this workload
produces (millions of events per run).  It carries only what the cluster
model uses: processes, their two waits, a stop that ends a process for
good (:meth:`~repro.sim.process.Process.stop`), and one-slot FIFO service
queues (:class:`~repro.sim.resources.Resource`), driven by one event loop
(:meth:`~repro.sim.engine.Environment.run`, which runs until the calendar
drains; only an event that something waits on moves the clock):

* a process sleeps by yielding its delay and queues for a server by
  yielding the :class:`~repro.sim.resources.Resource`; both waits reuse the
  process's one wake-up event, so the waits that make up almost every
  event of a run allocate nothing (:mod:`repro.sim.process`);
* the event heap stores plain tuples; :class:`~repro.sim.engine.Event`
  objects are made only for process completions and stops;
* same-time events fire in strict FIFO order of scheduling (a monotone
  sequence number breaks ties), which makes every run bit-reproducible;
* randomness is never global — components draw from named
  :class:`~repro.sim.rng.RngStream` children so adding a component never
  perturbs another component's random sequence.
"""

from repro.sim.durcost import DurabilityCostModel
from repro.sim.engine import Environment, Event
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RngStream, SeedSequenceFactory

__all__ = [
    "DurabilityCostModel",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "RngStream",
    "SeedSequenceFactory",
]
