"""Fault injection: deterministic failures for the metadata cluster.

Real clusters do not run at uniform speed — compaction stalls, noisy
neighbours, crashed daemons, and partitioned racks degrade individual MDSs.
A balancer that only understands *load* cannot tell an overloaded server
from a degraded one, and the paper's evaluation never stresses that edge;
this subsystem makes failure a first-class, scriptable input:

* :mod:`~repro.fs.faults.schedule` — the declarative model: window-scoped
  :class:`Slowdown`/:class:`Crash`/:class:`RpcDrop`/:class:`RpcDelay`/
  :class:`Partition` events plus the client :class:`RetryPolicy`, JSON
  round-trippable (``simulate --faults schedule.json``);
* :mod:`~repro.fs.faults.injector` — :class:`FaultInjector` wires a schedule
  into a live run: crash timeline, per-RPC client gate, fault accounting;
* :mod:`~repro.fs.faults.errors` — the typed failures clients observe.
"""

from repro.fs.faults.errors import (
    FaultError,
    MdsCrashedError,
    MdsUnavailableError,
    RetriesExhaustedError,
    RpcDroppedError,
    RpcTimeoutError,
)
from repro.fs.faults.injector import FaultInjector
from repro.fs.faults.schedule import (
    SCHEDULE_SCHEMA_VERSION,
    Crash,
    FaultEvent,
    FaultSchedule,
    Partition,
    RetryPolicy,
    RpcDelay,
    RpcDrop,
    Slowdown,
)

__all__ = [
    "FaultEvent",
    "Slowdown",
    "Crash",
    "RpcDrop",
    "RpcDelay",
    "Partition",
    "RetryPolicy",
    "FaultSchedule",
    "FaultInjector",
    "FaultError",
    "MdsUnavailableError",
    "MdsCrashedError",
    "RpcTimeoutError",
    "RpcDroppedError",
    "RetriesExhaustedError",
    "SCHEDULE_SCHEMA_VERSION",
]
