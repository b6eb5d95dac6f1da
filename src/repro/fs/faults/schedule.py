"""Declarative fault schedules: what goes wrong, where, and when.

A :class:`FaultSchedule` is a plain list of window-scoped fault events plus
the client-side :class:`RetryPolicy`, read from JSON by the strict spec
loader (:mod:`repro.specs`) so a whole resilience experiment is one
``simulate --faults schedule.json`` flag.  The schedule is *pure data*:
every query (``partitioned``, ``slowdown_factor``, …) is a function of
``(mds, now)`` only, which is what keeps fault runs deterministic — the
only RNG the fault layer touches are the dedicated seeded streams the
injector owns (drop coin flips, backoff jitter).

The queries run on every hold and every RPC of a faulted run, so the
schedule indexes its events by (kind, MDS) when it is built, and each query
reads only that MDS's events of its kind, in schedule order.
:meth:`FaultSchedule.network_clear` answers the common case of the
injector's RPC gate, an MDS with none of its partition, drop or delay
windows open, from the same index.

Event kinds
-----------

* :class:`Slowdown` — service times on one MDS multiplied by ``factor``;
* :class:`Crash` — the MDS is down for the window: in-flight requests are
  aborted, its queue drains by failing, and after restart it serves at
  ``warmup_factor``x for ``warmup_ms`` (cold caches);
* :class:`RpcDrop` — each RPC to the MDS is dropped with ``probability``
  (the client waits out its RPC timeout before retrying);
* :class:`RpcDelay` — each RPC to the MDS pays ``extra_ms`` on top of the
  normal round trip;
* :class:`Partition` — the MDS is unreachable (every RPC times out) while
  the server itself keeps running — the classic "it's not dead, you just
  can't talk to it" failure a load-driven balancer cannot see directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.specs import FLOAT_MAX, SPEC_VERSION, build_spec, read_json

__all__ = [
    "FaultEvent",
    "Slowdown",
    "Crash",
    "RpcDrop",
    "RpcDelay",
    "Partition",
    "RetryPolicy",
    "FaultSchedule",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base event: something bad happens to ``mds`` in ``[start_ms, end_ms)``."""

    #: the event's JSON ``"kind"``
    kind: ClassVar[str]

    mds: int
    start_ms: float
    end_ms: float = field(metadata={"inf": True})

    def __post_init__(self):
        if type(self.mds) is not int or self.mds < 0:
            raise ValueError(f"mds must be a non-negative integer, got {self.mds!r}")
        if not 0 <= self.start_ms <= FLOAT_MAX:
            raise ValueError(f"start_ms must be finite and non-negative, got {self.start_ms!r}")
        if not (self.start_ms < self.end_ms <= FLOAT_MAX or self.end_ms == math.inf):
            raise ValueError(f"end_ms must be finite or inf and after start_ms, got {self.end_ms!r}")

    def active(self, now: float) -> bool:
        return self.start_ms <= now < self.end_ms

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = "inf" if isinstance(v, float) and math.isinf(v) else v
        return d


@dataclass(frozen=True)
class Slowdown(FaultEvent):
    """Degrade ``mds`` by ``factor``x between ``start_ms`` and ``end_ms``."""

    kind: ClassVar[str] = "slowdown"
    factor: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 1.0 <= self.factor <= FLOAT_MAX:
            raise ValueError(f"factor must be finite and >= 1 (a slowdown), got {self.factor!r}")


@dataclass(frozen=True)
class Crash(FaultEvent):
    """``mds`` is down for the window; ``end_ms=inf`` means no restart.

    After restart the server runs at ``warmup_factor``x service times for
    ``warmup_ms`` (journal replay, cold caches) before returning to full
    speed; on a durable run the window lasts the modelled recovery time
    instead.  The injector arms the window on the server at the restart.
    """

    kind: ClassVar[str] = "crash"
    warmup_ms: float = 0.0
    warmup_factor: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.warmup_ms <= FLOAT_MAX:
            raise ValueError(f"warmup_ms must be finite and non-negative, got {self.warmup_ms!r}")
        if not 1.0 <= self.warmup_factor <= FLOAT_MAX:
            raise ValueError(f"warmup_factor must be finite and >= 1, got {self.warmup_factor!r}")

    @property
    def restarts(self) -> bool:
        return not math.isinf(self.end_ms)


@dataclass(frozen=True)
class RpcDrop(FaultEvent):
    """Drop each RPC to ``mds`` with ``probability`` during the window."""

    kind: ClassVar[str] = "rpc_drop"
    probability: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


@dataclass(frozen=True)
class RpcDelay(FaultEvent):
    """Add ``extra_ms`` to every RPC round trip to ``mds`` in the window."""

    kind: ClassVar[str] = "rpc_delay"
    extra_ms: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.extra_ms <= FLOAT_MAX:
            raise ValueError(f"extra_ms must be finite and positive, got {self.extra_ms!r}")


@dataclass(frozen=True)
class Partition(FaultEvent):
    """``mds`` is unreachable over the network for the window."""

    kind: ClassVar[str] = "partition"


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side robustness knobs: per-RPC timeout + bounded backoff.

    Backoff for attempt ``k`` (1-based) is
    ``min(base * 2**(k-1), max) * (1 + jitter * u)`` with ``u`` drawn from
    the injector's seeded retry stream — deterministic given the run seed.
    """

    #: how long a client waits on an unanswered RPC before declaring it lost
    rpc_timeout_ms: float = 5.0
    #: first-retry backoff
    backoff_base_ms: float = 0.25
    #: exponential backoff cap
    backoff_max_ms: float = 4.0
    #: attempts per op before surfacing a typed failure (1 = no retries)
    max_attempts: int = 8
    #: jitter fraction on top of the deterministic backoff
    jitter: float = 0.5

    def __post_init__(self):
        if not 0 < self.rpc_timeout_ms <= FLOAT_MAX:
            raise ValueError("rpc_timeout_ms must be finite and positive")
        if not 0 <= self.backoff_base_ms <= self.backoff_max_ms <= FLOAT_MAX:
            raise ValueError("need 0 <= backoff_base_ms <= backoff_max_ms, both finite")
        if type(self.max_attempts) is not int or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be an integer >= 1, got {self.max_attempts!r}")
        if not 0 <= self.jitter <= FLOAT_MAX:
            raise ValueError("jitter must be finite and non-negative")

    def backoff_ms(self, attempt: int, u: float) -> float:
        """Wait before retry number ``attempt`` (1-based); ``u`` in [0, 1).

        The doubling stops at ``2**1023`` (the largest power of two a float
        holds), long after the cap has taken over."""
        raw = self.backoff_base_ms * (2.0 ** min(attempt - 1, 1023))
        return min(raw, self.backoff_max_ms) * (1.0 + self.jitter * u)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class _ScheduleFile:
    """A schedule's JSON form, as :meth:`FaultSchedule.to_dict` writes it."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: Tuple[Union[Slowdown, Crash, RpcDrop, RpcDelay, Partition], ...] = ()


#: the event kinds the queries read, each indexed per MDS
_QUERIED = (Slowdown, Partition, RpcDrop, RpcDelay)
#: the kinds that act on an RPC's network leg
_NETWORK = (Partition, RpcDrop, RpcDelay)


class FaultSchedule:
    """An ordered set of fault events plus the client retry policy.

    ``events`` is fixed at construction: the per-MDS index the queries read
    is built from it then."""

    def __init__(self, events: Sequence[FaultEvent] = (), retry: Optional[RetryPolicy] = None):
        self.events: List[FaultEvent] = sorted(events, key=lambda e: (e.start_ms, e.mds))
        self.retry = retry if retry is not None else RetryPolicy()
        index: Dict[Tuple[type, int], List[FaultEvent]] = {}
        network: Dict[int, List[FaultEvent]] = {}
        for e in self.events:
            for kind in _QUERIED:
                if isinstance(e, kind):
                    index.setdefault((kind, e.mds), []).append(e)
            if isinstance(e, _NETWORK):
                network.setdefault(e.mds, []).append(e)
        #: (kind, mds) -> that MDS's events of that kind, in schedule order
        self._index = {key: tuple(evs) for key, evs in index.items()}
        #: mds -> its partition, drop and delay events, in schedule order
        self._network = {mds: tuple(evs) for mds, evs in network.items()}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events and self.retry == other.retry

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for e in self.events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        return f"FaultSchedule({kinds or 'empty'})"

    # ---------------------------------------------------------------- checks
    def validate(self, n_mds: int) -> None:
        """Raise ValueError if any event targets an MDS outside ``[0, n_mds)``."""
        for e in self.events:
            if not 0 <= e.mds < n_mds:
                raise ValueError(f"{e.kind} targets unknown MDS {e.mds} (cluster has {n_mds})")
        down = [e for e in self.events if isinstance(e, Crash)]
        for t in (e.start_ms for e in down):
            # a schedule that crashes every MDS at once has no live server to
            # fail over to; reject it early instead of deadlocking the run
            if len({e.mds for e in down if e.active(t)}) >= n_mds:
                raise ValueError("schedule crashes every MDS simultaneously")

    # --------------------------------------------------------------- queries
    def slowdown_factor(self, mds: int, now: float) -> float:
        """Service-time multiplier of the worst active slowdown on ``mds``.

        A restart's warm-up is not a schedule query: the injector arms it on
        the server (``MdsServer.warm_until``/``warm_factor``) at the restart
        edge, and :meth:`~repro.fs.server.MdsServer.admit` takes the larger
        of the two factors."""
        f = 1.0
        for e in self._index.get((Slowdown, mds), ()):
            if e.start_ms <= now < e.end_ms and e.factor > f:
                f = e.factor
        return f

    def partitioned(self, mds: int, now: float) -> bool:
        for e in self._index.get((Partition, mds), ()):
            if e.start_ms <= now < e.end_ms:
                return True
        return False

    def drop_probability(self, mds: int, now: float) -> float:
        p = 0.0
        for e in self._index.get((RpcDrop, mds), ()):
            if e.start_ms <= now < e.end_ms and e.probability > p:
                p = e.probability
        return p

    def extra_delay_ms(self, mds: int, now: float) -> float:
        return sum(
            e.extra_ms for e in self._index.get((RpcDelay, mds), ()) if e.start_ms <= now < e.end_ms
        )

    def network_clear(self, mds: int, now: float) -> bool:
        """True when none of the partition, drop or delay windows of ``mds``
        covers ``now``: an RPC to it then goes through unimpeded if the
        server is up."""
        for e in self._network.get(mds, ()):
            if e.start_ms <= now < e.end_ms:
                return False
        return True

    def crash_edges(self) -> List[Tuple[float, str, Crash]]:
        """Chronological ``(time, "crash"|"restart", event)`` control points."""
        edges: List[Tuple[float, str, Crash]] = []
        for e in self.events:
            if not isinstance(e, Crash):
                continue
            edges.append((e.start_ms, "crash", e))
            if e.restarts:
                edges.append((e.end_ms, "restart", e))
        edges.sort(key=lambda t: (t[0], t[1] == "crash", t[2].mds))
        return edges

    # ----------------------------------------------------------- persistence
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "retry": self.retry.to_dict(),
            "faults": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "FaultSchedule":
        """Read a schedule; a malformed one raises ValueError naming the key."""
        spec = build_spec(_ScheduleFile, data, version_key="version")
        return cls(spec.faults, retry=spec.retry)

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        return cls.from_dict(read_json(path))
