"""Request-span tracing: decompose each client op's latency, export JSONL.

A :class:`Span` rides along one client operation through the DES and records
where the virtual time went:

* ``queue_ms`` — time spent waiting for an MDS worker slot (Eq. 1's ``Q_i``);
* ``service_ms`` — time the MDS spent executing the request (Eq. 2's RCT);
* ``net_ms`` — network round trips (``m · RTT`` plus gather/forward hops);
* ``fault_wait_ms`` — virtual time lost to injected faults: RPC-timeout
  waits, refused-connection round trips, aborted service holds, and retry
  backoff sleeps (always 0.0 on healthy runs);
* counters — RPCs issued, MDSs visited, cache hits/misses during path
  resolution, kvstore gets and runs probed, fault retries and failovers.

``queue_ms + service_ms + net_ms + fault_wait_ms`` equals the
client-observed latency for every metadata op (asserted within float noise
by the tracing tests, and under arbitrary fault schedules by the property
suite); the ``repro report`` command aggregates exactly this identity.

Spans are passive: recording draws no RNG values and schedules no events, so
a traced run replays bit-identically to an untraced one.  The shared
:data:`NULL_TRACER` makes the disabled hot path one truthiness check.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional

from repro.costmodel.optypes import OpType

__all__ = ["Span", "Tracer", "JsonlTracer", "NULL_TRACER", "SPAN_SCHEMA_VERSION"]

#: bump when span fields change incompatibly (consumers check this)
#: v2: fault fields (fault_wait_ms, retries, failovers, fault reason)
#: v3: durability fields (wal_appends, wal_bytes, wal_ms) — wal_ms is an
#:     informational sub-component of service_ms, not a new identity term
SPAN_SCHEMA_VERSION = 3

_OP_NAMES = {int(v): v.name.lower() for v in OpType}


class Span:
    """Latency decomposition record for one client metadata operation."""

    __slots__ = (
        "op_index",
        "op",
        "worker",
        "dir_ino",
        "depth",
        "primary",
        "start_ms",
        "end_ms",
        "queue_ms",
        "service_ms",
        "net_ms",
        "rpcs",
        "mds_visited",
        "cache_hits",
        "cache_misses",
        "kv_gets",
        "kv_probes",
        "wal_appends",
        "wal_bytes",
        "wal_ms",
        "migration_recalls",
        "fault_wait_ms",
        "retries",
        "failovers",
        "fault",
        "failed",
    )

    def __init__(self, op_index: int, op: int, worker: int, dir_ino: int, depth: int, start_ms: float):
        self.op_index = op_index
        self.op = op
        self.worker = worker
        self.dir_ino = dir_ino
        self.depth = depth
        self.primary = -1
        self.start_ms = start_ms
        self.end_ms = start_ms
        self.queue_ms = 0.0
        self.service_ms = 0.0
        self.net_ms = 0.0
        self.rpcs = 0
        self.mds_visited: List[int] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.kv_gets = 0
        self.kv_probes = 0
        self.wal_appends = 0
        self.wal_bytes = 0
        self.wal_ms = 0.0
        self.migration_recalls = 0
        self.fault_wait_ms = 0.0
        self.retries = 0
        self.failovers = 0
        self.fault = ""
        self.failed = False

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "v": SPAN_SCHEMA_VERSION,
            "op_index": self.op_index,
            "op": _OP_NAMES.get(self.op, str(self.op)),
            "worker": self.worker,
            "dir_ino": self.dir_ino,
            "depth": self.depth,
            "primary": self.primary,
            "start_ms": self.start_ms,
            "latency_ms": self.latency_ms,
            "queue_ms": self.queue_ms,
            "service_ms": self.service_ms,
            "net_ms": self.net_ms,
            "rpcs": self.rpcs,
            "mds_visited": self.mds_visited,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "kv_gets": self.kv_gets,
            "kv_probes": self.kv_probes,
            "wal_appends": self.wal_appends,
            "wal_bytes": self.wal_bytes,
            "wal_ms": self.wal_ms,
            "lease_recalls": self.migration_recalls,
            "fault_wait_ms": self.fault_wait_ms,
            "retries": self.retries,
            "failovers": self.failovers,
            "fault": self.fault,
            "failed": self.failed,
        }


class Tracer:
    """Base tracer: collects finished spans in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.dropped = 0

    def start(self, op_index: int, op: int, worker: int, dir_ino: int, depth: int, now_ms: float) -> Span:
        return Span(op_index, op, worker, dir_ino, depth, now_ms)

    def finish(self, span: Span, now_ms: float) -> None:
        span.end_ms = now_ms
        self.spans.append(span)

    def close(self) -> None:
        pass

    def __bool__(self) -> bool:
        return self.enabled


class JsonlTracer(Tracer):
    """Tracer streaming each finished span as one JSON line.

    ``path=None`` keeps spans in memory only (tests, ``repro report`` on a
    live run).

    ``sample=N`` keeps every Nth finished span (ordinals 0, N, 2N, ...),
    deterministic by span *finish ordinal* — no RNG, so a sampled run stays
    bit-identical in headline metrics.  Sampled-away spans count into
    ``dropped``.  ``sample=1`` (the default) keeps everything.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        retain: Optional[bool] = None,
        sample: int = 1,
    ):
        super().__init__()
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.path = path
        self.sample = int(sample)
        self.retain = retain if retain is not None else path is None
        self._fh: Optional[IO[str]] = open(path, "w") if path else None
        self._ordinal = 0

    def finish(self, span: Span, now_ms: float) -> None:
        span.end_ms = now_ms
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        if ordinal % self.sample:
            self.dropped += 1
            return
        if self._fh is not None:
            self._fh.write(json.dumps(span.to_dict()))
            self._fh.write("\n")
        if self.retain:
            self.spans.append(span)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _NullTracer(Tracer):
    """Disabled tracer: ``if tracer:`` is False, so hot paths skip spans."""

    enabled = False

    def start(self, op_index: int, op: int, worker: int, dir_ino: int, depth: int, now_ms: float) -> Span:
        raise RuntimeError("null tracer cannot start spans (check `if tracer:` first)")

    def finish(self, span: Span, now_ms: float) -> None:
        pass


NULL_TRACER = _NullTracer()
