"""Windowed time-series telemetry: per-MDS and cluster series over virtual time.

The end-of-run counters the registry publishes answer "how much, in total";
this module answers "when".  A :class:`TimelineCollector` slices virtual
time into fixed windows and records, per window:

* per-MDS series — requests served, busy ms, RPCs handled, queue depth at
  the window boundary, WAL appends / fsyncs, modeled durability cost, and
  migrations in/out;
* cluster series — completed ops and latency percentiles (p50/p95/p99),
  DES engine events (the engine-throughput signal ROADMAP item 1 gates),
  cache hit rate, migrations, and the busy-time imbalance factor.

Design constraints, in order:

1. **Passive.**  The collector draws no RNG values and schedules no events,
   so a timeline-enabled run is bit-identical in headline metrics to a
   disabled one (``tests/test_obs_parity.py``).  Window roll-over is driven
   by the DES engine's own clock advance (``Environment.timeline``), never
   by timer events.
2. **O(1) per sample.**  Closed-window series live in preallocated numpy
   arrays that double when full; the open window accumulates into plain
   Python scalars and a bounded list (per-element numpy stores are ~20x
   a scalar add), written back once per window close.  The per-op hot
   path is one float compare (engine), one integer add (server request
   counter), and one list append (latency sample).  When disabled, components
   hold ``None``/:data:`NULL_TIMELINE` and pay a single truthiness check —
   the same null-object discipline as :class:`~repro.obs.registry.
   MetricsRegistry`.
3. **Exact.**  Per-MDS columns are deltas of cumulative run counters, so
   window aggregates telescope: summing any column over all windows equals
   the end-of-run counter bit for bit (asserted by the parity suite).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster.imbalance import imbalance_factor

__all__ = [
    "TimelineCollector",
    "NULL_TIMELINE",
    "TIMELINE_SCHEMA_VERSION",
    "PER_MDS_COLUMNS",
    "CLUSTER_COLUMNS",
]

#: bump when the timeline row layout changes incompatibly
TIMELINE_SCHEMA_VERSION = 1

#: per-MDS columns exported in each row (``mds_<name>`` keys, one list each)
PER_MDS_COLUMNS = (
    "ops",
    "busy_ms",
    "rpcs",
    "queue_depth",
    "wal_appends",
    "fsyncs",
    "wal_ms",
    "migrations_in",
    "migrations_out",
)

#: scalar cluster columns exported in each row
CLUSTER_COLUMNS = (
    "ops",
    "lat_mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "engine_events",
    "cache_hit_rate",
    "migrations",
    "imbalance",
)


class TimelineCollector:
    """Fixed-window telemetry sampler for one simulation run.

    Construct, hand to :class:`~repro.obs.observability.Observability`
    (or let it construct one via ``timeline=True``), and read the windows
    back with :meth:`to_rows` / :meth:`summary` after the run.  ``bind``
    is called by :class:`~repro.fs.filesystem.OrigamiFS` once the cluster
    exists; until then only :meth:`advance`/:meth:`record_op` make sense
    (unit tests use a duck-typed fs).
    """

    enabled = True

    def __init__(
        self,
        window_ms: float = 50.0,
        max_latency_samples: int = 2048,
        initial_windows: int = 256,
    ):
        if not 0.0 < window_ms < math.inf:
            raise ValueError(f"window_ms must be finite and positive, got {window_ms}")
        if max_latency_samples < 1:
            raise ValueError("max_latency_samples must be >= 1")
        if initial_windows < 1:
            raise ValueError("initial_windows must be >= 1")
        self.window_ms = float(window_ms)
        self.max_latency_samples = int(max_latency_samples)
        self._cap = int(initial_windows)
        self._fs: Any = None
        self._n_mds = 0
        #: index of the first window (non-zero on warm restarts)
        self._base_idx = 0
        #: windows fully closed so far (current open window = index _closed)
        self._closed = 0
        self._finalized = False
        self._final_ms: Optional[float] = None
        #: virtual end time of the currently open window (engine fast path)
        self.window_end_ms = self.window_ms

        # cluster columns (grown by doubling)
        self._ops = np.zeros(self._cap, dtype=np.int64)
        self._lat_sum = np.zeros(self._cap, dtype=np.float64)
        self._p50 = np.zeros(self._cap, dtype=np.float64)
        self._p95 = np.zeros(self._cap, dtype=np.float64)
        self._p99 = np.zeros(self._cap, dtype=np.float64)
        self._events = np.zeros(self._cap, dtype=np.int64)
        self._cache_hits = np.zeros(self._cap, dtype=np.int64)
        self._cache_misses = np.zeros(self._cap, dtype=np.int64)
        self._migrations = np.zeros(self._cap, dtype=np.int64)
        self._imb = np.zeros(self._cap, dtype=np.float64)
        self._lat_dropped = np.zeros(self._cap, dtype=np.int64)

        # open-window accumulators: plain Python scalars and a list, because
        # per-element numpy stores cost ~1us each — the arrays are only
        # written once per window, at close
        self._cur_ops = 0
        self._cur_lat_sum = 0.0
        self._cur_migrations = 0
        self._lat_list: List[float] = []
        self._lat_overflow = 0

        # per-MDS columns, allocated at bind time ([window, mds])
        self._mds: Dict[str, np.ndarray] = {}

        # elastic-pool series: active pool size at each window close, only
        # allocated when the bound fs runs an elastic pool (None otherwise so
        # non-elastic exports stay byte-identical)
        self._liveness: Any = None
        self._pool: Optional[np.ndarray] = None

        # previous cumulative snapshots (delta bases)
        self._prev_busy: Optional[np.ndarray] = None
        self._prev_rpcs: Optional[np.ndarray] = None
        self._prev_reqs: Optional[np.ndarray] = None
        self._prev_wal_appends: Optional[np.ndarray] = None
        self._prev_fsyncs: Optional[np.ndarray] = None
        self._prev_wal_ms: Optional[np.ndarray] = None
        self._prev_cache = (0, 0)
        self._prev_events = 0

    # ----------------------------------------------------------------- bind
    def bind(self, fs: Any) -> None:
        """Attach to a live cluster; allocates the per-MDS columns.

        ``fs`` is duck-typed: it needs ``env``, ``servers``, ``cache`` (with
        ``counters()``), and ``migrator``.  On warm restarts the clock is
        already past zero: the first window starts at the current window
        boundary, not at virtual time 0.
        """
        if self._fs is not None:
            raise RuntimeError("timeline collector is already bound")
        self._fs = fs
        self._n_mds = len(fs.servers)
        self._base_idx = int(fs.env.now // self.window_ms)
        self.window_end_ms = (self._base_idx + 1) * self.window_ms
        for name in PER_MDS_COLUMNS:
            dtype = np.float64 if name in ("busy_ms", "wal_ms") else np.int64
            self._mds[name] = np.zeros((self._cap, self._n_mds), dtype=dtype)
        self._prev_busy = np.array([s.total_busy_ms for s in fs.servers])
        self._prev_rpcs = np.array([s.total_rpcs for s in fs.servers], dtype=np.int64)
        self._prev_reqs = np.array([s.total_requests for s in fs.servers], dtype=np.int64)
        self._prev_wal_appends = np.array(
            [self._store_stat(s, "wal_appends") for s in fs.servers], dtype=np.int64
        )
        self._prev_fsyncs = np.array(
            [self._store_stat(s, "fsyncs") for s in fs.servers], dtype=np.int64
        )
        self._prev_wal_ms = np.array([s.durability_ms_total for s in fs.servers])
        self._prev_cache = fs.cache.counters()
        self._prev_events = fs.env.events_processed
        if getattr(fs, "elastic", None) is not None:
            self._liveness = fs.liveness
            self._pool = np.zeros(self._cap, dtype=np.int64)

    @staticmethod
    def _store_stat(server: Any, name: str) -> int:
        store = getattr(server, "store", None)
        if store is None:
            return 0
        return int(getattr(store.stats, name))

    # ----------------------------------------------------------------- grow
    def _grow(self) -> None:
        new_cap = self._cap * 2
        for attr in (
            "_ops", "_lat_sum", "_p50", "_p95", "_p99", "_events",
            "_cache_hits", "_cache_misses", "_migrations", "_imb", "_lat_dropped",
        ):
            old = getattr(self, attr)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: self._cap] = old
            setattr(self, attr, grown)
        for name, old in self._mds.items():
            grown = np.zeros((new_cap, old.shape[1]), dtype=old.dtype)
            grown[: self._cap] = old
            self._mds[name] = grown
        if self._pool is not None:
            grown = np.zeros(new_cap, dtype=np.int64)
            grown[: self._cap] = self._pool
            self._pool = grown
        self._cap = new_cap

    # -------------------------------------------------------------- samples
    def record_op(self, latency_ms: float) -> None:
        """One completed client operation in the open window (O(1))."""
        self._cur_ops += 1
        self._cur_lat_sum += latency_ms
        lat = self._lat_list
        if len(lat) < self.max_latency_samples:
            lat.append(latency_ms)
        else:
            self._lat_overflow += 1

    def record_migration(self, src: int, dst: int, inodes: int) -> None:
        """One applied subtree migration (called by the Migrator)."""
        self._cur_migrations += 1
        if self._n_mds:
            i = self._closed
            self._mds["migrations_out"][i, src] += 1
            self._mds["migrations_in"][i, dst] += 1

    # ------------------------------------------------------------- roll-over
    def advance(self, now: float) -> None:
        """Close windows until ``now`` falls inside the open one.

        Driven by ``Environment.run`` through the ``env.timeline`` hook; an
        idle gap closes a run of empty windows (deltas land in the first)."""
        while now >= self.window_end_ms and not self._finalized:
            self._close(self.window_end_ms)

    def _close(self, end_ms: float) -> None:
        i = self._closed
        if i + 1 >= self._cap:
            self._grow()
        self._ops[i] = self._cur_ops
        self._lat_sum[i] = self._cur_lat_sum
        self._migrations[i] = self._cur_migrations
        # latency percentiles of the window's (deterministic first-N) samples
        lat = self._lat_list
        if lat:
            self._p50[i], self._p95[i], self._p99[i] = np.percentile(
                lat, (50.0, 95.0, 99.0)
            )
        self._lat_dropped[i] = self._lat_overflow
        self._cur_ops = 0
        self._cur_lat_sum = 0.0
        self._cur_migrations = 0
        lat.clear()
        self._lat_overflow = 0

        fs = self._fs
        if fs is not None:
            busy = np.array([s.total_busy_ms for s in fs.servers])
            rpcs = np.array([s.total_rpcs for s in fs.servers], dtype=np.int64)
            reqs = np.array([s.total_requests for s in fs.servers], dtype=np.int64)
            wal_a = np.array(
                [self._store_stat(s, "wal_appends") for s in fs.servers], dtype=np.int64
            )
            fsyncs = np.array(
                [self._store_stat(s, "fsyncs") for s in fs.servers], dtype=np.int64
            )
            wal_ms = np.array([s.durability_ms_total for s in fs.servers])
            m = self._mds
            m["busy_ms"][i] = busy - self._prev_busy
            m["rpcs"][i] = rpcs - self._prev_rpcs
            m["ops"][i] = reqs - self._prev_reqs
            m["wal_appends"][i] = wal_a - self._prev_wal_appends
            m["fsyncs"][i] = fsyncs - self._prev_fsyncs
            m["wal_ms"][i] = wal_ms - self._prev_wal_ms
            m["queue_depth"][i] = [s.resource.queue_len for s in fs.servers]
            self._prev_busy = busy
            self._prev_rpcs = rpcs
            self._prev_reqs = reqs
            self._prev_wal_appends = wal_a
            self._prev_fsyncs = fsyncs
            self._prev_wal_ms = wal_ms
            self._imb[i] = imbalance_factor(m["busy_ms"][i])

            hits, misses = fs.cache.counters()
            self._cache_hits[i] = hits - self._prev_cache[0]
            self._cache_misses[i] = misses - self._prev_cache[1]
            self._prev_cache = (hits, misses)

            events = fs.env.events_processed
            self._events[i] = events - self._prev_events
            self._prev_events = events

            if self._pool is not None:
                self._pool[i] = self._liveness.n_active()

        self._closed = i + 1
        self.window_end_ms = end_ms + self.window_ms

    def finalize(self, now: float) -> None:
        """Close the trailing (possibly partial) window at virtual ``now``.

        Idempotent; called once by ``Observability.finalize`` at end of run.
        """
        if self._finalized:
            return
        self.advance(now)
        start = (self._base_idx + self._closed) * self.window_ms
        pending = bool(self._cur_ops or self._cur_migrations)
        if self._fs is not None:
            pending = pending or self._fs.env.events_processed != self._prev_events
        if now > start or pending:
            self._close(max(now, start))
            self._final_ms = max(now, start)
        self._finalized = True

    # -------------------------------------------------------------- reading
    @property
    def n_windows(self) -> int:
        return self._closed

    def _window_bounds(self, i: int) -> tuple:
        start = (self._base_idx + i) * self.window_ms
        end = start + self.window_ms
        if i == self._closed - 1 and self._final_ms is not None:
            end = max(self._final_ms, start)
        return start, end

    def to_rows(self) -> List[Dict[str, Any]]:
        """One JSON-ready dict per closed window (the JSONL row format)."""
        rows: List[Dict[str, Any]] = []
        for i in range(self._closed):
            start, end = self._window_bounds(i)
            dur_s = max(end - start, 1e-9) / 1000.0
            ops = int(self._ops[i])
            row: Dict[str, Any] = {
                "w": self._base_idx + i,
                "start_ms": start,
                "end_ms": end,
                "ops": ops,
                "ops_per_sec": ops / dur_s,
                "lat_mean_ms": float(self._lat_sum[i]) / ops if ops else 0.0,
                "p50_ms": float(self._p50[i]),
                "p95_ms": float(self._p95[i]),
                "p99_ms": float(self._p99[i]),
                "lat_samples": min(ops, self.max_latency_samples),
                "lat_dropped": int(self._lat_dropped[i]),
                "engine_events": int(self._events[i]),
                "events_per_sec": int(self._events[i]) / dur_s,
                "migrations": int(self._migrations[i]),
                "imbalance": float(self._imb[i]),
            }
            hits = int(self._cache_hits[i])
            total = hits + int(self._cache_misses[i])
            row["cache_hit_rate"] = hits / total if total else 0.0
            for name in PER_MDS_COLUMNS:
                col = self._mds.get(name)
                if col is not None:
                    row[f"mds_{name}"] = col[i].tolist()
            if self._pool is not None:
                row["pool_size"] = int(self._pool[i])
            rows.append(row)
        return rows

    def meta(self) -> Dict[str, Any]:
        """The JSONL header line (schema + run geometry).

        The ``elastic`` key appears only for elastic-pool runs: pre-elastic
        exports (and their golden hashes) keep the exact historical key set.
        """
        d = {
            "schema": TIMELINE_SCHEMA_VERSION,
            "kind": "timeline",
            "window_ms": self.window_ms,
            "n_mds": self._n_mds,
            "n_windows": self._closed,
        }
        if self._pool is not None:
            d["elastic"] = True
        return d

    def summary(self) -> Dict[str, float]:
        """Scalar roll-up carried in ``SimResult`` and bench artifacts.

        Every value is a pure function of the deterministic window series,
        so it is safe inside byte-identical artifacts.
        """
        n = self._closed
        if n == 0:
            return {"windows": 0.0, "window_ms": self.window_ms}
        total_ops = int(self._ops[:n].sum())
        total_events = int(self._events[:n].sum())
        span_ms = 0.0
        peak_ops_s = 0.0
        for i in range(n):
            start, end = self._window_bounds(i)
            dur_s = max(end - start, 1e-9) / 1000.0
            span_ms += end - start
            peak_ops_s = max(peak_ops_s, int(self._ops[i]) / dur_s)
        span_s = max(span_ms, 1e-9) / 1000.0
        out = {
            "windows": float(n),
            "window_ms": self.window_ms,
            "total_ops": float(total_ops),
            "peak_ops_per_sec": peak_ops_s,
            "worst_p99_ms": float(self._p99[:n].max()),
            "mean_imbalance": float(self._imb[:n].mean()),
            "engine_events": float(total_events),
            "events_per_virtual_sec": total_events / span_s,
        }
        if self._pool is not None:
            pool = self._pool[:n]
            out["pool_mean"] = float(pool.mean())
            out["pool_peak"] = float(pool.max())
            out["pool_min"] = float(pool.min())
        return out


class _NullTimeline:
    """Disabled timeline: components hold this (or ``None``) and skip work."""

    enabled = False
    window_ms = 0.0
    window_end_ms = float("inf")

    def bind(self, fs: Any) -> None:
        pass

    def advance(self, now: float) -> None:
        pass

    def record_op(self, latency_ms: float) -> None:
        pass

    def record_migration(self, src: int, dst: int, inodes: int) -> None:
        pass

    def finalize(self, now: float) -> None:
        pass

    @property
    def n_windows(self) -> int:
        return 0

    def to_rows(self) -> List[Dict[str, Any]]:
        return []

    def summary(self) -> Dict[str, float]:
        return {}


#: the shared disabled collector — the implicit default everywhere
NULL_TIMELINE = _NullTimeline()
