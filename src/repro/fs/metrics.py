"""Measurement plumbing for the DES: per-epoch and whole-run metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.imbalance import ImbalanceReport

__all__ = ["EpochMetrics", "SimResult", "LatencyRecorder"]


@dataclass
class EpochMetrics:
    """What each MDS did during one epoch (Fig. 6 and Fig. 7 inputs)."""

    epoch: int
    #: actual virtual duration of the epoch (>= the nominal epoch_ms when
    #: migrations stretched it; the Migrator runs inside the driver loop)
    duration_ms: float
    #: virtual ms each MDS spent servicing metadata work this epoch
    busy_ms: np.ndarray
    #: requests whose primary MDS was this MDS
    qps: np.ndarray
    #: RPC messages handled (resolution hops, gathers, forwards)
    rpcs: np.ndarray
    #: metadata entries stored per MDS at the epoch boundary
    inodes: np.ndarray
    #: migrations applied at this epoch boundary
    migrations: int = 0

    def to_dict(self) -> Dict:
        """JSON-ready form (arrays become lists)."""
        return {
            "epoch": self.epoch,
            "duration_ms": self.duration_ms,
            "busy_ms": self.busy_ms.tolist(),
            "qps": self.qps.tolist(),
            "rpcs": self.rpcs.tolist(),
            "inodes": self.inodes.tolist(),
            "migrations": self.migrations,
        }


class LatencyRecorder:
    """Streaming latency statistics without keeping every sample.

    Keeps a bounded reservoir for percentiles plus exact count/mean.
    """

    #: reservoir slots drawn per RNG round-trip once the reservoir is full
    _BLOCK = 4096

    def __init__(self, reservoir: int = 20000, seed: int = 0):
        self._res = np.empty(reservoir, dtype=np.float64)
        self._cap = reservoir
        self.count = 0
        self.total = 0.0
        self._rng = np.random.default_rng(seed)
        self._randint = self._rng.integers  # bound-method hoist (hot path)
        # pre-drawn replacement slots: numpy's bounded-integer draw consumes
        # the bitstream identically element-wise whether called per scalar or
        # with a vector of bounds, so drawing a block of slots for counts
        # [c, c+B) yields exactly the per-sample sequence — at a fraction of
        # the per-call cost
        self._slots: list = []
        self._slot_i = 0

    def record(self, latency_ms: float) -> None:
        count = self.count
        if count < self._cap:
            self._res[count] = latency_ms
        else:
            i = self._slot_i
            slots = self._slots
            if i >= len(slots):
                block = self._BLOCK
                slots = self._slots = self._randint(
                    0, np.arange(count + 1, count + 1 + block)
                ).tolist()
                i = 0
            j = slots[i]
            self._slot_i = i + 1
            if j < self._cap:
                self._res[j] = latency_ms
        self.count = count + 1
        self.total += latency_ms

    def state(self) -> Dict:
        """Count, total, reservoir and RNG position, JSON-ready."""
        return {
            "count": self.count,
            "total": self.total,
            "reservoir": self._res[: min(self.count, self._cap)].tolist(),
            "rng": self._rng.bit_generator.state,
            # slots are pre-drawn in blocks, so the RNG runs ahead of
            # consumption: without the unconsumed tail a restored recorder
            # would skip those draws
            "pending_slots": self._slots[self._slot_i :],
        }

    def restore(self, state: Dict) -> None:
        """Continue from a :meth:`state` snapshot."""
        samples = np.asarray(state["reservoir"], dtype=np.float64)
        n = min(samples.shape[0], self._cap)
        self._res[:n] = samples[:n]
        self.count = int(state["count"])
        self.total = float(state["total"])
        self._rng.bit_generator.state = state["rng"]
        # absent from snapshots taken before slots were drawn in blocks: a
        # block draw is element-wise the scalar draws, so an empty queue
        # continues the same slot sequence
        self._slots = [int(s) for s in state.get("pending_slots", [])]
        self._slot_i = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        n = min(self.count, self._cap)
        if n == 0:
            return 0.0
        return float(np.percentile(self._res[:n], q))


@dataclass
class SimResult:
    """Everything a run of :func:`repro.fs.filesystem.run_simulation` yields."""

    strategy: str
    n_mds: int
    #: epoch length used by the run (ms); needed for per-epoch rates
    epoch_ms: float
    #: metadata operations completed
    ops_completed: int
    #: virtual milliseconds the run covered
    duration_ms: float
    #: client-observed mean metadata latency (ms)
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    #: total RPC messages sent / per completed request
    total_rpcs: int
    per_epoch: List[EpochMetrics] = field(default_factory=list)
    #: total migrations and inodes moved
    migrations: int = 0
    inodes_migrated: int = 0
    #: operations that failed best-effort semantics (races during replay)
    failed_ops: int = 0
    #: failed_ops sub-counts: target directory vanished under a concurrent
    #: mutation / retry budget exhausted against a faulty cluster
    vanished_ops: int = 0
    fault_failed_ops: int = 0
    cache_hit_rate: float = 0.0
    #: end-to-end file throughput when the data path is active (ops/s)
    data_ops_completed: int = 0
    #: events processed by the DES kernel (diagnostics)
    engine_events: int = 0
    #: aggregated LSM StoreStats across MDSs (None when kvstore is off):
    #: raw counters plus read/write amplification and total run count
    kvstore: Optional[Dict[str, float]] = None
    #: flat FaultInjector.summary() counters (None when no faults installed)
    faults: Optional[Dict[str, float]] = None
    #: wall-clock seconds the DES event loop ran (simulator speed, not a
    #: model output; volatile — excluded from determinism comparisons)
    wall_s: float = 0.0
    #: TimelineCollector.summary() when simulate ran with a timeline (None
    #: otherwise); deterministic scalars only
    timeline: Optional[Dict[str, float]] = None
    #: MDSPoolController.summary() when an elastic pool was active (None
    #: otherwise).  Unlike kvstore/faults/timeline this key is *omitted*
    #: from to_dict() when absent: pre-elastic golden baselines pin the
    #: exact key set, and autoscaling-off runs must stay bit-identical
    elastic: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict:
        """Full JSON-ready serialisation, including the per-epoch arrays."""
        d = {
            "strategy": self.strategy,
            "n_mds": self.n_mds,
            "epoch_ms": self.epoch_ms,
            "ops_completed": self.ops_completed,
            "duration_ms": self.duration_ms,
            "mean_latency_ms": self.mean_latency_ms,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "total_rpcs": self.total_rpcs,
            "rpcs_per_request": self.rpcs_per_request,
            "throughput_ops_per_sec": self.throughput_ops_per_sec,
            "steady_state_throughput": self.steady_state_throughput(),
            "migrations": self.migrations,
            "inodes_migrated": self.inodes_migrated,
            "failed_ops": self.failed_ops,
            "vanished_ops": self.vanished_ops,
            "fault_failed_ops": self.fault_failed_ops,
            "cache_hit_rate": self.cache_hit_rate,
            "data_ops_completed": self.data_ops_completed,
            "engine_events": self.engine_events,
            "engine_events_per_virtual_sec": self.engine_events_per_virtual_sec,
            # wall_s / engine_events_per_wall_sec are deliberately absent:
            # to_dict() must be bit-identical across machines and runs
            "kvstore": self.kvstore,
            "faults": self.faults,
            "timeline": self.timeline,
            "per_epoch": [e.to_dict() for e in self.per_epoch],
        }
        if self.elastic is not None:
            d["elastic"] = self.elastic
        return d

    @property
    def throughput_ops_per_sec(self) -> float:
        """Aggregated metadata throughput over the whole run (ops / virtual s)."""
        if self.duration_ms <= 0:
            return 0.0
        return self.ops_completed / (self.duration_ms / 1000.0)

    @property
    def end_to_end_throughput(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.data_ops_completed / (self.duration_ms / 1000.0)

    @property
    def rpcs_per_request(self) -> float:
        return self.total_rpcs / self.ops_completed if self.ops_completed else 0.0

    @property
    def engine_events_per_virtual_sec(self) -> float:
        """DES events per *virtual* second — deterministic engine-load signal."""
        if self.duration_ms <= 0:
            return 0.0
        return self.engine_events / (self.duration_ms / 1000.0)

    @property
    def engine_events_per_wall_sec(self) -> float:
        """DES events per *wall-clock* second — simulator speed (volatile)."""
        if self.wall_s <= 0:
            return 0.0
        return self.engine_events / self.wall_s

    def steady_state_throughput(self, skip_fraction: float = 0.3) -> float:
        """Aggregated metadata throughput *post-rebalancing* (ops / virtual s).

        The paper measures average throughput after the balancing mechanism
        has acted (§5.2); the first ``skip_fraction`` of epochs (the
        all-on-MDS-0 warmup for subtree strategies) is excluded.  The last
        (possibly partial) epoch is excluded too.
        """
        if len(self.per_epoch) <= 2:
            return self.throughput_ops_per_sec
        full = self.per_epoch[:-1]  # drop the trailing partial epoch
        skip = min(int(len(full) * skip_fraction), len(full) - 1)
        tail = full[skip:]
        ops = sum(float(e.qps.sum()) for e in tail)
        span_ms = sum(e.duration_ms for e in tail)
        if span_ms <= 0:
            return 0.0
        return ops / (span_ms / 1000.0)

    # ------------------------------------------------------- aggregate views
    def _stack(self, attr: str) -> np.ndarray:
        if not self.per_epoch:
            return np.zeros((0, self.n_mds))
        return np.stack([getattr(e, attr) for e in self.per_epoch])

    def total_busy_per_mds(self) -> np.ndarray:
        return self._stack("busy_ms").sum(axis=0)

    def total_qps_per_mds(self) -> np.ndarray:
        return self._stack("qps").sum(axis=0)

    def total_rpcs_per_mds(self) -> np.ndarray:
        return self._stack("rpcs").sum(axis=0)

    def final_inodes_per_mds(self) -> np.ndarray:
        if not self.per_epoch:
            return np.zeros(self.n_mds)
        return self.per_epoch[-1].inodes

    def imbalance(self) -> ImbalanceReport:
        """Fig. 6's four imbalance factors, aggregated over the run."""
        return ImbalanceReport.from_loads(
            qps=self.total_qps_per_mds(),
            rpcs=self.total_rpcs_per_mds(),
            inodes=self.final_inodes_per_mds(),
            busytime=self.total_busy_per_mds(),
        )

    def efficiency_series(self) -> np.ndarray:
        """Fig. 7's efficiency: mean fraction of each epoch MDSs spent busy."""
        if not self.per_epoch:
            return np.zeros(0)
        return np.array(
            [
                float(e.busy_ms.mean()) / e.duration_ms if e.duration_ms > 0 else 0.0
                for e in self.per_epoch
            ]
        )
