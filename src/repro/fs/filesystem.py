"""OrigamiFS assembly: configuration, the cluster object, and ``run_simulation``.

A run wires together: the namespace tree, a trace, a balancing policy, the
MDS servers, client workers, the near-root cache, the Data Collector
(:class:`~repro.namespace.stats.AccessStats`), the Migrator, and the epoch
driver — then advances virtual time until the trace is fully replayed.

Time scale: epochs default to 250 ms of virtual time.  The paper uses 10 s
epochs against a ~20k ops/s cluster; the cost model's absolute scale makes a
250 ms epoch carry a few thousand operations, preserving the
ops-per-epoch ratio the balancer reacts to while keeping runs fast (the
compression is documented in DESIGN.md).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.balancers.base import BalancePolicy
from repro.costmodel.optypes import OpType
from repro.fs.elastic.controller import MDSPoolController
from repro.fs.elastic.liveness import MDSLiveness
from repro.costmodel.params import CostParams
from repro.fs.cache import LeaseCache, NearRootCache
from repro.fs.client import ClientWorker, run_state
from repro.fs.datapath import DataCluster
from repro.fs.driver import EpochDriver
from repro.fs.faults.injector import FaultInjector
from repro.fs.faults.schedule import FaultSchedule
from repro.fs.metrics import LatencyRecorder, SimResult
from repro.fs.migrator import Migrator
from repro.fs.server import MdsServer
from repro.namespace.stats import AccessStats
from repro.namespace.tree import NamespaceTree
from repro.obs import NULL_OBS, Observability
from repro.sim import DurabilityCostModel, Environment, SeedSequenceFactory
from repro.workloads.trace import Trace

__all__ = ["SimConfig", "OrigamiFS", "run_simulation"]


@dataclass
class SimConfig:
    """Knobs for one simulation run (defaults = the paper's §5.1 setup)."""

    n_mds: int = 5
    n_clients: int = 50
    epoch_ms: float = 250.0
    params: CostParams = field(default_factory=lambda: CostParams(cache_depth=3))
    seed: int = 0
    #: store inodes in per-MDS LSM stores and move them on migration
    use_kvstore: bool = False
    migration_cost_per_inode_ms: float = 0.002
    service_concurrency: int = 1
    #: lognormal-ish RTT jitter fraction (0 = deterministic network)
    rtt_jitter: float = 0.0
    #: client cache design: "near-root" (the paper's, driven by
    #: params.cache_depth), "lease" (full TTL-lease cache — the alternative
    #: the paper rejects; DES-only), or "none"
    cache_mode: str = "near-root"
    lease_ttl_ms: float = 50.0
    lease_recall_cost_ms: float = 0.05
    #: how many upcoming ops the oracle policy may see
    oracle_window_ops: int = 5000
    #: attach a data cluster (kwargs for DataCluster) for end-to-end runs
    datapath: Optional[Dict] = None
    #: observability bundle (metrics registry + tracer + balancer audit);
    #: None means the shared all-disabled bundle — zero overhead, identical
    #: behaviour (asserted by tests/test_obs_parity.py)
    obs: Optional[Observability] = None
    #: declarative fault schedule (crashes, slowdowns, drops, partitions);
    #: None — and an *empty* schedule — are bit-identical to a healthy run
    #: (asserted by tests/test_fs_parity.py)
    faults: Optional[FaultSchedule] = None
    #: root directory for durable per-MDS stores (WAL + SSTables + MANIFEST);
    #: setting it turns on use_kvstore and the durability cost model, and
    #: makes crash/restart pay real recovery work instead of fixed warm-up
    data_dir: Optional[str] = None
    #: durability latency prices; defaulted when data_dir is set
    durability: Optional[DurabilityCostModel] = None
    #: elastic-pool spec (repro.fs.elastic.AutoscaleSpec); None (the
    #: default) keeps the historical fixed pool, bit-identically.  When set,
    #: ``n_mds`` is the *initial* pool size and the cluster is provisioned
    #: at ``autoscale.max_mds`` capacity with the surplus parked
    autoscale: Optional[object] = None

    def __post_init__(self):
        if self.n_mds < 1 or self.n_clients < 1:
            raise ValueError("need at least one MDS and one client")
        if self.autoscale is not None:
            self.autoscale.validate(self.n_mds)
        if self.epoch_ms <= 0:
            raise ValueError("epoch_ms must be positive")
        if self.cache_mode not in ("near-root", "lease", "none"):
            raise ValueError(f"unknown cache_mode {self.cache_mode!r}")
        if self.durability is not None and self.data_dir is None:
            raise ValueError("durability cost model requires data_dir")
        if self.data_dir is not None:
            self.use_kvstore = True
            if self.durability is None:
                self.durability = DurabilityCostModel()


class OrigamiFS:
    """A live simulated metadata cluster."""

    #: ops that touch file bodies when the data path is on
    DATA_OPS = frozenset({int(OpType.OPEN), int(OpType.CREATE)})

    def __init__(
        self,
        tree: NamespaceTree,
        trace: Trace,
        policy: BalancePolicy,
        config: Optional[SimConfig] = None,
        restore_from=None,
    ):
        #: SimCheckpoint being warm-restarted (None for a fresh run).  Built
        #: via Checkpointer.restore(); the hooks run at fixed points below so
        #: ordering holds: owners land before store population, the clock
        #: warps onto the still-empty calendar before the fault injector
        #: schedules its timeline.
        self.config = config or SimConfig()
        self.tree = tree
        self.trace = trace
        self.policy = policy
        self.params = self.config.params
        self.env = Environment()
        ssf = SeedSequenceFactory(self.config.seed)
        self._ssf = ssf  # retained so the Checkpointer can snapshot streams
        self.rng = ssf.stream("fs")
        self._net_rng = ssf.stream("network")

        self.obs = self.config.obs if self.config.obs is not None else NULL_OBS
        #: live per-op metrics children (no-op singletons when metrics off)
        self.m_ops = self.obs.registry.counter("client_ops_total", "metadata ops completed")
        self.m_latency = self.obs.registry.histogram(
            "client_latency_ms", "client-observed metadata latency (ms)"
        )

        #: pool capacity: with an elastic pool the cluster is provisioned at
        #: ``autoscale.max_mds`` (servers + partition-map width) and members
        #: beyond ``n_mds`` start parked; without one this is just ``n_mds``
        autoscale = self.config.autoscale
        self.pool_capacity = (
            self.config.n_mds if autoscale is None else autoscale.max_mds
        )
        self.pmap = policy.setup(tree, self.pool_capacity, ssf.stream("policy"))
        if restore_from is not None:
            restore_from.apply_partition(self)
        if autoscale is not None:
            owners = self.pmap.owner_array()
            owners = owners[owners >= 0]
            if self.pmap.placement is not None or (
                owners.size and int(owners.max()) >= self.config.n_mds
            ):
                raise ValueError(
                    "autoscaling requires a subtree-placement policy whose "
                    "initial partition fits on the initially active MDSs "
                    f"(0..{self.config.n_mds - 1}); hash placements pin "
                    "directories across the whole pool and cannot drain"
                )
        self.use_kvstore = self.config.use_kvstore
        self.durability = self.config.durability
        self.servers = [
            MdsServer(
                self.env,
                i,
                service_concurrency=self.config.service_concurrency,
                use_kvstore=self.use_kvstore,
                registry=self.obs.registry,
                data_dir=(
                    os.path.join(self.config.data_dir, f"mds-{i}")
                    if self.config.data_dir is not None
                    else None
                ),
                durability=self.durability,
            )
            for i in range(self.pool_capacity)
        ]
        #: combined voluntary + involuntary membership view (always present;
        #: with no elastic pool every member is UP and the view reduces to
        #: the servers' crash flags)
        self.liveness = MDSLiveness(self.servers, n_active=self.config.n_mds)
        if self.use_kvstore:
            if restore_from is not None and self.config.data_dir is not None:
                # durable warm restart: the reopened stores already replayed
                # their WAL tails — the disk copy is authoritative, so the
                # in-memory population pass must not run (it would re-log
                # every live entry)
                pass
            else:
                self._populate_stores()
            if self.config.data_dir is not None:
                # setup population is not charged: flush it into SSTables and
                # drop the accrued WAL cost so the run starts from a clean,
                # checkpointed data directory
                for s in self.servers:
                    s.store.flush()
                    s.store.sync()
                    s.take_durability_cost()
                    s.durability_ms_total = 0.0
        if self.config.cache_mode == "lease":
            self.cache = LeaseCache(
                tree,
                ttl_ms=self.config.lease_ttl_ms,
                recall_cost_ms=self.config.lease_recall_cost_ms,
            )
        elif self.config.cache_mode == "none":
            self.cache = NearRootCache(tree, 0)
        else:
            self.cache = NearRootCache(tree, self.params.cache_depth)
        self.stats = AccessStats(tree)
        self.migrator = Migrator(self, self.config.migration_cost_per_inode_ms)
        self.latency = LatencyRecorder(seed=self.config.seed)
        self.datapath = (
            DataCluster(self.env, **self.config.datapath)
            if self.config.datapath is not None
            else None
        )

        # ---- hot-path acceleration state (pure caches, never results) ----
        #: trace columns as plain Python lists: per-op reads skip numpy
        #: scalar boxing (one box + int() per field per op otherwise)
        self._ops = trace.op.tolist()
        self._dir_inos = trace.dir_ino.tolist()
        self._aux = trace.aux.tolist()
        self._op_names = trace.names
        #: per-op client think time (offered-load shaping); None — the
        #: overwhelmingly common case — keeps the client loop unchanged
        self._think = trace.think_ms.tolist() if trace.think_ms is not None else None
        #: compiled client plans keyed ``dir_ino << 1 | lsdir?``, shared by
        #: every worker and flushed whenever the stamp (pmap.dir_version,
        #: tree.version) moves — see ClientWorker._plan for the validity
        #: argument
        self._plan_cache: Dict[int, tuple] = {}
        self._plan_dv = -1
        self._plan_tv = -1

        self.cursor = 0
        self.replay_done = len(trace) == 0
        self.ops_completed = 0
        self.failed_ops = 0
        #: failed_ops sub-counts: directory vanished under a concurrent
        #: mutation vs. retry budget exhausted against a faulty cluster
        self.vanished_ops = 0
        self.fault_failed_ops = 0
        self.total_rpcs = 0
        self.stale_decisions = 0
        self.data_ops_completed = 0
        #: virtual time of the most recent completed operation (run duration)
        self.last_completion_ms = 0.0
        self.created_files: List[int] = []
        self.epochs: List = []

        if restore_from is not None:
            # counters, RNG streams, latency/cache state, and the clock warp —
            # before the injector below puts its timeline on the calendar
            restore_from.apply_runtime(self)

        #: fault injector (installed last: it touches servers and cache)
        self.faults: Optional[FaultInjector] = None
        if self.config.faults is not None:
            FaultInjector(self, self.config.faults)  # sets self.faults
        if restore_from is not None:
            restore_from.apply_fault_rng(self)

        #: elastic pool controller (None = historical fixed pool)
        self.elastic: Optional[MDSPoolController] = None
        if autoscale is not None:
            self.elastic = MDSPoolController(self, autoscale)

        # bind the timeline last: the clock has already warped (restores) and
        # the setup-population WAL activity is behind the snapshot baseline,
        # so window deltas cover exactly the run itself
        if self.obs.timeline.enabled:
            self.obs.timeline.bind(self)
            self.env.timeline = self.obs.timeline

    # -------------------------------------------------------------- plumbing
    def _populate_stores(self) -> None:
        owner_arr = self.pmap.owner_array()
        tree = self.tree
        for d in tree.iter_dirs():
            o = int(owner_arr[d])
            store = self.servers[o]
            for name, child in tree.children(d).items():
                store.kv_put(b"%020d/%s" % (d, name.encode()), b"inode")

    def upcoming(self, n: int) -> Trace:
        """The next ``n`` not-yet-issued operations (oracle's view)."""
        return self.trace[self.cursor : self.cursor + n]

    def network_rtt(self) -> float:
        rtt = self.params.rtt
        if self.config.rtt_jitter > 0:
            rtt *= 1.0 + self.config.rtt_jitter * float(self._net_rng.exponential(1.0))
        return rtt

    def cache_covers_depth(self, depth: int) -> bool:
        """Near-root coverage of the *target entry* (files are never leased)."""
        if self.config.cache_mode != "near-root":
            return False
        if self.env.now < self.cache.invalid_until:  # crash voided the cache
            return False
        return 0 < self.params.cache_depth and depth < self.params.cache_depth

    # ------------------------------------------------------------------ run
    def run(self) -> SimResult:
        driver = EpochDriver(self, self.policy, self.config.oracle_window_ops)
        # bound now, not at construction: a fault injector or method wrappers
        # installed in between must see every call
        self._client_shared = run_state(self)
        clients = [
            self.env.process(ClientWorker(self, w).run())
            for w in range(self.config.n_clients)
        ]
        driver_proc = self.env.process(driver.run())

        def terminator():
            # when the last client drains, cancel the driver's pending epoch
            # timeout so virtual time stops at the last completed operation
            yield self.env.all_of(clients)
            if driver_proc.is_alive:
                driver_proc.interrupt("replay-complete")
            if self.faults is not None:
                self.faults.cancel()

        self.env.process(terminator())
        wall_t0 = time.perf_counter()
        self.env.run()
        wall_s = time.perf_counter() - wall_t0
        # duration = when the last operation completed (the driver's cancelled
        # epoch timeout may have dragged env.now further; ignore it)
        duration = self.last_completion_ms
        if any(s.epoch_busy_ms > 0 or s.epoch_qps > 0 for s in self.servers):
            driver.flush_epoch()
        if self.config.data_dir is not None:
            # clean shutdown: sync WAL tails and release file handles before
            # the stats are aggregated so the final fsyncs are counted
            for s in self.servers:
                if s.store is not None:
                    s.store.close()
        if self.elastic is not None:
            self.elastic.finalize(duration)
        self.obs.finalize(self)
        kv_stats = None
        if self.use_kvstore:
            from repro.kvstore import StoreStats

            agg = StoreStats()
            total_runs = 0
            for s in self.servers:
                if s.store is not None:
                    agg.merge(s.store.stats)
                    total_runs += s.store.run_count()
            kv_stats = agg.as_dict()
            kv_stats["run_count"] = float(total_runs)
            if self.config.data_dir is not None:
                kv_stats["recovery_ms"] = sum(s.recovery_ms_total for s in self.servers)
        return SimResult(
            strategy=self.policy.name,
            n_mds=self.config.n_mds,
            epoch_ms=self.config.epoch_ms,
            ops_completed=self.ops_completed,
            duration_ms=duration,
            mean_latency_ms=self.latency.mean,
            p50_latency_ms=self.latency.percentile(50),
            p99_latency_ms=self.latency.percentile(99),
            total_rpcs=self.total_rpcs,
            per_epoch=self.epochs,
            migrations=self.migrator.log.total_migrations,
            inodes_migrated=self.migrator.log.total_inodes_moved,
            failed_ops=self.failed_ops,
            vanished_ops=self.vanished_ops,
            fault_failed_ops=self.fault_failed_ops,
            cache_hit_rate=self.cache.hit_rate,
            data_ops_completed=self.data_ops_completed,
            engine_events=self.env.events_processed,
            kvstore=kv_stats,
            faults=self.faults.summary() if self.faults is not None else None,
            elastic=self.elastic.summary() if self.elastic is not None else None,
            wall_s=wall_s,
            timeline=(
                self.obs.timeline.summary() if self.obs.timeline.enabled else None
            ),
        )


def run_simulation(
    tree: NamespaceTree,
    trace: Trace,
    policy: BalancePolicy,
    config: Optional[SimConfig] = None,
) -> SimResult:
    """Build an OrigamiFS cluster, replay ``trace`` under ``policy``, return metrics."""
    return OrigamiFS(tree, trace, policy, config).run()
