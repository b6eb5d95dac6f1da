"""MDS server process: FIFO service queue + local inode store + accounting.

Each MDS is a single-server queue (capacity 1 — one metadata thread, the
saturation regime of §5.2); queueing delay is emergent, which is what makes
the DES results exhibit Eq. (1)'s ``Q_i`` term without modelling it.

Busy time, RPC counts, and request counts accumulate per epoch and are
drained by the epoch driver into :class:`~repro.fs.metrics.EpochMetrics`.
When observability is on, the same counters also publish into the metrics
registry (labelled by MDS id) and :meth:`service` decomposes each visit into
queue wait vs. service time on the caller's :class:`~repro.obs.tracing.Span`.

Crash semantics (active only when a :class:`~repro.fs.faults.FaultInjector`
is attached): a crashed server aborts the request it was servicing, drains
its queue by failing each waiter as its slot is granted, and — after
:meth:`restart` — serves at the schedule's warm-up factor until its caches
are hot again.  ``incarnation`` increments on every crash so a request that
straddles a crash+restart still observes the failure.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.fs.faults.errors import MdsCrashedError, MdsUnavailableError
from repro.kvstore import LSMStore
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sim import Environment, Resource, Timeout

__all__ = ["MdsServer"]


class MdsServer:
    """One metadata server."""

    def __init__(
        self,
        env: Environment,
        mds_id: int,
        service_concurrency: int = 1,
        use_kvstore: bool = False,
        registry: Optional[MetricsRegistry] = None,
        data_dir: Optional[str] = None,
        durability=None,
    ):
        self.env = env
        self.mds_id = mds_id
        self.resource = Resource(env, capacity=service_concurrency)
        #: liveness + crash generation; only consulted when faults are attached
        self.up = True
        self.incarnation = 0
        self._faults = None
        #: voluntary-join warm-up (elastic scale-out): service is degraded by
        #: ``warm_factor`` until virtual time passes ``warm_until``.  The
        #: defaults make the check a single always-false compare, so runs
        #: without an elastic pool are bit-identical.
        self.warm_until = 0.0
        self.warm_factor = 1.0
        #: durability cost model (repro.sim.DurabilityCostModel) or None
        self.durability = durability
        self.data_dir = data_dir
        #: durable-write virtual ms accrued since the last drain
        self._pending_durability_ms = 0.0
        #: recovery report of the latest crash, consumed by restart()
        self._crash_recovery = None
        self.last_recovery_ms = 0.0
        self.recovery_ms_total = 0.0
        if not use_kvstore:
            self.store: Optional[LSMStore] = None
        elif data_dir is not None:
            self.store = LSMStore.open(
                data_dir, memtable_limit=512, sync_listener=self._on_group_commit
            )
        else:
            self.store = LSMStore(memtable_limit=512)
        # epoch-scoped counters (drained by the driver)
        self.epoch_busy_ms = 0.0
        self.epoch_rpcs = 0
        self.epoch_qps = 0
        # run-scoped totals
        self.total_busy_ms = 0.0
        self.total_rpcs = 0
        self.total_requests = 0
        #: cumulative modeled durable-write cost (never reset by drains)
        self.durability_ms_total = 0.0
        # live metrics children (no-op singletons when the registry is off)
        reg = registry if registry is not None else NULL_REGISTRY
        label = str(mds_id)
        self._m_rpcs = reg.counter("mds_rpcs_live_total", "RPCs handled (live)").labels(mds=label)
        self._m_requests = reg.counter(
            "mds_requests_live_total", "requests with this MDS as primary (live)"
        ).labels(mds=label)
        self._m_busy = reg.counter(
            "mds_busy_ms_live_total", "service busy-ms accumulated (live)"
        ).labels(mds=label)
        self._m_group_commit = reg.histogram(
            "kv_wal_group_commit_size", "records per WAL group commit"
        ).labels(mds=label)
        self._m_recovery = reg.histogram(
            "mds_recovery_ms", "modeled recovery warm-up per restart (ms)"
        ).labels(mds=label)

    def _on_group_commit(self, batch_records: int) -> None:
        self._m_group_commit.observe(batch_records)

    # ------------------------------------------------------------ fault hooks
    def attach_faults(self, injector) -> None:
        """Install the run's fault injector view (slowdowns, crash checks)."""
        self._faults = injector

    def crash(self) -> None:
        """Go down: in-flight service is aborted, queued waiters fail on grant.

        With a durable store the crash is real: unacknowledged (unsynced)
        writes are dropped, and the store is immediately rebuilt from disk —
        WAL replay plus MANIFEST/SSTable reload — so the acknowledged state
        stays queryable (the Migrator evacuating a dead MDS's subtrees reads
        from its recovered journal, as a real takeover would).  The recovery
        *work* is recorded and priced into the restart warm-up by
        :meth:`restart`."""
        self.up = False
        self.incarnation += 1
        if self.store is not None and self.store.backend is not None:
            stats = self.store.stats  # counter continuity across incarnations
            self.store.crash()
            self.store = LSMStore.open(
                self.data_dir,
                memtable_limit=512,
                stats=stats,
                sync_listener=self._on_group_commit,
            )
            self._crash_recovery = self.store.last_recovery
            self._pending_durability_ms = 0.0

    def restart(self) -> float:
        """Come back up; returns the modeled recovery warm-up in ms.

        Non-durable servers return 0.0 and warm-up degradation stays the
        schedule's concern (the fixed ``warmup_ms`` constant).  Durable
        servers price the recovery work their crash actually performed."""
        self.up = True
        rec_ms = 0.0
        if self.durability is not None and self._crash_recovery is not None:
            rec_ms = self.durability.recovery_cost_ms(self._crash_recovery)
            self._crash_recovery = None
            self.last_recovery_ms = rec_ms
            self.recovery_ms_total += rec_ms
            self._m_recovery.observe(rec_ms)
        return rec_ms

    def count_rpc(self, n: int = 1) -> None:
        self.epoch_rpcs += n
        self.total_rpcs += n
        self._m_rpcs.inc(n)

    def service(self, duration_ms: float, span=None) -> Generator:
        """Queue for the server thread, hold it for ``duration_ms``.

        When a :class:`~repro.obs.tracing.Span` is supplied the queue wait
        (time between requesting the worker slot and being granted it) and
        the service hold are added to it — measurement only, no extra events.

        With faults attached, raises :class:`~repro.fs.faults.errors.
        MdsUnavailableError` when the server is down (entry or grant — the
        latter is how a crashed server's queue drains) and :class:`~repro.fs.
        faults.errors.MdsCrashedError` when a crash lands mid-service; the
        lost hold time is charged to ``span.fault_wait_ms``, not busy time.

        The client loop inlines this hold for its RPC legs; both sides share
        :meth:`admit`, :meth:`granted` and :meth:`survived`, so they differ
        only in the yields and the busy-time accounting spelled out here.
        """
        faults = self._faults
        env = self.env
        duration_ms = self.admit(duration_ms)
        resource = self.resource
        req = resource.request()
        try:  # try/finally, not `with`: skips the __enter__/__exit__ calls
            if span is not None:
                enqueued_at = env._now
                yield req
                span.queue_ms += env._now - enqueued_at
            else:
                yield req
            if faults is not None:
                incarnation = self.granted()
            if duration_ms > 0:
                yield Timeout(env, duration_ms)
            if faults is not None:
                self.survived(incarnation, duration_ms, span)
            if span is not None:
                span.service_ms += duration_ms
            self.epoch_busy_ms += duration_ms
            self.total_busy_ms += duration_ms
            self._m_busy.inc(duration_ms)
        finally:
            resource.release(req)

    def admit(self, duration_ms: float) -> float:
        """Entry check of a hold: the hold time after degradation.

        Raises :class:`MdsUnavailableError` when the server is down.  Only
        a fault injector or an elastic warm-up can change the result, so
        runs with neither may skip the call."""
        env = self.env
        if self._faults is not None:
            if not self.up:
                raise MdsUnavailableError(self.mds_id)
            # degradation (slowdown window or restart warm-up) applies at the
            # moment the request enters service
            duration_ms *= self._faults.service_factor(self.mds_id, env._now)
        if self.warm_until > env._now:
            # cold caches on a freshly provisioned elastic member: same
            # degradation shape as the fault schedule's restart warm-up
            duration_ms *= self.warm_factor
        return duration_ms

    def granted(self) -> int:
        """Grant-time check of a hold under faults; returns the incarnation.

        A server that went down while the request queued fails it — this
        is how a crashed server's queue drains."""
        if not self.up:
            raise MdsUnavailableError(self.mds_id)
        return self.incarnation

    def survived(self, incarnation: int, duration_ms: float, span=None) -> None:
        """Post-hold check under faults: a crash during the hold loses the
        work — the client paid the hold, but it is charged as fault wait,
        not busy time, and surfaces as :class:`MdsCrashedError`."""
        if not self.up or self.incarnation != incarnation:
            self._faults.count_service_abort()
            if span is not None:
                span.fault_wait_ms += duration_ms
            raise MdsCrashedError(self.mds_id)

    def drain_epoch(self) -> tuple:
        """Return and reset this epoch's (busy, rpcs, qps)."""
        out = (self.epoch_busy_ms, self.epoch_rpcs, self.epoch_qps)
        self.epoch_busy_ms = 0.0
        self.epoch_rpcs = 0
        self.epoch_qps = 0
        return out

    # ------------------------------------------------------------- kv store
    def _accrue_durability(self, mutate, span) -> None:
        """Run one store mutation, pricing its WAL work into pending cost."""
        stats = self.store.stats
        bytes_before = stats.wal_bytes
        fsyncs_before = stats.fsyncs
        mutate()
        delta_bytes = stats.wal_bytes - bytes_before
        cost = self.durability.append_cost_ms(delta_bytes)
        cost += self.durability.sync_cost_ms(stats.fsyncs - fsyncs_before)
        self._pending_durability_ms += cost
        self.durability_ms_total += cost
        if span is not None:
            span.wal_appends += 1
            span.wal_bytes += delta_bytes

    def take_durability_cost(self) -> float:
        """Drain the accrued durable-write cost (charged as service time)."""
        cost = self._pending_durability_ms
        self._pending_durability_ms = 0.0
        return cost

    def kv_put(self, key: bytes, value: bytes, span=None) -> None:
        if self.store is None:
            return
        if self.durability is not None and self.store.backend is not None:
            self._accrue_durability(lambda: self.store.put(key, value), span)
        else:
            self.store.put(key, value)

    def kv_delete(self, key: bytes, span=None) -> None:
        if self.store is None:
            return
        if self.durability is not None and self.store.backend is not None:
            self._accrue_durability(lambda: self.store.delete(key), span)
        else:
            self.store.delete(key)

    def kv_get(self, key: bytes, span=None) -> Optional[bytes]:
        if self.store is None:
            return None
        if span is None:
            return self.store.get(key)
        stats = self.store.stats
        probes_before = stats.runs_probed
        value = self.store.get(key)
        span.kv_gets += 1
        span.kv_probes += stats.runs_probed - probes_before
        return value
