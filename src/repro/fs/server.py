"""MDS server process: FIFO service queue + local inode store + accounting.

Each MDS is a single-server queue (capacity 1 — one metadata thread, the
saturation regime of §5.2); queueing delay is emergent, which is what makes
the DES results exhibit Eq. (1)'s ``Q_i`` term without modelling it.

Busy time, RPC counts and request counts accumulate as run totals, and
:meth:`drain_epoch` returns each epoch's share for
:class:`~repro.fs.metrics.EpochMetrics`.  Busy time also keeps a sum of its
own per epoch, so an epoch's float total does not depend on earlier epochs.
When observability is on, :meth:`~repro.obs.Observability.finalize`
publishes the totals into the metrics registry (labelled by MDS id) once
the run ends, and :meth:`service` decomposes each visit into queue wait vs.
service time on the caller's :class:`~repro.obs.tracing.Span`.

Crash semantics (active only when a :class:`~repro.fs.faults.FaultInjector`
is attached): a crashed server aborts the request it was servicing, drains
its queue by failing each waiter as its slot is granted, and — after
:meth:`restart` — serves slowly until its caches are hot again.
``incarnation`` increments on every crash so a request that straddles a
crash+restart still observes the failure.

Warm-up has one home, ``warm_until``/``warm_factor``: the fault injector
arms it at each restart and the elastic pool controller at each scale-out,
and :meth:`admit` multiplies a hold by the larger of the warm factor and the
schedule's slowdown factor while it is open.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.fs.faults.errors import MdsCrashedError, MdsUnavailableError
from repro.kvstore import LSMStore
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sim import Environment, Resource

__all__ = ["MdsServer"]


class MdsServer:
    """One metadata server."""

    def __init__(
        self,
        env: Environment,
        mds_id: int,
        use_kvstore: bool = False,
        registry: Optional[MetricsRegistry] = None,
        data_dir: Optional[str] = None,
        durability=None,
    ):
        self.env = env
        self.mds_id = mds_id
        self.resource = Resource(env)
        #: liveness + crash generation; only consulted when faults are attached
        self.up = True
        self.incarnation = 0
        self._faults = None
        #: the warm-up window after a restart or an elastic join: service
        #: is degraded by ``warm_factor`` until virtual time passes
        #: ``warm_until``.  A new window replaces the old one; the defaults
        #: make the check a single always-false compare.
        self.warm_until = 0.0
        self.warm_factor = 1.0
        #: durability cost model (repro.sim.DurabilityCostModel) or None
        self.durability = durability
        self.data_dir = data_dir
        #: durable-write virtual ms accrued since the last drain
        self._pending_durability_ms = 0.0
        #: recovery report of the latest crash, consumed by restart()
        self._crash_recovery = None
        self.recovery_ms_total = 0.0
        if not use_kvstore:
            self.store: Optional[LSMStore] = None
        elif data_dir is not None:
            self.store = self._open_store()
        else:
            self.store = LSMStore(memtable_limit=512)
        # busy time this epoch (reset by drain_epoch)
        self.epoch_busy_ms = 0.0
        # run-scoped totals
        self.total_busy_ms = 0.0
        self.total_rpcs = 0
        self.total_requests = 0
        #: the count totals at the last drain (an epoch's counts are the
        #: growth since)
        self.drained_rpcs = 0
        self.drained_requests = 0
        #: cumulative modeled durable-write cost (never reset by drains)
        self.durability_ms_total = 0.0
        # live histogram children (no-op singletons when the registry is
        # off): they need every value, not a total
        reg = registry if registry is not None else NULL_REGISTRY
        label = str(mds_id)
        self._m_group_commit = reg.histogram(
            "kv_wal_group_commit_size", "records per WAL group commit"
        ).labels(mds=label)
        self._m_recovery = reg.histogram(
            "mds_recovery_ms", "modeled recovery warm-up per restart (ms)"
        ).labels(mds=label)

    def _on_group_commit(self, batch_records: int) -> None:
        self._m_group_commit.observe(batch_records)

    def _open_store(self, stats=None) -> LSMStore:
        """Open (or recover) the durable store in ``data_dir``."""
        # imported here: only durable runs load the durability package
        from repro.durability import open_store

        return open_store(self.data_dir, memtable_limit=512, stats=stats,
                          sync_listener=self._on_group_commit)

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
            self.store = self._open_store(stats)
            self._crash_recovery = self.store.last_recovery
            self._pending_durability_ms = 0.0

    def restart(self) -> float:
        """Come back up; returns the modeled recovery warm-up in ms.

        Non-durable servers return 0.0 (the injector arms the schedule's
        fixed ``warmup_ms`` window).  Durable servers price the recovery
        work their crash actually performed."""
        self.up = True
        rec_ms = 0.0
        if self.durability is not None and self._crash_recovery is not None:
            rec_ms = self.durability.recovery_cost_ms(self._crash_recovery)
            self._crash_recovery = None
            self.recovery_ms_total += rec_ms
            self._m_recovery.observe(rec_ms)
        return rec_ms

    def count_rpc(self, n: int = 1) -> None:
        self.total_rpcs += n

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
        only in the yields.  Both add the hold to the epoch and run busy
        totals, and nothing else: the registry reads the run total when the
        run ends.
        """
        faults = self._faults
        env = self.env
        duration_ms = self.admit(duration_ms)
        resource = self.resource
        if span is not None:
            enqueued_at = env._now
            yield resource
            span.queue_ms += env._now - enqueued_at
        else:
            yield resource
        try:
            if faults is not None:
                incarnation = self.granted()
            if duration_ms > 0:
                yield duration_ms
            if faults is not None:
                self.survived(incarnation, duration_ms, span)
            if span is not None:
                span.service_ms += duration_ms
            self.epoch_busy_ms += duration_ms
            self.total_busy_ms += duration_ms
        finally:
            resource.release()

    def admit(self, duration_ms: float) -> float:
        """Entry check of a hold: the hold time after degradation.

        Raises :class:`MdsUnavailableError` when the server is down.  The
        hold is multiplied once, at the moment it enters service, by the
        larger of the schedule's slowdown factor and, while the warm-up
        window is open, the warm factor.  Only a fault injector or an
        elastic pool can change the result, so runs with neither may skip
        the call."""
        now = self.env._now
        factor = 1.0
        if self._faults is not None:
            if not self.up:
                raise MdsUnavailableError(self.mds_id)
            factor = self._faults.schedule.slowdown_factor(self.mds_id, now)
        if self.warm_until > now and self.warm_factor > factor:
            factor = self.warm_factor
        return duration_ms * factor

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
            self._faults.aborted_in_service += 1
            if span is not None:
                span.fault_wait_ms += duration_ms
            raise MdsCrashedError(self.mds_id)

    def drain_epoch(self) -> tuple:
        """Return this epoch's (busy, rpcs, qps) and start the next epoch."""
        out = (
            self.epoch_busy_ms,
            self.total_rpcs - self.drained_rpcs,
            self.total_requests - self.drained_requests,
        )
        self.epoch_busy_ms = 0.0
        self.drained_rpcs = self.total_rpcs
        self.drained_requests = self.total_requests
        return out

    # ------------------------------------------------------------- kv store
    def _accrue_durability(self, stats, bytes_before: int, fsyncs_before: int, span) -> None:
        """Price the WAL work of the store mutation just made (the growth of
        ``stats`` since the counts before it) into pending cost."""
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
        store = self.store
        if store is None:
            return
        if self.durability is None or store.backend is None:
            store.put(key, value)
            return
        stats = store.stats
        bytes_before = stats.wal_bytes
        fsyncs_before = stats.fsyncs
        store.put(key, value)
        self._accrue_durability(stats, bytes_before, fsyncs_before, span)

    def kv_delete(self, key: bytes, span=None) -> None:
        store = self.store
        if store is None:
            return
        if self.durability is None or store.backend is None:
            store.delete(key)
            return
        stats = store.stats
        bytes_before = stats.wal_bytes
        fsyncs_before = stats.fsyncs
        store.delete(key)
        self._accrue_durability(stats, bytes_before, fsyncs_before, span)

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
