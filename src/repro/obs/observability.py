"""The observability bundle a simulation run carries.

``SimConfig.obs`` takes one of these; :data:`NULL_OBS` (all components
disabled) is what every existing call site gets implicitly, keeping the
disabled path free and all prior behaviour unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.audit import BalancerAudit
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.timeseries import NULL_TIMELINE, TimelineCollector
from repro.obs.tracing import NULL_TRACER, JsonlTracer, Tracer

__all__ = ["Observability", "NULL_OBS"]

#: fault-injector field -> the counter family ``finalize`` publishes it as
_FAULT_COUNTERS = (
    ("crashes", "faults_crashes_total", "MDS crash events injected"),
    ("restarts", "faults_restarts_total", "MDS restarts completed"),
    ("rpc_drops", "faults_rpc_drops_total", "RPCs dropped in flight"),
    ("rpc_timeouts", "faults_rpc_timeouts_total", "RPCs timed out (partition)"),
    ("connection_refusals", "faults_connection_refused_total", "RPCs refused by a down MDS"),
    ("aborted_in_service", "faults_service_aborted_total", "requests lost to a mid-service crash"),
    ("retries", "faults_retries_total", "client op retries"),
    ("failovers", "faults_failovers_total", "retries that re-resolved to a new primary"),
    ("ops_failed", "faults_ops_failed_total", "ops that exhausted their retry budget"),
    ("ops_recovered", "faults_ops_recovered_total", "ops that succeeded after retrying"),
)

#: pool-controller field -> the counter family ``finalize`` publishes it as
_ELASTIC_COUNTERS = (
    ("scale_outs", "elastic_scale_out_total", "MDSs provisioned by the autoscaler"),
    ("drains_started", "elastic_drains_started_total", "graceful MDS drains initiated"),
    ("drains_completed", "elastic_drains_completed_total", "drained MDSs removed from the pool"),
)


def _count(
    reg: MetricsRegistry, name: str, help: str, total: float, events: Optional[int] = None
) -> None:
    """Publish a run total, summed over ``events`` events (by default the
    total counts them itself), as counter family ``name``.  With no event
    the family keeps an empty series list, as a counter never incremented
    would.  The total was summed in event order, so it is the same float a
    per-event counter reaches."""
    family = reg.counter(name, help)
    if (total if events is None else events) > 0:
        family.inc(total)


class Observability:
    """Bundle of registry + tracer + audit handed to an :class:`OrigamiFS`.

    Any subset may be enabled::

        obs = Observability(metrics=True, trace_path="t.jsonl", audit=True)
        cfg = SimConfig(obs=obs)
        result = run_simulation(tree, trace, policy, cfg)
        obs.close()                      # flush the trace file
        obs.registry.write("m.json")     # metrics snapshot
        obs.audit.write("audit.jsonl")   # balancer decision log
    """

    def __init__(
        self,
        metrics: bool = False,
        trace_path: Optional[str] = None,
        trace: bool = False,
        trace_sample: int = 1,
        audit: bool = False,
        timeline: bool = False,
        timeline_window_ms: float = 50.0,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = MetricsRegistry(enabled=True) if metrics else NULL_REGISTRY
        if tracer is not None:
            self.tracer = tracer
        elif trace or trace_path is not None:
            self.tracer = JsonlTracer(trace_path, sample=trace_sample)
        else:
            self.tracer = NULL_TRACER
        self.audit: Optional[BalancerAudit] = BalancerAudit() if audit else None
        if timeline:
            self.timeline = TimelineCollector(window_ms=timeline_window_ms)
        else:
            self.timeline = NULL_TIMELINE

    @property
    def enabled(self) -> bool:
        return (
            self.registry.enabled
            or self.tracer.enabled
            or self.audit is not None
            or self.timeline.enabled
        )

    def close(self) -> None:
        self.tracer.close()

    # ------------------------------------------------------------- finalize
    def finalize(self, fs: Any) -> None:
        """Publish end-of-run state of every component into the registry.

        Called once by :meth:`OrigamiFS.run`; zero cost when metrics are off.
        Only the latency, group-commit and recovery histograms and the epoch
        and stale-decision counters are written as events happen; every
        other series is published here from a total its component keeps,
        so the hot paths pay nothing for it.
        """
        # close the trailing timeline window before anything reads it
        self.timeline.finalize(fs.env.now)

        reg = self.registry
        if not reg.enabled:
            return
        env = fs.env
        reg.gauge("engine_events_total", "events processed by the DES kernel").set(
            env.events_processed
        )
        reg.gauge("engine_peak_calendar_len", "peak event-calendar length").set(
            env.peak_queue_len
        )
        reg.gauge("engine_virtual_time_ms", "final virtual clock").set(env.now)

        # the histogram spans every run on this registry; top the counter
        # up to its count
        ops = reg.counter("client_ops_total", "metadata ops completed").labels()
        ops.inc(fs.m_latency.labels().count - ops.get())

        busy = reg.gauge("mds_busy_ms_total", "virtual ms each MDS spent servicing")
        rpcs = reg.gauge("mds_rpcs_total", "RPC messages handled per MDS")
        wait = reg.gauge("mds_queue_wait_ms_total", "total queue wait at each MDS")
        grants = reg.gauge("mds_queue_grants_total", "service slots granted per MDS")
        peakq = reg.gauge("mds_queue_peak_len", "peak service-queue length per MDS")
        # the "live" names and help are kept so snapshots stay comparable
        rpcs_c = reg.counter("mds_rpcs_live_total", "RPCs handled (live)")
        reqs_c = reg.counter(
            "mds_requests_live_total", "requests with this MDS as primary (live)"
        )
        busy_c = reg.counter("mds_busy_ms_live_total", "service busy-ms accumulated (live)")
        for s in fs.servers:
            label = str(s.mds_id)
            busy.labels(mds=label).set(s.total_busy_ms)
            rpcs.labels(mds=label).set(s.total_rpcs)
            wait.labels(mds=label).set(s.resource.total_wait_time)
            grants.labels(mds=label).set(s.resource.total_grants)
            peakq.labels(mds=label).set(s.resource.peak_queue_len)
            rpcs_c.labels(mds=label).inc(s.total_rpcs)
            reqs_c.labels(mds=label).inc(s.total_requests)
            busy_c.labels(mds=label).inc(s.total_busy_ms)

        for name, value in fs.cache.stats_dict().items():
            reg.gauge(f"cache_{name}", f"client cache {name}").set(value)

        mig = fs.migrator.log
        n_mig = mig.total_migrations
        moved = mig.total_inodes_moved
        reg.gauge("migrations_total", "applied migrations").set(n_mig)
        reg.gauge("migration_inodes_total", "inodes moved by migrations").set(moved)
        _count(reg, "migrations_applied_total", "subtree moves applied", n_mig)
        _count(reg, "migration_inodes_moved_total", "inodes relocated", moved, n_mig)
        reg.gauge("migration_stale_decisions_total", "decisions dropped as stale").set(
            fs.stale_decisions
        )

        if fs.use_kvstore:
            for s in fs.servers:
                if s.store is None:
                    continue
                label = str(s.mds_id)
                for name, value in s.store.stats.as_dict().items():
                    reg.gauge(f"kvstore_{name}", f"LSM store {name}").labels(
                        mds=label
                    ).set(value)
                if s.recovery_ms_total > 0.0:
                    reg.gauge(
                        "mds_recovery_ms_total", "modeled recovery warm-up (ms)"
                    ).labels(mds=label).set(s.recovery_ms_total)

        faults = fs.faults
        if faults is not None:
            for name, value in faults.summary().items():
                reg.gauge(f"faults_{name}", f"fault injection {name}").set(value)
            reg.gauge(
                "faults_ops_vanished_total", "ops whose target dir vanished"
            ).set(fs.vanished_ops)
            for field, name, help in _FAULT_COUNTERS:
                _count(reg, name, help, getattr(faults, field))
            # every retry backs off, even by 0 ms
            _count(
                reg, "faults_backoff_wait_ms_total", "client virtual ms spent backing off",
                faults.backoff_wait_ms, faults.retries,
            )

        elastic = fs.elastic
        if elastic is not None:
            for name, value in elastic.summary().items():
                reg.gauge(f"elastic_{name}", f"elastic pool {name}").set(value)
            for field, name, help in _ELASTIC_COUNTERS:
                _count(reg, name, help, getattr(elastic, field))

        if self.audit is not None:
            for name, value in self.audit.summary().items():
                reg.gauge(f"balancer_{name}", f"audit {name}").set(value)

    def metrics_snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.audit is not None:
            snap["balancer_audit"] = {
                "summary": self.audit.summary(),
                "entries": self.audit.to_dicts(),
            }
        if self.tracer.enabled:
            snap["trace"] = {
                "spans_dropped": self.tracer.dropped,
                "path": getattr(self.tracer, "path", None),
            }
        if self.timeline.enabled:
            snap["timeline"] = self.timeline.summary()
        return snap


#: everything disabled — the implicit default for every simulation
NULL_OBS = Observability()
