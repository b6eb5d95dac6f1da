"""Runtime fault injection: wires a :class:`FaultSchedule` into a live run.

The injector owns three things:

* the **crash timeline** — one DES control process that walks the schedule's
  crash/restart edges, flips the target :class:`~repro.fs.server.MdsServer`
  down/up, and invalidates the clients' near-root cache (a restarted MDS
  cannot honour leases granted before it died);
* the **client-side gate** — :meth:`rpc_gate` runs before every RPC and
  models the failure a client actually observes: connection refused after
  one round trip for a crashed server, a full RPC-timeout wait for a
  partitioned or dropping one, extra per-RPC delay for a slow link;
* the **accounting** — every fault, retry, failover, and typed op failure
  counts here and into the PR-1 metrics registry (``faults_*`` families),
  so a traced faulty run fully explains its latency.

Determinism: the injector draws randomness only from two dedicated streams
("fault-drop" for drop coin flips, "fault-retry" for backoff jitter) derived
from the run seed, and only *when a matching fault window is active* — a run
with an empty schedule is bit-identical to a run with no schedule at all
(asserted by tests/test_fs_parity.py).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.fs.faults.errors import (
    FaultError,
    MdsUnavailableError,
    RpcDroppedError,
    RpcTimeoutError,
)
from repro.fs.faults.schedule import FaultSchedule, RetryPolicy
from repro.sim import SeedSequenceFactory

__all__ = ["FaultInjector"]


class FaultInjector:
    """Installs a fault schedule on an :class:`~repro.fs.filesystem.OrigamiFS`."""

    def __init__(self, fs, schedule: FaultSchedule):
        if fs.faults is not None:
            raise RuntimeError("fs already has a fault injector installed")
        schedule.validate(len(fs.servers))
        self.fs = fs
        self.schedule = schedule
        self.retry: RetryPolicy = schedule.retry
        ssf = SeedSequenceFactory(fs.config.seed)
        self._drop_rng = ssf.stream("fault-drop")
        self._retry_rng = ssf.stream("fault-retry")

        #: durable runs derive restart warm-up from recovery work instead of
        #: the schedule's fixed warmup_ms constant
        self._derived_warmup_mode = getattr(fs.config, "data_dir", None) is not None
        #: mds -> (warm until, factor) windows installed at restart time
        self._derived_warmup: Dict[int, tuple] = {}

        # run-scoped totals (mirrored into the registry live)
        self.crashes = 0
        self.restarts = 0
        self.rpc_drops = 0
        self.rpc_timeouts = 0
        self.connection_refusals = 0
        self.aborted_in_service = 0
        self.retries = 0
        self.failovers = 0
        self.ops_failed = 0
        self.ops_recovered = 0
        self.backoff_wait_ms = 0.0
        self.failed_by_reason: Dict[str, int] = {}

        reg = fs.obs.registry
        self._m_crashes = reg.counter("faults_crashes_total", "MDS crash events injected")
        self._m_restarts = reg.counter("faults_restarts_total", "MDS restarts completed")
        self._m_drops = reg.counter("faults_rpc_drops_total", "RPCs dropped in flight")
        self._m_timeouts = reg.counter("faults_rpc_timeouts_total", "RPCs timed out (partition)")
        self._m_refused = reg.counter("faults_connection_refused_total", "RPCs refused by a down MDS")
        self._m_aborted = reg.counter("faults_service_aborted_total", "requests lost to a mid-service crash")
        self._m_retries = reg.counter("faults_retries_total", "client op retries")
        self._m_failovers = reg.counter("faults_failovers_total", "retries that re-resolved to a new primary")
        self._m_failed = reg.counter("faults_ops_failed_total", "ops that exhausted their retry budget")
        self._m_recovered = reg.counter("faults_ops_recovered_total", "ops that succeeded after retrying")
        self._m_backoff = reg.counter("faults_backoff_wait_ms_total", "client virtual ms spent backing off")

        for server in fs.servers:
            server.attach_faults(self)
        fs.faults = self
        self.control_procs: List = []
        edges = schedule.crash_edges()
        if edges:
            self.control_procs.append(fs.env.process(self._control(edges)))

    # ------------------------------------------------------------- timeline
    def _control(self, edges) -> Generator:
        fs = self.fs
        env = fs.env
        for t, kind, ev in edges:
            if t < env.now:
                # a warm-restarted run (checkpoint resume with a warped
                # clock) has already lived through this edge.  A past crash
                # whose window is still open must still take the server
                # down — its restart edge lies ahead and will price the
                # recovery; everything else is history.
                if kind == "crash" and (not ev.restarts or ev.end_ms > env.now):
                    fs.servers[ev.mds].crash()
                    self.crashes += 1
                    self._m_crashes.inc()
                    until = float("inf") if not ev.restarts else (
                        ev.end_ms if self._derived_warmup_mode
                        else ev.end_ms + ev.warmup_ms
                    )
                    fs.cache.on_mds_crash(env.now, until)
                continue
            if t > env.now:
                yield env.timeout(t - env.now)
            server = fs.servers[ev.mds]
            if kind == "crash":
                server.crash()
                self.crashes += 1
                self._m_crashes.inc()
                # leases/near-root entries granted by the dead MDS are void
                # until it is back and warm (conservatively: all of them —
                # the DES models one coherent client-population cache); in
                # derived mode the warm extension is added at restart, once
                # the recovery cost is known
                if not ev.restarts:
                    until = float("inf")
                elif self._derived_warmup_mode:
                    until = ev.end_ms
                else:
                    until = ev.end_ms + ev.warmup_ms
                fs.cache.on_mds_crash(env.now, until)
            else:
                rec_ms = server.restart()
                self.restarts += 1
                self._m_restarts.inc()
                if self._derived_warmup_mode and rec_ms > 0:
                    # warm-up window sized by the recovery work performed
                    self._derived_warmup[ev.mds] = (env.now + rec_ms, ev.warmup_factor)
                    fs.cache.on_mds_crash(env.now, env.now + rec_ms)

    def cancel(self) -> None:
        """Stop pending timeline events so a drained run can end (idempotent)."""
        for p in self.control_procs:
            if p.is_alive:
                try:
                    p.interrupt("replay-complete")
                except RuntimeError:
                    pass

    # ------------------------------------------------------ server-side view
    def service_factor(self, mds: int, now: float) -> float:
        f = self.schedule.slowdown_factor(
            mds, now, include_warmup=not self._derived_warmup_mode
        )
        if self._derived_warmup_mode:
            window = self._derived_warmup.get(mds)
            if window is not None and now < window[0]:
                f = max(f, window[1])
        return f

    def count_service_abort(self) -> None:
        self.aborted_in_service += 1
        self._m_aborted.inc()

    # ------------------------------------------------------ client-side gate
    def rpc_gate(self, mds: int, span=None) -> Optional[Tuple[float, Optional[FaultError]]]:
        """Model the network leg of one RPC to ``mds``.

        Returns None when the RPC goes through unimpeded, else
        ``(wait_ms, error)``: the client waits ``wait_ms`` of virtual time,
        then raises ``error`` — None for an injected delay, which only slows
        the RPC.  A plain function rather than a generator, so the client
        loop keeps one frame per engine resume.

        All fault-attributable waiting (timeout waits, refused-connection
        round trips, injected delays) is charged to ``span.fault_wait_ms`` so
        the span identity ``queue + service + net + fault_wait == latency``
        keeps holding under faults.
        """
        fs = self.fs
        now = fs.env.now
        sched = self.schedule
        if sched.partitioned(mds, now):
            wait = self.retry.rpc_timeout_ms
            self.rpc_timeouts += 1
            self._m_timeouts.inc()
            error = RpcTimeoutError(mds, "partitioned")
        elif not fs.servers[mds].up:
            wait = fs.network_rtt()  # connection refused costs one round trip
            self.connection_refusals += 1
            self._m_refused.inc()
            error = MdsUnavailableError(mds)
        else:
            p = sched.drop_probability(mds, now)
            if p > 0.0 and float(self._drop_rng.random()) < p:
                wait = self.retry.rpc_timeout_ms
                self.rpc_drops += 1
                self._m_drops.inc()
                error = RpcDroppedError(mds)
            else:
                wait = sched.extra_delay_ms(mds, now)
                if wait <= 0.0:
                    return None
                error = None
        if span is not None:
            span.fault_wait_ms += wait
        return wait, error

    # --------------------------------------------------------- retry support
    def backoff_ms(self, attempt: int) -> float:
        """Seeded-jitter backoff before retry ``attempt`` (1-based)."""
        wait = self.retry.backoff_ms(attempt, float(self._retry_rng.random()))
        self.backoff_wait_ms += wait
        self._m_backoff.inc(wait)
        return wait

    def count_retry(self) -> None:
        self.retries += 1
        self._m_retries.inc()

    def count_failover(self) -> None:
        self.failovers += 1
        self._m_failovers.inc()

    def count_recovered(self) -> None:
        self.ops_recovered += 1
        self._m_recovered.inc()

    def count_op_failed(self, exc: FaultError) -> None:
        self.ops_failed += 1
        self._m_failed.inc()
        self.failed_by_reason[exc.reason] = self.failed_by_reason.get(exc.reason, 0) + 1

    # -------------------------------------------------------------- summary
    def summary(self) -> Dict[str, float]:
        """Flat counters for SimResult / the metrics snapshot / the CLI."""
        out: Dict[str, float] = {
            "events_scheduled": float(len(self.schedule)),
            "crashes": float(self.crashes),
            "restarts": float(self.restarts),
            "rpc_drops": float(self.rpc_drops),
            "rpc_timeouts": float(self.rpc_timeouts),
            "connection_refusals": float(self.connection_refusals),
            "service_aborts": float(self.aborted_in_service),
            "retries": float(self.retries),
            "failovers": float(self.failovers),
            "ops_failed": float(self.ops_failed),
            "ops_recovered": float(self.ops_recovered),
            "backoff_wait_ms": self.backoff_wait_ms,
        }
        for reason, n in sorted(self.failed_by_reason.items()):
            out[f"failed_{reason}"] = float(n)
        if self._derived_warmup_mode:
            out["recovery_ms"] = sum(s.recovery_ms_total for s in self.fs.servers)
        return out
