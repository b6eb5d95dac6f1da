"""Runtime fault injection: wires a :class:`FaultSchedule` into a live run.

The injector owns three things:

* the **crash timeline** — one DES control process that walks the schedule's
  crash/restart edges, flips the target :class:`~repro.fs.server.MdsServer`
  down/up, arms the restarted server's warm-up window, and invalidates the
  clients' near-root cache (a restarted MDS cannot honour leases granted
  before it died);
* the **client-side gate** — :meth:`rpc_gate` runs before every RPC and
  models the failure a client actually observes: connection refused after
  one round trip for a crashed server, a full RPC-timeout wait for a
  partitioned or dropping one, extra per-RPC delay for a slow link;
* the **accounting** — every fault, retry, failover, and typed op failure
  counts here; :meth:`~repro.obs.Observability.finalize` publishes the
  counts into the metrics registry (``faults_*`` families) when the run
  ends, so a traced faulty run fully explains its latency.

Determinism: the injector draws randomness only from two dedicated streams
of the run's own factory, ``fs.rng_streams`` ("fault-drop" for drop coin
flips, "fault-retry" for backoff jitter, so a checkpoint carries them with
every other stream), and only *when a matching fault window is active* — a run
with an empty schedule is bit-identical to a run with no schedule at all
(asserted by tests/test_fs_parity.py).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.fs.faults.errors import (
    FaultError,
    MdsUnavailableError,
    RpcDroppedError,
    RpcTimeoutError,
)
from repro.fs.faults.schedule import FaultSchedule, RetryPolicy

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
        self._drop_rng = fs.rng_streams.stream("fault-drop")
        self._retry_rng = fs.rng_streams.stream("fault-retry")

        #: durable runs size a restart's warm-up by the recovery work the
        #: server performed instead of the schedule's fixed warmup_ms
        self._durable = fs.config.data_dir is not None

        # run-scoped totals (published into the registry by finalize)
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

        for server in fs.servers:
            server.attach_faults(self)
        fs.faults = self
        edges = schedule.crash_edges()
        #: the crash timeline's control process (None without crash edges);
        #: ``OrigamiFS.run`` stops it when the replay drains
        self.control = fs.env.process(self._control(edges)) if edges else None

    # ------------------------------------------------------------- timeline
    def _control(self, edges) -> Generator:
        fs = self.fs
        env = fs.env
        for t, kind, ev in edges:
            server = fs.servers[ev.mds]
            # a warm-restarted run (checkpoint resume with a warped clock)
            # has already lived through the edges before its clock.  A past
            # crash whose window is still open must still take the server
            # down (its restart edge lies ahead and will price the recovery),
            # and a past restart re-arms its fixed warm-up window; the rest
            # is history
            past = t < env.now
            if t > env.now:
                yield t - env.now
            if kind == "crash":
                if past and ev.end_ms <= env.now:
                    continue
                server.crash()
                self.crashes += 1
                # leases/near-root entries granted by the dead MDS are void
                # until it is back and warm (conservatively: all of them —
                # the DES models one coherent client-population cache; a
                # crash without restart has end_ms = inf); a durable run
                # adds the warm extension at restart, once the recovery
                # cost is known
                fs.cache.on_mds_crash(
                    env.now, ev.end_ms if self._durable else ev.end_ms + ev.warmup_ms
                )
            elif past:
                if not self._durable:
                    server.warm_until = ev.end_ms + ev.warmup_ms
                    server.warm_factor = ev.warmup_factor
            else:
                rec_ms = server.restart()
                self.restarts += 1
                if not self._durable:
                    until = ev.end_ms + ev.warmup_ms
                else:
                    # warm-up window sized by the recovery work performed
                    until = env.now + rec_ms
                    if rec_ms > 0:
                        fs.cache.on_mds_crash(env.now, until)
                # the one warm-up window: it replaces any earlier one, an
                # elastic joiner's included
                server.warm_until = until
                server.warm_factor = ev.warmup_factor

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
        if fs.servers[mds].up and sched.network_clear(mds, now):
            return None
        if sched.partitioned(mds, now):
            wait = self.retry.rpc_timeout_ms
            self.rpc_timeouts += 1
            error = RpcTimeoutError(mds, "partitioned")
        elif not fs.servers[mds].up:
            wait = fs.params.rtt  # connection refused costs one round trip
            self.connection_refusals += 1
            error = MdsUnavailableError(mds)
        else:
            p = sched.drop_probability(mds, now)
            if p > 0.0 and float(self._drop_rng.random()) < p:
                wait = self.retry.rpc_timeout_ms
                self.rpc_drops += 1
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
        return wait

    def count_op_failed(self, exc: FaultError) -> None:
        self.ops_failed += 1
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
        if self._durable:
            out["recovery_ms"] = sum(s.recovery_ms_total for s in self.fs.servers)
        return out
