"""Deterministic executor of autoscaling decisions on the DES.

The :class:`MDSPoolController` runs inside the epoch driver, *after* the
balancing policy has applied its migrations for the boundary.  Each step:

1. promotes warmed-up joiners (``WARMING`` → ``UP``);
2. completes graceful drains — a ``DRAINING`` MDS leaves the pool
   (``GONE``) only once it owns no directories *and* its service queue is
   quiescent, so no in-flight op is ever lost to a voluntary departure;
3. asks the spec's :class:`~repro.fs.elastic.spec.AutoscalePolicy` for a
   pool-size delta and executes it under the min/max bounds and the
   cooldown gate.

Scale-out marks the lowest-index parked server ``WARMING`` and arms its
warm-up slowdown (``warm_until``/``warm_factor`` on the server — the same
degradation shape as the fault schedule's crash-restart warm-up).  A fresh
member carries zero load, so the balancer's own argmin destination choice
seeds it on the next trigger; no special seeding pass is needed.

Scale-in marks the least-loaded eligible member ``DRAINING`` (never MDS 0,
the subtree-placement root anchor).  The balancing policies treat draining
members like dead ones for evacuation purposes (``plan_evacuations``) while
they keep serving; if the policy's trigger never fires, the controller runs
the evacuation itself so a drain always completes.

Everything is driven by virtual time and the run's seeded RNG streams —
same seed and spec replay byte-identically.

Cost accounting: ``mds_seconds`` integrates the active pool size over
virtual time (provisioned capacity you would pay for), the denominator of
the cost/latency frontier the ``elastic_diurnal`` bench scenario evaluates.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

import numpy as np

from repro.balancers.base import EpochContext, plan_evacuations
from repro.fs.elastic.liveness import DRAINING, GONE, UP, WARMING
from repro.fs.elastic.spec import AutoscaleSignal, AutoscaleSpec

__all__ = ["MDSPoolController"]


class MDSPoolController:
    """Owns the elastic pool's membership transitions and cost accounting."""

    def __init__(self, fs, spec: AutoscaleSpec):
        spec.validate(fs.config.n_mds)
        self.fs = fs
        self.spec = spec
        self.policy = spec.make_policy()
        self.liveness = fs.liveness
        # decision accounting
        self.scale_outs = 0
        self.drains_started = 0
        self.drains_completed = 0
        self.cooldown_blocked = 0
        self.pool_initial = fs.config.n_mds
        self.pool_peak = fs.config.n_mds
        self.pool_min = fs.config.n_mds
        self._cooldown_until_epoch = -1
        # MDS-seconds integral: active members x virtual time
        self._mds_ms = 0.0
        self._billed = fs.config.n_mds
        self._last_change_ms = float(fs.env.now)
        self._finalized = False

    # ------------------------------------------------------------ accounting
    def _rebill(self, now: float) -> None:
        """Close the integral at ``now`` and track pool-size extremes."""
        self._mds_ms += self._billed * (now - self._last_change_ms)
        self._last_change_ms = now
        self._billed = self.liveness.n_active()
        self.pool_peak = max(self.pool_peak, self._billed)
        self.pool_min = min(self.pool_min, self._billed)

    def finalize(self, end_ms: float) -> None:
        """Flush the MDS-seconds integral to the end of the run."""
        if self._finalized:
            return
        self._finalized = True
        if end_ms > self._last_change_ms:
            self._mds_ms += self._billed * (end_ms - self._last_change_ms)
            self._last_change_ms = end_ms

    def summary(self) -> Dict[str, float]:
        """Flat float metrics for ``SimResult.elastic``."""
        return {
            "scale_outs": float(self.scale_outs),
            "drains_started": float(self.drains_started),
            "drains_completed": float(self.drains_completed),
            "cooldown_blocked": float(self.cooldown_blocked),
            "pool_initial": float(self.pool_initial),
            "pool_final": float(self.liveness.n_active()),
            "pool_peak": float(self.pool_peak),
            "pool_min": float(self.pool_min),
            "mds_seconds": self._mds_ms / 1000.0,
        }

    # ------------------------------------------------------------- the step
    def step(self, ctx: EpochContext, em) -> Generator:
        """One autoscaling round at an epoch boundary (runs on the DES)."""
        fs = self.fs
        lv = self.liveness
        now = float(fs.env.now)

        # 1. promote joiners whose warm-up window has elapsed
        for i, server in enumerate(fs.servers):
            if lv.state(i) == WARMING and now >= server.warm_until:
                lv.set_state(i, UP)

        # 2. complete drains: evacuated + quiescent members leave the pool
        draining = np.nonzero(lv.draining_mask())[0]
        if draining.size:
            yield from self._finish_drains(ctx, draining, now)

        # 3. policy decision under bounds + cooldown
        duration = max(float(em.duration_ms), 1e-9)
        active = lv.active_mask()
        per_util = np.asarray(em.busy_ms, dtype=np.float64)[active] / duration
        signal = AutoscaleSignal(
            epoch=ctx.epoch,
            utilization=float(per_util.mean()) if per_util.size else 0.0,
            per_mds_util=per_util,
            n_active=lv.n_active(),
            min_mds=self.spec.min_mds,
            max_mds=self.spec.max_mds,
            window_util=self._window_util(),
        )
        delta = self.policy.decide(signal)
        if delta == 0:
            return
        if self.policy.respects_cooldown and ctx.epoch < self._cooldown_until_epoch:
            self.cooldown_blocked += 1
            return
        acted = False
        if delta > 0:
            for _ in range(delta):
                if not self._scale_out(now):
                    break
                acted = True
        else:
            for _ in range(-delta):
                if not self._start_drain(ctx):
                    break
                acted = True
        if acted:
            self._cooldown_until_epoch = ctx.epoch + self.spec.cooldown_epochs

    def _finish_drains(self, ctx: EpochContext, draining, now: float) -> Generator:
        """Move fully evacuated, quiescent drainers to ``GONE``.

        The balancing policy usually evacuates drainers as part of its own
        ``plan_evacuations`` pass this epoch; when it didn't (its trigger
        never fired), the controller plans and applies the evacuation here
        so a drain cannot stall forever.
        """
        fs = self.fs
        lv = self.liveness
        owner = fs.pmap.owner_array()
        still_owning = [int(i) for i in draining if bool((owner == int(i)).any())]
        if still_owning:
            decisions = plan_evacuations(ctx)
            if decisions:
                yield from fs.migrator.apply(decisions, epoch=ctx.epoch)
            owner = fs.pmap.owner_array()
        for i in draining:
            i = int(i)
            server = fs.servers[i]
            if bool((owner == i).any()):
                continue  # evacuation still pending (e.g. migrator dst died)
            if server.resource.queue_len > 0 or server.resource.in_use > 0:
                continue  # in-flight ops finish first: zero-lost-ops
            lv.set_state(i, GONE)
            self.drains_completed += 1
            self._rebill(float(fs.env.now))

    # ------------------------------------------------------------- actions
    def _scale_out(self, now: float) -> bool:
        lv = self.liveness
        if lv.n_active() >= self.spec.max_mds:
            return False
        states = lv.states()
        parked = np.nonzero(states == GONE)[0]
        if parked.size == 0:
            return False
        i = int(parked[0])  # lowest parked index joins first (deterministic)
        server = self.fs.servers[i]
        if self.spec.warmup_ms > 0:
            server.warm_until = now + self.spec.warmup_ms
            server.warm_factor = self.spec.warmup_factor
            lv.set_state(i, WARMING)
        else:
            lv.set_state(i, UP)
        self.scale_outs += 1
        self._rebill(now)
        return True

    def _start_drain(self, ctx: EpochContext) -> bool:
        lv = self.liveness
        if lv.n_active() <= self.spec.min_mds:
            return False
        states = lv.states()
        servers = self.fs.servers
        # candidates: UP, not crashed, never MDS 0 (subtree root anchor)
        candidates = [
            i
            for i in range(1, len(states))
            if states[i] == UP and servers[i].up
        ]
        if not candidates:
            return False
        loads = np.asarray(ctx.mds_load, dtype=np.float64)
        # drain the least-loaded member (least authority to evacuate);
        # ties break toward the highest index (LIFO relative to join order)
        victim = min(candidates, key=lambda j: (loads[j], -j))
        lv.set_state(int(victim), DRAINING)
        self.drains_started += 1
        return True

    # -------------------------------------------------------------- signals
    def _window_util(self) -> np.ndarray:
        """Recent per-window cluster utilization from the telemetry timeline."""
        timeline = self.fs.obs.timeline
        busy = timeline.recent_cluster_busy(4 * self.spec.horizon_epochs)
        if busy.size == 0:
            return busy
        denom = max(float(timeline.window_ms), 1e-9) * max(self.liveness.n_active(), 1)
        return busy / denom
