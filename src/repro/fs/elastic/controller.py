"""Deterministic executor of autoscaling decisions on the DES.

The :class:`MDSPoolController` runs inside the epoch driver, *after* the
balancing policy has applied its migrations for the boundary.  Each step:

1. promotes warmed-up joiners (``WARMING`` → ``UP``);
2. completes graceful drains — a ``DRAINING`` MDS leaves the pool
   (``GONE``) only once it owns no directories *and* its service queue is
   quiescent, so no in-flight op is ever lost to a voluntary departure;
3. computes a pool-size delta from the spec and its own per-epoch
   utilization and executes it under the min/max bounds and the cooldown
   gate.  ``threshold`` compares the epoch's mean active utilization with
   the hysteresis band; ``predictive`` compares a linear forecast one
   horizon ahead, ``last + horizon * mean(diff(tail))`` over the last
   ``horizon + 1`` epochs, clamped to [0, 1.5]; ``schedule`` takes the
   scripted delta of the epoch, and alone skips the cooldown.  The
   controller reads no telemetry, so observing a run never steers it.

Scale-out marks the lowest-index parked server ``WARMING`` and arms its
warm-up window (``warm_until``/``warm_factor`` on the server, the window a
crash-restart arms too).  A fresh member carries zero load, so the
balancer's own argmin destination choice seeds it on the next trigger; no
special seeding pass is needed.

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

from typing import Dict, Generator, List

import numpy as np

from repro.balancers.base import EpochContext, plan_evacuations
from repro.fs.elastic.liveness import DRAINING, GONE, UP, WARMING
from repro.fs.elastic.spec import AutoscaleSpec

__all__ = ["MDSPoolController"]


class MDSPoolController:
    """Owns the elastic pool's membership transitions and cost accounting."""

    def __init__(self, fs, spec: AutoscaleSpec):
        spec.validate(fs.config.n_mds)
        self.fs = fs
        self.spec = spec
        self.liveness = fs.liveness
        #: mean active utilization of every epoch so far (predictive)
        self._history: List[float] = []
        #: net scripted pool-size delta per epoch (schedule)
        self._scripted: Dict[int, int] = {}
        for e in spec.events:
            delta = e.count if e.action == "join" else -e.count
            self._scripted[e.epoch] = self._scripted.get(e.epoch, 0) + delta
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

        # 3. pool-size decision under bounds + cooldown
        duration = max(float(em.duration_ms), 1e-9)
        per_util = np.asarray(em.busy_ms, dtype=np.float64)[lv.active_mask()] / duration
        delta = self._decide(ctx.epoch, float(per_util.mean()) if per_util.size else 0.0)
        if delta == 0:
            return
        if self.spec.policy != "schedule" and ctx.epoch < self._cooldown_until_epoch:
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

    def _decide(self, epoch: int, util: float) -> int:
        """Desired pool-size delta: +k grows, -k shrinks, 0 holds."""
        spec = self.spec
        if spec.policy == "schedule":
            return self._scripted.get(epoch, 0)
        if spec.policy == "predictive":
            self._history.append(util)
            tail = self._history[-(spec.horizon_epochs + 1):]
            if len(tail) >= 2:
                util = tail[-1] + spec.horizon_epochs * float(np.diff(tail).mean())
            util = min(1.5, max(0.0, util))
        n_active = self.liveness.n_active()
        if util > spec.scale_out_util and n_active < spec.max_mds:
            return 1
        if util < spec.scale_in_util and n_active > spec.min_mds:
            return -1
        return 0

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
