"""Epoch driver: Data Collector + Metadata Balancer loop (§4.2/§4.3).

Every ``epoch_ms`` of virtual time the driver snapshots the per-directory
access statistics, drains the per-MDS counters, hands everything to the
plugged-in policy, and pipes the returned decisions through the Migrator.
This is the pipeline that makes OrigamiFS "ML-native": the policy is an
arbitrary external algorithm consuming collector dumps and emitting
decisions.

The driver is also where the balancer audit closes its loop: each epoch's
load observation resolves the *realized* benefit of the previous epoch's
migrations, and each applied decision batch is logged with the candidate
set the policy scored (posted via ``EpochContext.obs``).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.balancers.base import BalancePolicy, EpochContext
from repro.fs.metrics import EpochMetrics

__all__ = ["EpochDriver"]


class EpochDriver:
    """Periodic collector/balancer process."""

    def __init__(self, fs, policy: BalancePolicy, oracle_window_ops: int = 5000):
        self.fs = fs
        self.policy = policy
        self.oracle_window_ops = oracle_window_ops
        # resume-aware starting points: a warm-restarted run carries prior
        # epochs, a warped clock, and an advanced cursor (all zero on a
        # fresh run, so this is the classic initialisation then)
        self.epoch = len(fs.epochs)
        self._last_flush_ms = fs.env.now
        self._last_cursor = fs.cursor

    def flush_epoch(self) -> EpochMetrics:
        """Drain counters into an EpochMetrics record (no balancing)."""
        fs = self.fs
        n = len(fs.servers)
        busy = np.zeros(n)
        rpcs = np.zeros(n)
        qps = np.zeros(n)
        for i, server in enumerate(fs.servers):
            busy[i], rpcs[i], qps[i] = server.drain_epoch()
        now = fs.env.now
        em = EpochMetrics(
            epoch=self.epoch,
            duration_ms=max(now - self._last_flush_ms, 1e-9),
            busy_ms=busy,
            qps=qps,
            rpcs=rpcs,
            inodes=fs.pmap.inodes_per_mds().astype(np.float64),
        )
        audit = fs.obs.audit
        if audit is not None:
            # this epoch's observed load resolves earlier epochs' migrations
            audit.observe_epoch(em.epoch, em.busy_ms, em.duration_ms)
        self._last_flush_ms = now
        fs.epochs.append(em)
        self.epoch += 1
        return em

    def run(self) -> Generator:
        fs = self.fs
        env = fs.env
        audit = fs.obs.audit
        elastic = fs.elastic
        liveness = fs.liveness if elastic is not None else None
        m_epochs = fs.obs.registry.counter("epochs_total", "epoch boundaries crossed")
        while True:
            yield env.timeout(fs.config.epoch_ms)
            snapshot = fs.stats.snapshot_and_reset()
            em = self.flush_epoch()
            m_epochs.inc()
            completed = fs.trace[self._last_cursor : fs.cursor]
            self._last_cursor = fs.cursor
            ctx = EpochContext(
                tree=fs.tree,
                pmap=fs.pmap,
                epoch=em.epoch,
                snapshot=snapshot,
                mds_load=em.busy_ms,
                params=fs.params,
                rng=fs.rng,
                oracle_window=fs.upcoming(self.oracle_window_ops),
                completed_window=completed,
                obs=fs.obs,
                # healthy fixed pools pass None: every member serves
                mds_up=(
                    fs.liveness.serving_mask()
                    if fs.faults is not None or elastic is not None
                    else None
                ),
                liveness=liveness,
            )
            decisions = self.policy.rebalance(ctx)
            if decisions:
                before = fs.migrator.log.total_migrations
                yield from fs.migrator.apply(decisions, epoch=em.epoch)
                em.migrations = fs.migrator.log.total_migrations - before
                if audit is not None and em.migrations:
                    audit.record_decisions(
                        em.epoch,
                        em.busy_ms,
                        em.duration_ms,
                        fs.migrator.log.applied[before:],
                        tree=fs.tree,
                    )
            if elastic is not None:
                # autoscaling runs after the balancer so scale decisions see
                # this epoch's load and drains reuse its evacuation machinery
                yield from elastic.step(ctx, em)
            if fs.replay_done:
                return
