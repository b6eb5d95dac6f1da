"""The Origami online balancing policy (§4.2's Metadata Balancer).

At each triggered epoch the policy:

1. extracts Table-1 features for every candidate subtree from the Data
   Collector's snapshot;
2. asks the trained model for each subtree's predicted *migration benefit*;
3. greedily takes the highest-predicted-benefit subtree, sends it to the
   currently least-loaded MDS, updates its load estimate, and repeats until
   predictions fall below the threshold (or the per-epoch migration cap).

This is deliberately simpler than Meta-OPT's search — the paper notes the
rebalancing loop is "much more intuitive" than bin-packing because the model
already folded locality costs into the benefit scores.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

import numpy as np

from repro.balancers.base import (
    BalancePolicy,
    EpochContext,
    LunuleTrigger,
    hottest_source,
    plan_evacuations,
)
from repro.cluster.migration import MigrationDecision
from repro.ml.dataset import FeatureExtractor

__all__ = ["OrigamiPolicy"]


class _Regressor(Protocol):
    def predict(self, X: np.ndarray) -> np.ndarray: ...


class OrigamiPolicy(BalancePolicy):
    """Predicted-benefit balancer (the paper's system)."""

    name = "Origami"

    def __init__(
        self,
        model: _Regressor,
        trigger: LunuleTrigger | None = None,
        benefit_threshold_frac: float = 0.005,
        max_moves_per_epoch: int = 6,
        cooldown_epochs: int = 3,
    ):
        """``model`` maps Table-1 features to predicted migration benefit
        (trained on Meta-OPT labels).  ``benefit_threshold_frac`` sets the
        stop threshold as a fraction of the hottest MDS's epoch load — the
        "repeat until benefits fall below a specified threshold" knob.

        ``cooldown_epochs`` keeps a recently-migrated subtree pinned for a
        few epochs: under saturation, last-epoch completions understate true
        demand, and re-deciding on a subtree before its new home's load is
        observed causes hotspot ping-pong (the "progressive" transfer of
        §5.5 is exactly the absence of that thrash).

        When the trigger demands rebalancing but no predicted-benefit move
        qualifies (a cold or out-of-domain model), the policy falls back to
        observed-load export planning — the Lunule machinery underneath the
        ML layer never goes away."""
        self.model = model
        self.trigger = trigger or LunuleTrigger()
        self.benefit_threshold_frac = benefit_threshold_frac
        self.max_moves = max_moves_per_epoch
        self.cooldown_epochs = cooldown_epochs
        #: subtree root -> epoch of its last migration
        self._last_moved: dict = {}

    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        # degraded mode: dead MDSs are evacuated first and masked out of the
        # candidate machinery below (never a source worth scoring, never a
        # destination)
        evacuations = plan_evacuations(ctx)
        live = ctx.live_mds()
        # stricter than `live`: also excludes draining/parked elastic members
        src_ok = ctx.dst_mask()
        dst_idx = ctx.dst_eligible()
        if not self.trigger.should_rebalance(ctx.mds_load, ctx.pool_mask()):
            return evacuations
        pmap, tree = ctx.pmap, ctx.tree
        loads = np.asarray(ctx.mds_load, dtype=np.float64).copy()
        mean_load = loads.mean() if live is None else loads[live].mean()

        uniform = pmap.uniform_subtree_mask()
        uniform[0] = False
        cands = np.nonzero(uniform)[0]
        if cands.size == 0:
            return evacuations
        X = FeatureExtractor(tree).extract(cands, ctx.snapshot)
        benefit = self.model.predict(X)
        ctx.note_candidates(cands, benefit)
        sub_load = ctx.snapshot.subtree_ops(tree)
        # convert op counts to busy-ms so load bookkeeping shares units
        total_ops = float(ctx.snapshot.total_ops) or 1.0
        sub_load = sub_load * (loads.sum() / total_ops)
        owner = pmap.owner_array()
        threshold = float(loads.max()) * self.benefit_threshold_frac

        idx = tree.dfs_index()
        order = np.argsort(-benefit)
        decisions: List[MigrationDecision] = []
        taken: List[int] = []
        for j in order:
            j = int(j)
            if benefit[j] <= threshold:
                break
            if len(decisions) >= self.max_moves:
                break
            s = int(cands[j])
            last = self._last_moved.get(s)
            if last is not None and ctx.epoch - last < self.cooldown_epochs:
                continue  # let the previous move's effect become observable
            src = int(owner[s])
            if src_ok is not None and not src_ok[src]:
                continue  # dead/draining sources are the evacuation pass's business
            # only shed load from above-average MDSs; moving work onto the
            # hottest machine can't shrink the largest bin
            if loads[src] <= mean_load:
                continue
            if any(
                idx.tin[c] <= idx.tin[s] < idx.tout[c]
                or idx.tin[s] <= idx.tin[c] < idx.tout[s]
                for c in taken
            ):
                continue  # overlaps (either way) with an already-moved subtree
            dst = (
                int(np.argmin(loads))
                if dst_idx is None
                else int(dst_idx[np.argmin(loads[dst_idx])])
            )
            if dst == src:
                continue
            moved = float(sub_load[s])
            surplus = loads[src] - mean_load
            if moved > surplus * 1.10:
                continue  # moving more than the surplus only relocates the hotspot
            if loads[dst] + moved >= loads[src]:
                continue
            decisions.append(
                MigrationDecision(s, src, dst, predicted_benefit=float(benefit[j]))
            )
            taken.append(s)
            self._last_moved[s] = ctx.epoch
            loads[src] -= moved
            loads[dst] += moved
        if not decisions:
            from repro.balancers.lunule import plan_exports

            raw = ctx.snapshot.subtree_ops(tree)
            src = hottest_source(ctx)
            if src is not None:
                moves = plan_exports(ctx, raw, src, self.max_moves)
                decisions = [
                    MigrationDecision(s, src, dst, predicted_benefit=float(raw[s]))
                    for s, dst in moves
                    if ctx.epoch - self._last_moved.get(s, -(10**9)) >= self.cooldown_epochs
                ]
                for d in decisions:
                    self._last_moved[d.subtree_root] = ctx.epoch
        return evacuations + decisions
