"""Lunule-style heuristic subtree balancer.

Reproduces the load-monitoring + trigger + bin-packing-style selection the
paper attributes to Lunule [39] and reuses as the trigger for both ML-tree
and Origami: when the imbalance factor exceeds the trigger threshold, the
most-loaded MDS exports subtrees until its estimated surplus is shed, each
export going to the *currently* least-loaded MDS (the load estimate is
updated move by move, so one epoch spreads exports over several receivers
instead of dog-piling one).  Selection is purely popularity-driven — the
classic strategy whose locality-blindness motivates the paper.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.balancers.base import (
    BalancePolicy,
    EpochContext,
    LunuleTrigger,
    hottest_source,
    plan_evacuations,
)
from repro.cluster.migration import MigrationDecision

__all__ = ["LunulePolicy", "plan_exports"]


def plan_exports(
    ctx: EpochContext,
    load_by_subtree: np.ndarray,
    src: int,
    max_moves: int,
    aggressiveness: float = 1.0,
    min_share: float = 0.02,
) -> List[Tuple[int, int]]:
    """Plan (subtree, dst) exports that shed ``src``'s surplus busy time.

    ``load_by_subtree`` is in op counts (observed or predicted); it is
    converted to busy-ms through the source's own observed totals so the
    bookkeeping shares units with ``ctx.mds_load``.  Returns at most
    ``max_moves`` moves; nested subtrees are never double-exported.
    """
    pmap, tree = ctx.pmap, ctx.tree
    loads = np.asarray(ctx.mds_load, dtype=np.float64)
    owner = pmap.owner_array()
    per_dir = ctx.snapshot.dir_ops(tree.capacity)
    dirs_of_src = np.nonzero((owner == src) & tree.dir_mask()[: owner.shape[0]])[0]
    src_ops = float(per_dir[dirs_of_src].sum())
    if src_ops <= 0 or loads[src] <= 0:
        return []
    ms_per_op = float(loads[src]) / src_ops

    uniform = pmap.uniform_subtree_mask()
    uniform[0] = False
    cands = np.nonzero(uniform & (owner == src))[0]
    if cands.size == 0:
        return []
    order = cands[np.argsort(-load_by_subtree[cands])]
    idx = tree.dfs_index()
    mean = loads.mean()
    # export destinations: everyone but the source — minus MDSs that are
    # dead (fault outage) or draining/parked (elastic departure): a
    # migration must never target a server mid-departure
    others = np.delete(np.arange(loads.shape[0]), src)
    dst_ok = ctx.dst_mask()
    if dst_ok is not None:
        others = others[dst_ok[others]]
    if others.size == 0:
        return []

    est = loads.copy()
    chosen: List[Tuple[int, int]] = []
    floor = max(1e-9, (loads[src] - mean) * min_share)
    for s in order:
        s = int(s)
        surplus = (est[src] - mean) * aggressiveness
        if surplus <= floor or len(chosen) >= max_moves:
            break
        move_ms = float(load_by_subtree[s]) * ms_per_op
        if move_ms <= floor:
            break  # remaining candidates are dust (sorted descending)
        if move_ms > surplus * 1.10:
            continue  # too big for what is left to shed
        if any(
            idx.tin[c] <= idx.tin[s] < idx.tout[c]
            or idx.tin[s] <= idx.tin[c] < idx.tout[s]
            for c, _ in chosen
        ):
            continue  # overlaps (either way) with an already-exported subtree
        dst = int(others[np.argmin(est[others])])
        chosen.append((s, dst))
        est[src] -= move_ms
        est[dst] += move_ms
    return chosen


class LunulePolicy(BalancePolicy):
    """Observed-load heuristic: shed the surplus of the hottest MDS."""

    name = "Lunule"

    def __init__(
        self,
        trigger: LunuleTrigger | None = None,
        max_moves_per_epoch: int = 8,
    ):
        self.trigger = trigger or LunuleTrigger()
        self.max_moves = max_moves_per_epoch

    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        # dead MDSs are evacuated unconditionally — before (and regardless
        # of) the load trigger: authority on a corpse serves nobody
        evacuations = plan_evacuations(ctx)
        if not self.trigger.should_rebalance(ctx.mds_load, ctx.pool_mask()):
            return evacuations
        src = hottest_source(ctx)
        if src is None:
            return evacuations
        sub_loads = ctx.snapshot.subtree_ops(ctx.tree)
        moves = plan_exports(ctx, sub_loads, src, self.max_moves)
        return evacuations + [
            MigrationDecision(s, src, dst, predicted_benefit=float(sub_loads[s]))
            for s, dst in moves
        ]
