"""ML-tree: the popularity-predicting ML baseline (LoADM-style, [42]).

Uses the same model family as Origami (LightGBM-style GBDT over the Table-1
features) but predicts next-epoch subtree *popularity* (load) rather than
migration benefit, then balances on those predictions with the same
export-selection mechanics as Lunule.  This is the strategy the paper shows
"tends to overlook the negative impact of migration operations" and makes
"aggressive migration decisions": it happily exports large near-root
subtrees because predicted load is the only criterion.
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
from repro.balancers.lunule import plan_exports
from repro.cluster.migration import MigrationDecision
from repro.ml.dataset import FeatureExtractor

__all__ = ["MLTreePolicy"]


class _Regressor(Protocol):
    def predict(self, X: np.ndarray) -> np.ndarray: ...


class MLTreePolicy(BalancePolicy):
    """Predicted-popularity balancer."""

    name = "ML-tree"

    def __init__(
        self,
        model: Optional[_Regressor] = None,
        trigger: LunuleTrigger | None = None,
        max_moves_per_epoch: int = 8,
        aggressiveness: float = 1.2,
        cooldown_epochs: int = 3,
    ):
        """``model`` predicts next-epoch per-directory popularity from the
        Table-1 features; ``None`` falls back to last-epoch observed load
        (persistence prediction — the natural untrained baseline).

        LoADM migrates at *directory* granularity: candidates are ranked by
        the directory's own load, not the subtree rollup, so the policy
        chases deep hot directories and pays the boundary-crossing overhead
        it never models.  ``aggressiveness`` scales the transfer budget above
        the plain surplus — the over-migration the paper observes in
        popularity-based strategies."""
        self.model = model
        self.trigger = trigger or LunuleTrigger()
        self.max_moves = max_moves_per_epoch
        self.aggressiveness = aggressiveness
        self.cooldown_epochs = cooldown_epochs
        self._last_moved: dict = {}

    def _predicted_dir_loads(self, ctx: EpochContext) -> np.ndarray:
        observed = ctx.snapshot.dir_ops(ctx.tree.capacity)
        if self.model is None:
            return observed
        uniform = ctx.pmap.uniform_subtree_mask()
        uniform[0] = False
        cands = np.nonzero(uniform)[0]
        if cands.size == 0:
            return observed
        X = FeatureExtractor(ctx.tree).extract(cands, ctx.snapshot)
        pred = np.maximum(self.model.predict(X), 0.0)
        out = np.zeros_like(observed)
        out[cands] = pred
        return out

    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        # dead MDSs are evacuated first, whatever the trigger says
        evacuations = plan_evacuations(ctx)
        if not self.trigger.should_rebalance(ctx.mds_load, ctx.pool_mask()):
            return evacuations
        src = hottest_source(ctx)
        if src is None:
            return evacuations
        pred_loads = self._predicted_dir_loads(ctx)
        # pin recently-moved subtrees for a few epochs (anti-ping-pong)
        for s_root, moved_at in list(self._last_moved.items()):
            if ctx.epoch - moved_at < self.cooldown_epochs:
                if s_root < pred_loads.shape[0]:
                    pred_loads[s_root] = 0.0
            else:
                del self._last_moved[s_root]
        moves = plan_exports(
            ctx, pred_loads, src, self.max_moves, aggressiveness=self.aggressiveness
        )
        for s_root, _dst in moves:
            self._last_moved[s_root] = ctx.epoch
        return evacuations + [
            MigrationDecision(s, src, dst, predicted_benefit=float(pred_loads[s]))
            for s, dst in moves
        ]
