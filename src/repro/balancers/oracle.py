"""Meta-OPT oracle policy: Algorithm 1 with the future actually known.

This is the upper bound the ML models are trained to approximate — it reads
``ctx.oracle_window`` (the next window of requests) and runs the full greedy
search.  Used for label generation (§4.3) and as a ceiling in ablations; a
real deployment cannot run it.
"""

from __future__ import annotations

from typing import List

from repro.balancers.base import BalancePolicy, EpochContext, LunuleTrigger, plan_evacuations
from repro.cluster.migration import MigrationDecision
from repro.core.metaopt import meta_opt

__all__ = ["MetaOptOraclePolicy"]


class MetaOptOraclePolicy(BalancePolicy):
    """Runs Meta-OPT on the (oracle-provided) next request window."""

    name = "Meta-OPT"

    def __init__(
        self,
        delta: float,
        trigger: LunuleTrigger | None = None,
        stop_threshold: float = 0.0,
        max_migrations_per_epoch: int = 16,
    ):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.trigger = trigger or LunuleTrigger()
        self.stop_threshold = stop_threshold
        self.max_migrations = max_migrations_per_epoch

    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        # dead MDSs are evacuated first, whatever the trigger says
        evacuations = plan_evacuations(ctx)
        if ctx.oracle_window is None or len(ctx.oracle_window) == 0:
            return evacuations
        if not self.trigger.should_rebalance(ctx.mds_load, ctx.pool_mask()):
            return evacuations
        result = meta_opt(
            ctx.oracle_window,
            ctx.tree,
            ctx.pmap,
            ctx.params,
            delta=self.delta,
            stop_threshold=self.stop_threshold,
            max_migrations=self.max_migrations,
            eligible=ctx.dst_mask(),  # dead/draining/parked: neither src nor dst
        )
        if result.decisions:
            # the "candidate set" of a search is what it chose to evaluate;
            # log the chosen moves with their exact-JCT predicted benefits
            ctx.note_candidates(
                [d.subtree_root for d in result.decisions],
                [d.predicted_benefit for d in result.decisions],
            )
        return evacuations + result.decisions
