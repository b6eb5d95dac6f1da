"""AdaM-style reinforcement-learning balancer (related-work baseline [14]).

AdaM (Huang et al., IEEE/ACM ToN 2023) adapts metadata balancing with deep
RL.  This is a tabular-scale homage for comparison purposes: a Q-learning
agent whose *state* is the discretised cluster condition (imbalance bucket ×
utilisation bucket), whose *actions* choose how aggressively to export
subtrees from the hottest MDS this epoch (do nothing / gentle / moderate /
aggressive), and whose *reward* is the improvement in next-epoch imbalance
minus a migration-churn penalty.

It learns online with ε-greedy exploration — no offline phase — and
converges to "export moderately when imbalanced, sit still when balanced"
on stationary workloads.  Its purpose in this repo is the ablation
comparison: popularity-RL adapts the *amount* of balancing but still cannot
price locality, which is exactly Origami's edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.balancers.base import (
    BalancePolicy,
    EpochContext,
    hottest_source,
    plan_evacuations,
)
from repro.balancers.lunule import plan_exports
from repro.cluster.imbalance import imbalance_factor
from repro.cluster.migration import MigrationDecision

__all__ = ["AdamRLPolicy"]

#: export aggressiveness per action: (max moves, budget multiplier)
_ACTIONS: Tuple[Tuple[int, float], ...] = ((0, 0.0), (2, 0.6), (4, 1.0), (8, 1.5))


class AdamRLPolicy(BalancePolicy):
    """Tabular Q-learning over balancing aggressiveness."""

    name = "AdaM-RL"

    def __init__(
        self,
        learning_rate: float = 0.3,
        discount: float = 0.7,
        epsilon: float = 0.15,
        epsilon_decay: float = 0.97,
        churn_penalty: float = 0.02,
        seed: int = 0,
        imbalance_buckets: int = 5,
        util_buckets: int = 3,
    ):
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 <= discount < 1:
            raise ValueError("discount must be in [0, 1)")
        self.learning_rate = learning_rate
        self.discount = discount
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.churn_penalty = churn_penalty
        self.imbalance_buckets = imbalance_buckets
        self.util_buckets = util_buckets
        self._rng = np.random.default_rng(seed)
        #: Q[state][action]
        self.q: Dict[Tuple[int, int], np.ndarray] = {}
        self._pending: Optional[Tuple[Tuple[int, int], int, int]] = None
        self.updates = 0

    # ----------------------------------------------------------------- state
    def _state(self, loads: np.ndarray) -> Tuple[int, int]:
        total = float(loads.sum())
        imb = imbalance_factor(loads) if total > 0 else 0.0
        i_bucket = min(int(imb * self.imbalance_buckets), self.imbalance_buckets - 1)
        # utilisation proxy: is any server near its epoch capacity?
        util = float(loads.max()) / max(total / loads.size * loads.size, 1e-9)
        u_bucket = min(int(util * self.util_buckets), self.util_buckets - 1)
        return (i_bucket, u_bucket)

    def _q_row(self, state: Tuple[int, int]) -> np.ndarray:
        row = self.q.get(state)
        if row is None:
            row = np.zeros(len(_ACTIONS))
            self.q[state] = row
        return row

    # ---------------------------------------------------------------- update
    def _learn(self, new_state: Tuple[int, int], loads: np.ndarray) -> None:
        if self._pending is None:
            return
        state, action, moves_made = self._pending
        # reward: low imbalance is good; churn costs
        reward = -imbalance_factor(loads) - self.churn_penalty * moves_made
        row = self._q_row(state)
        best_next = float(self._q_row(new_state).max())
        row[action] += self.learning_rate * (
            reward + self.discount * best_next - row[action]
        )
        self.updates += 1
        self._pending = None

    # ------------------------------------------------------------- rebalance
    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        # dead MDSs are evacuated first, whatever the agent decides
        evacuations = plan_evacuations(ctx)
        loads = np.asarray(ctx.mds_load, dtype=np.float64)
        pool = ctx.pool_mask()  # parked capacity is not imbalance
        if pool is not None:
            loads = loads[pool]
        if loads.size <= 1 or loads.sum() <= 0:
            return evacuations
        state = self._state(loads)
        self._learn(state, loads)

        row = self._q_row(state)
        if self._rng.random() < self.epsilon:
            action = int(self._rng.integers(0, len(_ACTIONS)))
        else:
            action = int(np.argmax(row))
        self.epsilon *= self.epsilon_decay

        max_moves, budget_mult = _ACTIONS[action]
        decisions: List[MigrationDecision] = []
        src = hottest_source(ctx) if max_moves > 0 else None
        if src is not None:
            sub = ctx.snapshot.subtree_ops(ctx.tree)
            moves = plan_exports(ctx, sub, src, max_moves, aggressiveness=budget_mult)
            decisions = [
                MigrationDecision(s, src, dst, predicted_benefit=float(sub[s]))
                for s, dst in moves
            ]
        self._pending = (state, action, len(decisions))
        return evacuations + decisions
