"""Online continual learning: Origami without an offline training phase.

The paper trains the benefit model offline from collector dumps (§4.3) and
validates it online.  A natural extension — flagged by the paper's framing
of OrigamiFS as "ML-native" — is to close the loop entirely: generate the
Bélády-style labels *during* the run (at each epoch boundary, the window
that just replayed is a known "future" for the previous epoch's features)
and periodically retrain the model in place.

:class:`OnlineOrigamiPolicy` does exactly that.  It starts cold (no model:
the first epochs fall back to observed-load export planning, i.e. Lunule
behaviour), accumulates hindsight-labelled samples every epoch, trains its
first GBDT once enough samples exist, and refreshes it periodically — so it
adapts to workload families it has never seen.
"""

from __future__ import annotations

from typing import List, Optional

from repro.balancers.base import EpochContext, LunuleTrigger
from repro.balancers.lunule import LunulePolicy
from repro.cluster.migration import MigrationDecision
from repro.core.labels import generate_labels
from repro.core.origami import OrigamiPolicy
from repro.ml.dataset import FeatureExtractor, TrainingSet
from repro.ml.gbdt import GBDTRegressor
from repro.namespace.stats import EpochSnapshot

__all__ = ["OnlineOrigamiPolicy"]


class OnlineOrigamiPolicy(OrigamiPolicy):
    """Origami that trains (and keeps retraining) itself during the run."""

    name = "Origami-online"

    def __init__(
        self,
        delta: float = 50.0,
        trigger: Optional[LunuleTrigger] = None,
        retrain_every: int = 4,
        min_samples: int = 500,
        gbdt_rounds: int = 60,
        max_samples: int = 50_000,
        **origami_kwargs,
    ):
        """``delta`` — the Δ guard used when labelling hindsight windows;
        ``retrain_every`` — epochs between model refreshes; ``min_samples``
        — samples required before the first model trains (until then the
        policy plans exports from observed load)."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        super().__init__(model=None, trigger=trigger, **origami_kwargs)  # type: ignore[arg-type]
        self.delta = delta
        self.retrain_every = retrain_every
        self.min_samples = min_samples
        self.gbdt_rounds = gbdt_rounds
        self.max_samples = max_samples
        self.dataset = TrainingSet()
        self.retrain_count = 0
        self._prev_snapshot: Optional[EpochSnapshot] = None
        self._last_trained_epoch = -(10**9)
        #: what the policy is until its first model trains
        self._cold_start = LunulePolicy(self.trigger, self.max_moves)

    # ------------------------------------------------------------- learning
    def _learn_from_hindsight(self, ctx: EpochContext) -> None:
        """Label the window that just replayed against the partition it ran
        under; features come from the *previous* epoch's snapshot — the same
        (features @ t-1, benefit over window t) pairing the offline pipeline
        produces."""
        window = ctx.completed_window
        if window is None or len(window) == 0 or self._prev_snapshot is None:
            return
        labelled = generate_labels(
            window, ctx.tree, ctx.pmap, ctx.params, delta=self.delta, epoch=ctx.epoch
        )
        if labelled.candidates.size == 0:
            return
        X = FeatureExtractor(ctx.tree).extract(labelled.candidates, self._prev_snapshot)
        self.dataset.add(X, labelled.benefits)
        # bound memory: drop the oldest epochs once past the sample cap
        while self.dataset.n_samples > self.max_samples and len(self.dataset.X_parts) > 1:
            self.dataset.X_parts.pop(0)
            self.dataset.y_parts.pop(0)

    def _maybe_retrain(self, ctx: EpochContext) -> None:
        due = ctx.epoch - self._last_trained_epoch >= self.retrain_every
        ready = self.dataset.n_samples >= self.min_samples
        if not (due and ready):
            return
        X, y = self.dataset.matrices()
        model = GBDTRegressor(
            n_estimators=self.gbdt_rounds, max_leaves=32, learning_rate=0.1, growth="leaf"
        )
        model.fit(X, y)
        self.model = model
        self.retrain_count += 1
        self._last_trained_epoch = ctx.epoch

    # ------------------------------------------------------------ rebalance
    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        self._learn_from_hindsight(ctx)
        self._maybe_retrain(ctx)
        snapshot = ctx.snapshot
        try:
            if self.model is not None:
                return super().rebalance(ctx)
            # cold start: observed-load export planning (and evacuation of
            # dead MDSs) until a model exists
            return self._cold_start.rebalance(ctx)
        finally:
            self._prev_snapshot = snapshot
