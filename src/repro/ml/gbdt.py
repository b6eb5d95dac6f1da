"""Gradient-boosted regression trees (LightGBM-style and classic).

Squared-error boosting: ``F_0 = mean(y)``; each round fits a histogram tree
to the residuals and adds it with shrinkage ``learning_rate``.  The paper's
production model is LightGBM with **400 boosting rounds and 32 leaves**
(§4.3) — that is this class's default configuration with ``growth="leaf"``.

Feature importance is accumulated split gain, the "Gini importance" LightGBM
reports and Table 1 ranks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.tree import Binner, RegressionTree, apply_binned, unique_rows

__all__ = ["GBDTRegressor"]


class GBDTRegressor:
    """Boosted histogram trees for regression.

    ``max_depth`` bounds only ``growth="level"`` trees; leaf-wise trees are
    limited by ``max_leaves`` alone and can grow deeper than ``max_depth``.
    """

    def __init__(
        self,
        n_estimators: int = 400,
        learning_rate: float = 0.1,
        max_leaves: int = 32,
        max_depth: int = 6,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        n_bins: int = 64,
        growth: str = "leaf",
        early_stopping_rounds: Optional[int] = None,
    ):
        if n_estimators < 1:
            raise ValueError("need at least one boosting round")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.n_bins = n_bins
        self.growth = growth
        self.early_stopping_rounds = early_stopping_rounds
        self.trees_: List[RegressionTree] = []
        self.base_: float = 0.0
        self.binner_: Optional[Binner] = None
        self.train_losses_: List[float] = []
        self.valid_losses_: List[float] = []
        #: packed forest for batched inference: per-tree flat node arrays
        #: with the shrinkage pre-folded into the leaf values (lazily built,
        #: dropped on refit)
        self._forest_: Optional[List[Tuple[np.ndarray, ...]]] = None

    @property
    def n_features_(self) -> int:
        if self.binner_ is None or self.binner_.edges_ is None:
            raise RuntimeError("model not fitted")
        return len(self.binner_.edges_)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "GBDTRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X must be (n, f) with matching non-empty y")
        self.binner_ = Binner(self.n_bins)
        self._forest_ = None
        binned = self.binner_.fit_transform(X)
        # a tree's output depends only on the binned row: each round's update
        # walks the distinct rows once and gathers per row
        rows, inverse = unique_rows(binned)
        self.base_ = float(y.mean())
        pred = np.full(y.shape[0], self.base_)
        self.trees_ = []
        self.train_losses_ = []
        self.valid_losses_ = []

        vrows = vinverse = vy = vpred = None
        if eval_set is not None:
            vX, vy = eval_set
            vrows, vinverse = unique_rows(
                self.binner_.transform(np.asarray(vX, dtype=np.float64))
            )
            vy = np.asarray(vy, dtype=np.float64)
            vpred = np.full(vy.shape[0], self.base_)
        best_valid = np.inf
        best_round = 0

        for r in range(self.n_estimators):
            residual = y - pred
            tree = RegressionTree(
                max_leaves=self.max_leaves,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
                growth=self.growth,
            )
            tree.fit(binned, residual)
            self.trees_.append(tree)
            pred += (self.learning_rate * tree.predict_binned(rows))[inverse]
            self.train_losses_.append(float(np.mean((y - pred) ** 2)))
            if vrows is not None:
                vpred += (self.learning_rate * tree.predict_binned(vrows))[vinverse]
                vloss = float(np.mean((vy - vpred) ** 2))
                self.valid_losses_.append(vloss)
                if vloss < best_valid - 1e-15:
                    best_valid = vloss
                    best_round = r
                elif (
                    self.early_stopping_rounds is not None
                    and r - best_round >= self.early_stopping_rounds
                ):
                    self.trees_ = self.trees_[: best_round + 1]
                    break
        return self

    def _packed_forest(self) -> List[Tuple[np.ndarray, ...]]:
        forest = self._forest_
        if forest is None or len(forest) != len(self.trees_):
            lr = self.learning_rate
            # pre-scaling each leaf once is bit-identical to scaling every
            # per-sample gather (same operands, one multiply per leaf instead
            # of one per row per tree)
            forest = self._forest_ = [
                t.packed()[:4] + (lr * t.packed()[4],) for t in self.trees_
            ]
        return forest

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("model not fitted")
        rows, inverse = unique_rows(
            self.binner_.transform(np.asarray(X, dtype=np.float64))
        )
        out = np.full(rows.shape[0], self.base_)
        # per-tree, in boosting order: float accumulation order is part of
        # the model's observable output and must not change.  Each distinct
        # binned row accumulates exactly what every copy of it would.
        for feature, threshold, left, right, scaled in self._packed_forest():
            out += scaled[apply_binned(rows, feature, threshold, left, right)]
        return out[inverse]

    def feature_importances(self, normalize: bool = True) -> np.ndarray:
        """Total split gain per feature (Table 1's Gini importance)."""
        if not self.trees_:
            raise RuntimeError("model not fitted")
        total = np.zeros(self.n_features_)
        for tree in self.trees_:
            if tree.feature_gain_ is not None:
                total += tree.feature_gain_
        if normalize and total.sum() > 0:
            total = total / total.sum()
        return total
