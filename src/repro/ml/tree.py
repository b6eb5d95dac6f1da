"""Histogram-based regression trees (the GBDT's weak learner).

Features are pre-binned to ``uint8`` bin indices; every split decision works
on per-bin gradient histograms (one flattened ``bincount`` per node covering
all features at once), with the classic parent − sibling histogram
subtraction to halve the work.  Two growth strategies:

* ``"leaf"`` — best-first leaf-wise growth to ``max_leaves`` (LightGBM);
* ``"level"`` — breadth-first growth to ``max_depth`` (classic GBDT).

Squared-error objective: per-sample gradient = residual, hessian = 1, so a
node's optimal value is ``sum(residual) / (count + reg_lambda)`` and split
gain is the usual variance-reduction score.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Binner", "RegressionTree", "apply_binned", "unique_rows"]


def apply_binned(
    binned: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Leaf index per row for one packed tree (vectorised level walk).

    Rows that settle on a leaf drop out of the active set instead of being
    re-tested every level, so each iteration only touches rows still in
    flight.  Forest inference walks only the distinct rows of a candidate set
    (:func:`unique_rows`): an epoch's tens of thousands of candidate subtrees
    bin to a few hundred distinct rows.
    """
    n = binned.shape[0]
    node = np.zeros(n, dtype=np.int64)
    if n == 0 or feature.shape[0] == 0 or feature[0] < 0:
        return node  # root is a leaf (or nothing to do)
    rows = np.arange(n)
    while rows.size:
        cur = node[rows]
        f = feature[cur]
        nxt = np.where(binned[rows, f] <= threshold[cur], left[cur], right[cur])
        node[rows] = nxt
        rows = rows[feature[nxt] >= 0]
    return node


def unique_rows(binned: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, inverse)``: the distinct rows of a binned matrix, and for each
    input row its index into them, so ``rows[inverse]`` equals ``binned``.

    Each row is keyed on its bytes, so any feature count works.  A tree's
    output depends only on the binned row, so walking ``rows`` and gathering
    by ``inverse`` gives every row the same value as walking all of them.
    """
    binned = np.ascontiguousarray(binned, dtype=np.uint8)
    keys = binned.view(np.dtype((np.void, binned.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return binned[first], inverse


class Binner:
    """Quantile binning of a float feature matrix into uint8 bin indices."""

    def __init__(self, n_bins: int = 64):
        if not 2 <= n_bins <= 256:
            raise ValueError("n_bins must be in [2, 256]")
        self.n_bins = n_bins
        self.edges_: Optional[List[np.ndarray]] = None

    def fit(self, X: np.ndarray) -> "Binner":
        X = np.asarray(X, dtype=np.float64)
        self.edges_ = []
        qs = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        for f in range(X.shape[1]):
            edges = np.unique(np.quantile(X[:, f], qs))
            self.edges_.append(edges)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("binner not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X has {X.shape[1]} features; the binner was fitted on "
                f"{len(self.edges_)}"
            )
        out = np.empty(X.shape, dtype=np.uint8)
        for f, edges in enumerate(self.edges_):
            out[:, f] = np.searchsorted(edges, X[:, f], side="right")
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass
class _Split:
    gain: float
    feature: int
    bin_threshold: int  # go left if bin <= threshold
    left_idx: np.ndarray
    right_idx: np.ndarray
    left_hist: Tuple[np.ndarray, np.ndarray]
    right_hist: Tuple[np.ndarray, np.ndarray]


class RegressionTree:
    """One histogram regression tree over pre-binned features."""

    def __init__(
        self,
        max_leaves: int = 32,
        max_depth: int = 12,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-12,
        growth: str = "leaf",
    ):
        if growth not in ("leaf", "level"):
            raise ValueError("growth must be 'leaf' or 'level'")
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        self.growth = growth
        # flat tree arrays (filled by fit)
        self.feature: List[int] = []
        self.threshold: List[int] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []
        self.n_leaves = 0
        self.feature_gain_: Optional[np.ndarray] = None
        #: packed (feature, threshold, left, right, value) ndarray views of
        #: the node lists, built lazily — rebuilding them per predict call
        #: dominated forest inference
        self._packed: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------- internals
    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _histograms(
        self, binned: np.ndarray, grad: np.ndarray, idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(grad_hist, count_hist), each (n_features, n_bins), in one bincount."""
        n_features = binned.shape[1]
        flat = (binned[idx] + self._offsets).ravel()
        g = np.repeat(grad[idx], n_features)
        size = n_features * self._n_bins
        ghist = np.bincount(flat, weights=g, minlength=size).reshape(n_features, self._n_bins)
        chist = np.bincount(flat, minlength=size).reshape(n_features, self._n_bins)
        return ghist, chist

    def _best_split(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        idx: np.ndarray,
        hist: Tuple[np.ndarray, np.ndarray],
    ) -> Optional[_Split]:
        ghist, chist = hist
        lam = self.reg_lambda
        g_tot = ghist.sum(axis=1, keepdims=True)
        c_tot = chist.sum(axis=1, keepdims=True)
        gl = np.cumsum(ghist, axis=1)[:, :-1]
        cl = np.cumsum(chist, axis=1)[:, :-1]
        gr = g_tot - gl
        cr = c_tot - cl
        ok = (cl >= self.min_samples_leaf) & (cr >= self.min_samples_leaf)
        parent_score = (g_tot**2) / (c_tot + lam)
        gain = gl**2 / (cl + lam) + gr**2 / (cr + lam) - parent_score
        gain[~ok] = -np.inf
        f, b = np.unravel_index(np.argmax(gain), gain.shape)
        best_gain = float(gain[f, b])
        if not np.isfinite(best_gain) or best_gain <= self.min_gain:
            return None
        mask = binned[idx, f] <= b
        left_idx = idx[mask]
        right_idx = idx[~mask]
        # histogram subtraction: compute the smaller child, derive the other
        if left_idx.shape[0] <= right_idx.shape[0]:
            lh = self._histograms(binned, grad, left_idx)
            rh = (ghist - lh[0], chist - lh[1])
        else:
            rh = self._histograms(binned, grad, right_idx)
            lh = (ghist - rh[0], chist - rh[1])
        return _Split(best_gain, int(f), int(b), left_idx, right_idx, lh, rh)

    def _leaf_value(self, grad: np.ndarray, idx: np.ndarray) -> float:
        return float(grad[idx].sum() / (idx.shape[0] + self.reg_lambda))

    # ------------------------------------------------------------------ fit
    def fit(self, binned: np.ndarray, grad: np.ndarray) -> "RegressionTree":
        binned = np.asarray(binned, dtype=np.uint8)
        grad = np.asarray(grad, dtype=np.float64)
        self._packed = None  # node lists are about to change
        n, n_features = binned.shape
        self._n_bins = int(binned.max()) + 1 if n else 1
        self._offsets = (np.arange(n_features) * self._n_bins).astype(np.int64)
        self.feature_gain_ = np.zeros(n_features)

        root = self._new_node()
        all_idx = np.arange(n)
        self.value[root] = self._leaf_value(grad, all_idx)
        self.n_leaves = 1
        if n < 2 * self.min_samples_leaf:
            return self

        root_hist = self._histograms(binned, grad, all_idx)
        if self.growth == "leaf":
            self._grow_leafwise(binned, grad, root, all_idx, root_hist)
        else:
            self._grow_levelwise(binned, grad, root, all_idx, root_hist)
        return self

    def _grow_leafwise(self, binned, grad, root, all_idx, root_hist) -> None:
        heap: List[Tuple[float, int, int, _Split]] = []
        counter = 0

        def consider(node: int, idx: np.ndarray, hist) -> None:
            nonlocal counter
            split = self._best_split(binned, grad, idx, hist)
            if split is not None:
                heapq.heappush(heap, (-split.gain, counter, node, split))
                counter += 1

        consider(root, all_idx, root_hist)
        while heap and self.n_leaves < self.max_leaves:
            _, _, node, split = heapq.heappop(heap)
            lnode = self._new_node()
            rnode = self._new_node()
            self.feature[node] = split.feature
            self.threshold[node] = split.bin_threshold
            self.left[node] = lnode
            self.right[node] = rnode
            self.value[lnode] = self._leaf_value(grad, split.left_idx)
            self.value[rnode] = self._leaf_value(grad, split.right_idx)
            self.feature_gain_[split.feature] += split.gain
            self.n_leaves += 1  # one leaf became two
            consider(lnode, split.left_idx, split.left_hist)
            consider(rnode, split.right_idx, split.right_hist)

    def _grow_levelwise(self, binned, grad, root, all_idx, root_hist) -> None:
        frontier = [(root, all_idx, root_hist)]
        for _depth in range(self.max_depth):
            nxt = []
            for node, idx, hist in frontier:
                split = self._best_split(binned, grad, idx, hist)
                if split is None:
                    continue
                lnode = self._new_node()
                rnode = self._new_node()
                self.feature[node] = split.feature
                self.threshold[node] = split.bin_threshold
                self.left[node] = lnode
                self.right[node] = rnode
                self.value[lnode] = self._leaf_value(grad, split.left_idx)
                self.value[rnode] = self._leaf_value(grad, split.right_idx)
                self.feature_gain_[split.feature] += split.gain
                self.n_leaves += 1
                nxt.append((lnode, split.left_idx, split.left_hist))
                nxt.append((rnode, split.right_idx, split.right_hist))
            frontier = nxt
            if not frontier:
                break

    # -------------------------------------------------------------- predict
    def packed(self) -> Tuple[np.ndarray, ...]:
        """Node lists as flat ndarrays ``(feature, threshold, left, right,
        value)``, cached until the next :meth:`fit`."""
        p = self._packed
        if p is None:
            p = self._packed = (
                np.asarray(self.feature, dtype=np.int64),
                np.asarray(self.threshold, dtype=np.int64),
                np.asarray(self.left, dtype=np.int64),
                np.asarray(self.right, dtype=np.int64),
                np.asarray(self.value, dtype=np.float64),
            )
        return p

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predict from pre-binned features (vectorised level walk)."""
        binned = np.asarray(binned, dtype=np.uint8)
        feature, threshold, left, right, value = self.packed()
        return value[apply_binned(binned, feature, threshold, left, right)]
