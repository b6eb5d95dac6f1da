"""Table-1 features: extraction and normalisation.

Per candidate subtree the Data Collector yields two statistic families
(§4.3): namespace structure (depth, # sub-files, # sub-dirs — *subtree*
totals, since migration happens at subtree granularity) and last-epoch
access history (# metadata reads, # writes — again subtree totals), plus the
two derived ratios.  Normalisation follows Table 1 exactly:

====================  =========================================
feature               normalisation
====================  =========================================
depth                 by the max value (this dump)
# sub-files           by the max value
# sub-dirs            by the max value
# read                by # total accesses in last epoch
# write               by # total accesses in last epoch
read-write ratio      raw
dir-file ratio        raw
====================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.namespace.stats import EpochSnapshot, padded
from repro.namespace.tree import NamespaceTree

__all__ = ["FEATURE_NAMES", "FeatureExtractor", "TrainingSet"]

FEATURE_NAMES: Tuple[str, ...] = (
    "depth",
    "n_sub_files",
    "n_sub_dirs",
    "n_read",
    "n_write",
    "read_write_ratio",
    "dir_file_ratio",
)


class FeatureExtractor:
    """Builds the 7-column Table-1 feature matrix for candidate subtrees."""

    def __init__(self, tree: NamespaceTree):
        self.tree = tree

    def extract(
        self, candidates: np.ndarray, snapshot: EpochSnapshot
    ) -> np.ndarray:
        """Feature matrix (n_candidates × 7) for one epoch snapshot."""
        tree = self.tree
        cap = tree.capacity
        idx = tree.dfs_index()
        candidates = np.asarray(candidates, dtype=np.int64)

        # subtree structure rollups
        files_sub = idx.subtree_sum(padded(tree.child_file_counts(), cap))
        dirs_per = np.ones(cap, dtype=np.float64)
        dirs_per[~tree.dir_mask()] = 0.0
        dirs_sub = idx.subtree_sum(dirs_per) - dirs_per  # exclude the root itself
        depths = tree.depth_array().astype(np.float64)

        # subtree access rollups (reads include lsdir per the paper's grouping)
        reads_sub = idx.subtree_sum(padded(snapshot.reads, cap))
        writes_sub = idx.subtree_sum(padded(snapshot.writes, cap))
        total_access = float(snapshot.total_ops)

        depth_c = depths[candidates]
        files_c = files_sub[candidates]
        dirs_c = dirs_sub[candidates]
        reads_c = reads_sub[candidates]
        writes_c = writes_sub[candidates]

        max_depth = depth_c.max() if depth_c.size else 1.0
        max_files = files_c.max() if files_c.size else 1.0
        max_dirs = dirs_c.max() if dirs_c.size else 1.0

        def safe_div(a: np.ndarray, b: float) -> np.ndarray:
            return a / b if b > 0 else np.zeros_like(a)

        rw_ratio = reads_c / np.maximum(writes_c + reads_c, 1.0)
        df_ratio = dirs_c / np.maximum(files_c + dirs_c, 1.0)

        X = np.column_stack(
            [
                safe_div(depth_c, max_depth),
                safe_div(files_c, max_files),
                safe_div(dirs_c, max_dirs),
                safe_div(reads_c, total_access),
                safe_div(writes_c, total_access),
                rw_ratio,
                df_ratio,
            ]
        )
        return X


@dataclass
class TrainingSet:
    """Accumulated (features, benefit label) pairs across epochs."""

    X_parts: List[np.ndarray] = field(default_factory=list)
    y_parts: List[np.ndarray] = field(default_factory=list)

    def add(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"X must be (n, {len(FEATURE_NAMES)})")
        if y.shape[0] != X.shape[0]:
            raise ValueError("label length mismatch")
        self.X_parts.append(X)
        self.y_parts.append(y)

    @property
    def n_samples(self) -> int:
        return sum(x.shape[0] for x in self.X_parts)

    def matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.X_parts:
            return (
                np.empty((0, len(FEATURE_NAMES))),
                np.empty(0),
            )
        return np.vstack(self.X_parts), np.concatenate(self.y_parts)

    def train_test_split(
        self, test_fraction: float = 0.2, seed: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        X, y = self.matrices()
        n = X.shape[0]
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        n_test = int(n * test_fraction)
        test, train = perm[:n_test], perm[n_test:]
        return X[train], y[train], X[test], y[test]
