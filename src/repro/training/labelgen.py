"""Epoch-driven label generation against the analytic cost model.

The DES is the measurement instrument; training data comes from this much
faster analytic replay (the same Eq. 1/2 costs, no queueing), because Meta-
OPT label generation needs hundreds of epoch evaluations.  The features are
computed from the *ended* epoch's statistics and the labels from the *next*
window's Meta-OPT benefits — the model learns "given what the collector just
dumped, how much would migrating this subtree help the immediate future".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.partition import PartitionMap
from repro.core.labels import generate_labels
from repro.core.metaopt import meta_opt
from repro.costmodel.optypes import CATEGORY_ARRAY, CATEGORY_NSMUT
from repro.costmodel.params import CostParams
from repro.ml.dataset import FeatureExtractor, TrainingSet
from repro.namespace.stats import AccessStats
from repro.namespace.tree import NamespaceTree
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

__all__ = ["collect_training_data", "record_window"]


def record_window(stats: AccessStats, window: "Trace") -> None:
    """Charge a trace window's ops into the collector counters (vectorised)."""
    dirs = np.clip(window.dir_ino, 0, stats.tree.capacity - 1)
    is_write = CATEGORY_ARRAY[window.op] == CATEGORY_NSMUT
    stats.charge(dirs[~is_write], dirs[is_write])


def collect_training_data(
    tree: NamespaceTree,
    trace: "Trace",
    n_mds: int,
    params: CostParams,
    delta: float,
    ops_per_epoch: int = 5000,
    apply_migrations: bool = True,
    max_migrations_per_epoch: int = 8,
    max_epochs: Optional[int] = None,
) -> Tuple[TrainingSet, PartitionMap]:
    """Run the §4.3 label-generation loop; returns the dataset and the final
    partition (useful for warm-starting validation runs).

    Per epoch ``e``: features ← epoch ``e``'s collector stats; labels ←
    Meta-OPT benefits on window ``e+1``; then (optionally) apply the best
    decisions so epoch ``e+1`` is observed under the improved partition.
    """
    pmap = PartitionMap(tree, n_mds=n_mds)  # OrigamiFS initial state: all on MDS 0
    stats = AccessStats(tree)
    extractor = FeatureExtractor(tree)
    dataset = TrainingSet()

    windows: List["Trace"] = [w for _, w in trace.epochs(ops_per_epoch)]
    n_epochs = len(windows) - 1  # the last window has no "next" to label from
    if max_epochs is not None:
        n_epochs = min(n_epochs, max_epochs)

    for e in range(n_epochs):
        record_window(stats, windows[e])
        snapshot = stats.snapshot_and_reset()
        future = windows[e + 1]
        labelled = generate_labels(future, tree, pmap, params, delta=delta, epoch=e)
        if labelled.candidates.size:
            X = extractor.extract(labelled.candidates, snapshot)
            dataset.add(X, labelled.benefits)
        if apply_migrations:
            result = meta_opt(
                future,
                tree,
                pmap,
                params,
                delta=delta,
                max_migrations=max_migrations_per_epoch,
            )
            for d in result.decisions:
                pmap.migrate_subtree(d.subtree_root, d.dst)
    return dataset, pmap
