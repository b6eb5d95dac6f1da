"""Per-directory access statistics (the Data Collector's raw counters).

The paper's Data Collector dumps, per directory and per epoch, the number of
metadata *read* ops (open/stat/lsdir) and *write* ops (create/mkdir/rmdir/
rename) charged to the subtree.  :class:`AccessStats` keeps the per-directory
counters; subtree totals come from the tree's DFS index in one vectorised
pass, because migration (and therefore the features in Table 1) operates on
subtrees, not single directories.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.namespace.tree import NamespaceTree

__all__ = ["AccessStats", "EpochSnapshot"]


class EpochSnapshot:
    """Frozen per-epoch counters (arrays indexed by ino)."""

    __slots__ = ("epoch", "reads", "writes", "lsdirs")

    def __init__(self, epoch: int, reads: np.ndarray, writes: np.ndarray, lsdirs: np.ndarray):
        self.epoch = epoch
        self.reads = reads
        self.writes = writes
        self.lsdirs = lsdirs

    @property
    def total_ops(self) -> int:
        return int(self.reads.sum() + self.writes.sum())


class AccessStats:
    """Accumulates per-directory read/write/lsdir counts for the current epoch.

    Counts are charged to the *owning directory* of the accessed entry (files
    charge their parent), matching the directory-granularity collection the
    paper uses to keep collector overhead low.
    """

    def __init__(self, tree: NamespaceTree):
        self._tree = tree
        cap = max(tree.capacity, 16)
        self._reads = np.zeros(cap, dtype=np.int64)
        self._writes = np.zeros(cap, dtype=np.int64)
        self._lsdirs = np.zeros(cap, dtype=np.int64)
        self._epoch = 0
        #: number of times the counter arrays were physically reallocated;
        #: doubling keeps this O(log capacity) regardless of op count
        self.growths = 0
        # deferred per-epoch op buffers (the client loop appends bare dir
        # inos here instead of incrementing counters per op); any counter
        # read flushes them first via np.add.at
        self._buf_reads: list = []
        self._buf_writes: list = []
        self._buf_lsdirs: list = []

    @property
    def epoch(self) -> int:
        return self._epoch

    def _ensure(self, ino: int) -> None:
        if ino >= self._reads.shape[0]:
            new_cap = max(ino + 1, self._reads.shape[0] * 2)
            for attr in ("_reads", "_writes", "_lsdirs"):
                old = getattr(self, attr)
                grown = np.zeros(new_cap, dtype=np.int64)
                grown[: old.shape[0]] = old
                setattr(self, attr, grown)
            self.growths += 1

    def _flush_buffers(self) -> None:
        """Fold the deferred op buffers into the counter arrays."""
        for buf, arrs in (
            (self._buf_reads, ("_reads",)),
            (self._buf_writes, ("_writes",)),
            (self._buf_lsdirs, ("_reads", "_lsdirs")),
        ):
            if not buf:
                continue
            self._ensure(max(buf))
            idx = np.asarray(buf, dtype=np.int64)
            for attr in arrs:
                np.add.at(getattr(self, attr), idx, 1)
            buf.clear()

    # ------------------------------------------------------------- recording
    def record_read(self, dir_ino: int, n: int = 1) -> None:
        self._ensure(dir_ino)
        self._reads[dir_ino] += n

    def record_write(self, dir_ino: int, n: int = 1) -> None:
        self._ensure(dir_ino)
        self._writes[dir_ino] += n

    def record_lsdir(self, dir_ino: int, n: int = 1) -> None:
        """lsdir counts as a read but is also tracked separately: its extra
        cost term in Eq. (2) scales with how many MDSs hold the children."""
        self._ensure(dir_ino)
        self._reads[dir_ino] += n
        self._lsdirs[dir_ino] += n

    # -------------------------------------------------------------- snapshot
    def views(self) -> Dict[str, np.ndarray]:
        """Live (mutable) views of the counters, sized to tree capacity."""
        self._flush_buffers()
        self._ensure(self._tree.capacity - 1)
        cap = self._tree.capacity
        return {
            "reads": self._reads[:cap],
            "writes": self._writes[:cap],
            "lsdirs": self._lsdirs[:cap],
        }

    def snapshot_and_reset(self) -> EpochSnapshot:
        """Freeze the epoch's counters, advance the epoch, zero the live ones."""
        self._flush_buffers()
        self._ensure(self._tree.capacity - 1)
        cap = self._tree.capacity
        snap = EpochSnapshot(
            self._epoch,
            self._reads[:cap].copy(),
            self._writes[:cap].copy(),
            self._lsdirs[:cap].copy(),
        )
        # nothing past the tree's capacity is ever counted; zeroing the
        # doubled tail would only fault its pages in
        self._reads[:cap] = 0
        self._writes[:cap] = 0
        self._lsdirs[:cap] = 0
        self._epoch += 1
        return snap

    # --------------------------------------------------------------- rollups
    def subtree_totals(
        self, snapshot: Optional[EpochSnapshot] = None
    ) -> Dict[str, np.ndarray]:
        """Subtree-aggregated reads/writes per directory (indexed by ino).

        Uses the tree's DFS prefix-sum index; the result covers every live
        directory in one pass.
        """
        idx = self._tree.dfs_index()
        if snapshot is None:
            v = self.views()
            reads, writes, lsdirs = v["reads"], v["writes"], v["lsdirs"]
        else:
            reads, writes, lsdirs = snapshot.reads, snapshot.writes, snapshot.lsdirs
        cap = self._tree.capacity

        def pad(a: np.ndarray) -> np.ndarray:
            if a.shape[0] == cap:
                return a
            out = np.zeros(cap, dtype=a.dtype)
            out[: a.shape[0]] = a[:cap] if a.shape[0] > cap else a
            return out

        return {
            "reads": idx.subtree_sum(pad(reads).astype(np.float64)),
            "writes": idx.subtree_sum(pad(writes).astype(np.float64)),
            "lsdirs": idx.subtree_sum(pad(lsdirs).astype(np.float64)),
        }
