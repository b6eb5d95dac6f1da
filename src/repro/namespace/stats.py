"""Per-directory access statistics (the Data Collector's raw counters).

The paper's Data Collector dumps, per directory and per epoch, the number of
metadata *read* ops (open/stat/lsdir) and *write* ops (create/mkdir/rmdir/
rename) charged to the subtree.  :class:`AccessStats` keeps the two
per-directory counters.  Counts enter one way: directory inos are queued
(``charge_read``/``charge_write``, one call per op) or handed over in bulk
(:meth:`AccessStats.charge`), and one ``np.add.at`` folds them in.  They
leave one way: :meth:`EpochSnapshot.dir_ops` is the per-directory
``reads + writes`` and :meth:`EpochSnapshot.subtree_ops` rolls it up over
the tree's DFS index in one vectorised pass, because migration (and
therefore the features in Table 1) operates on subtrees, not single
directories.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.namespace.tree import NamespaceTree

__all__ = ["AccessStats", "EpochSnapshot", "padded"]


def padded(a: np.ndarray, cap: int) -> np.ndarray:
    """``a`` as float64 over exactly ``cap`` inos: cut, or zero-filled."""
    if a.shape[0] >= cap:
        return a[:cap].astype(np.float64)
    out = np.zeros(cap, dtype=np.float64)
    out[: a.shape[0]] = a
    return out


class EpochSnapshot:
    """Frozen per-epoch counters (arrays indexed by ino)."""

    __slots__ = ("reads", "writes")

    def __init__(self, reads: np.ndarray, writes: np.ndarray):
        self.reads = reads
        self.writes = writes

    @property
    def total_ops(self) -> int:
        return int(self.reads.sum() + self.writes.sum())

    def dir_ops(self, cap: int) -> np.ndarray:
        """Per-directory ``reads + writes`` over ``cap`` inos (float64)."""
        return padded(self.reads, cap) + padded(self.writes, cap)

    def subtree_ops(self, tree: NamespaceTree) -> np.ndarray:
        """:meth:`dir_ops` summed over every directory subtree, ino-indexed."""
        return tree.dfs_index().subtree_sum(self.dir_ops(tree.capacity))


class AccessStats:
    """Accumulates per-directory read/write counts for the current epoch.

    Counts are charged to the *owning directory* of the accessed entry (files
    charge their parent), matching the directory-granularity collection the
    paper uses to keep collector overhead low.  An lsdir is a read.
    """

    def __init__(self, tree: NamespaceTree):
        self.tree = tree
        cap = max(tree.capacity, 16)
        self._reads = np.zeros(cap, dtype=np.int64)
        self._writes = np.zeros(cap, dtype=np.int64)
        #: number of times the counter arrays were physically reallocated;
        #: doubling keeps this O(log capacity) regardless of op count
        self.growths = 0
        # per-op queues: the client loop appends bare dir inos instead of
        # incrementing counters per op; the epoch snapshot folds them
        self._queued_reads: list = []
        self._queued_writes: list = []
        #: queue one read (write) of a directory; bound list appends, so the
        #: client loop pays one C call per op
        self.charge_read = self._queued_reads.append
        self.charge_write = self._queued_writes.append

    def _ensure(self, ino: int) -> None:
        if ino >= self._reads.shape[0]:
            new_cap = max(ino + 1, self._reads.shape[0] * 2)
            for attr in ("_reads", "_writes"):
                old = getattr(self, attr)
                grown = np.zeros(new_cap, dtype=np.int64)
                grown[: old.shape[0]] = old
                setattr(self, attr, grown)
            self.growths += 1

    def charge(self, read_inos: Sequence[int] = (), write_inos: Sequence[int] = ()) -> None:
        """Count one read per entry of ``read_inos`` and one write per entry
        of ``write_inos`` (lists or arrays of dir inos; repeats count)."""
        for attr, inos in (("_reads", read_inos), ("_writes", write_inos)):
            idx = np.asarray(inos, dtype=np.int64)
            if idx.size:
                self._ensure(int(idx.max()))
                np.add.at(getattr(self, attr), idx, 1)

    def snapshot_and_reset(self) -> EpochSnapshot:
        """Freeze the epoch's counters and zero the live ones."""
        self.charge(self._queued_reads, self._queued_writes)
        self._queued_reads.clear()
        self._queued_writes.clear()
        cap = self.tree.capacity
        self._ensure(cap - 1)
        snap = EpochSnapshot(self._reads[:cap].copy(), self._writes[:cap].copy())
        # nothing past the tree's capacity is ever counted; zeroing the
        # doubled tail would only fault its pages in
        self._reads[:cap] = 0
        self._writes[:cap] = 0
        return snap
