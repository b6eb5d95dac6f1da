"""The Data Collector's one ingestion path and one rollup against the code
they replaced.

Counts used to enter :class:`~repro.namespace.stats.AccessStats` three ways
(the scalar ``record_read``/``record_write``/``record_lsdir`` calls, the
client loop's deferred ino buffers, and ``record_window``'s ``np.add.at``
into ``views()``), with a third, lsdir column beside reads and writes.  Three
functions rolled them up, each with its own padding (``subtree_loads``,
``dir_op_counts`` and ``AccessStats.subtree_totals``), and so did
``FeatureExtractor.extract``.  Now ``charge_read``/``charge_write`` queue and
:meth:`AccessStats.charge` folds, and :meth:`EpochSnapshot.dir_ops` and
:meth:`EpochSnapshot.subtree_ops` are the one rollup.  Every count is an
integer held in float64 and ``np.add.at`` of ones is order-free, so counts,
snapshots, rollups and features must be bit-identical on any op stream over
any growing tree.  The earlier code is kept here as the reference.
"""

from typing import Dict, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.optypes import CATEGORY_ARRAY, CATEGORY_LSDIR, CATEGORY_NSMUT, OpType
from repro.ml.dataset import FeatureExtractor
from repro.namespace.stats import AccessStats
from repro.namespace.tree import ROOT_INO, NamespaceTree
from repro.training import record_window
from repro.workloads.trace import Trace

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ----------------------------------------------------------- references
class ReferenceSnapshot:
    def __init__(self, reads: np.ndarray, writes: np.ndarray, lsdirs: np.ndarray):
        self.reads = reads
        self.writes = writes
        self.lsdirs = lsdirs

    @property
    def total_ops(self) -> int:
        return int(self.reads.sum() + self.writes.sum())


class ReferenceStats:
    """``AccessStats`` as it was: three columns, three ways in."""

    def __init__(self, tree: NamespaceTree):
        self._tree = tree
        cap = max(tree.capacity, 16)
        self._reads = np.zeros(cap, dtype=np.int64)
        self._writes = np.zeros(cap, dtype=np.int64)
        self._lsdirs = np.zeros(cap, dtype=np.int64)
        self._buf_reads: list = []
        self._buf_writes: list = []
        self._buf_lsdirs: list = []

    def _ensure(self, ino: int) -> None:
        if ino >= self._reads.shape[0]:
            new_cap = max(ino + 1, self._reads.shape[0] * 2)
            for attr in ("_reads", "_writes", "_lsdirs"):
                old = getattr(self, attr)
                grown = np.zeros(new_cap, dtype=np.int64)
                grown[: old.shape[0]] = old
                setattr(self, attr, grown)

    def _flush_buffers(self) -> None:
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

    def record_read(self, dir_ino: int, n: int = 1) -> None:
        self._ensure(dir_ino)
        self._reads[dir_ino] += n

    def record_write(self, dir_ino: int, n: int = 1) -> None:
        self._ensure(dir_ino)
        self._writes[dir_ino] += n

    def record_lsdir(self, dir_ino: int, n: int = 1) -> None:
        self._ensure(dir_ino)
        self._reads[dir_ino] += n
        self._lsdirs[dir_ino] += n

    def views(self) -> Dict[str, np.ndarray]:
        self._flush_buffers()
        self._ensure(self._tree.capacity - 1)
        cap = self._tree.capacity
        return {
            "reads": self._reads[:cap],
            "writes": self._writes[:cap],
            "lsdirs": self._lsdirs[:cap],
        }

    def snapshot_and_reset(self) -> ReferenceSnapshot:
        self._flush_buffers()
        self._ensure(self._tree.capacity - 1)
        cap = self._tree.capacity
        snap = ReferenceSnapshot(
            self._reads[:cap].copy(), self._writes[:cap].copy(), self._lsdirs[:cap].copy()
        )
        self._reads[:cap] = 0
        self._writes[:cap] = 0
        self._lsdirs[:cap] = 0
        return snap

    def subtree_totals(self, snapshot: Optional[ReferenceSnapshot] = None) -> Dict[str, np.ndarray]:
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


def reference_record_window(stats: ReferenceStats, window: Trace) -> None:
    views = stats.views()
    cap = views["reads"].shape[0]
    dirs = np.clip(window.dir_ino, 0, cap - 1)
    cats = CATEGORY_ARRAY[window.op]
    is_write = cats == CATEGORY_NSMUT
    is_lsdir = cats == CATEGORY_LSDIR
    np.add.at(views["writes"], dirs[is_write], 1)
    np.add.at(views["reads"], dirs[~is_write], 1)
    np.add.at(views["lsdirs"], dirs[is_lsdir], 1)


def reference_subtree_loads(tree: NamespaceTree, snapshot) -> np.ndarray:
    """``balancers.base.subtree_loads`` as it was."""
    idx = tree.dfs_index()
    cap = tree.capacity

    def pad(a: np.ndarray) -> np.ndarray:
        out = np.zeros(cap, dtype=np.float64)
        n = min(a.shape[0], cap)
        out[:n] = a[:n]
        return out

    return idx.subtree_sum(pad(snapshot.reads) + pad(snapshot.writes))


def reference_dir_op_counts(tree: NamespaceTree, snapshot) -> np.ndarray:
    """``balancers.lunule.dir_op_counts`` as it was."""
    cap = tree.capacity
    per_dir = np.zeros(cap)
    for arr in (snapshot.reads, snapshot.writes):
        n = min(arr.shape[0], cap)
        per_dir[:n] += arr[:n]
    return per_dir


def reference_extract(tree: NamespaceTree, candidates: np.ndarray, snapshot) -> np.ndarray:
    """``FeatureExtractor.extract`` as it was, with its own padding."""
    cap = tree.capacity
    idx = tree.dfs_index()
    candidates = np.asarray(candidates, dtype=np.int64)

    def pad(a: np.ndarray) -> np.ndarray:
        if a.shape[0] >= cap:
            return a[:cap].astype(np.float64)
        out = np.zeros(cap, dtype=np.float64)
        out[: a.shape[0]] = a
        return out

    files_sub = idx.subtree_sum(pad(tree.child_file_counts()))
    dirs_per = np.ones(cap, dtype=np.float64)
    dirs_per[~tree.dir_mask()] = 0.0
    dirs_sub = idx.subtree_sum(dirs_per) - dirs_per
    depths = tree.depth_array().astype(np.float64)
    reads_sub = idx.subtree_sum(pad(snapshot.reads))
    writes_sub = idx.subtree_sum(pad(snapshot.writes))
    total_access = float(snapshot.reads.sum() + snapshot.writes.sum())

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

    return np.column_stack(
        [
            safe_div(depth_c, max_depth),
            safe_div(files_c, max_files),
            safe_div(dirs_c, max_dirs),
            safe_div(reads_c, total_access),
            safe_div(writes_c, total_access),
            reads_c / np.maximum(writes_c + reads_c, 1.0),
            dirs_c / np.maximum(files_c + dirs_c, 1.0),
        ]
    )


# ------------------------------------------------------------ the stream
READ_OPS = (OpType.STAT, OpType.OPEN)
WRITE_OPS = (OpType.CREATE, OpType.UNLINK, OpType.MKDIR, OpType.RMDIR, OpType.RENAME)


def _grow(rng, tree: NamespaceTree, dirs: list, step: int) -> None:
    """A few new directories and files under random live directories."""
    for j in range(int(rng.integers(0, 12))):
        parent = dirs[int(rng.integers(len(dirs)))]
        if rng.random() < 0.4:
            dirs.append(tree.create_dir(parent, f"d{step}_{j}"))
        else:
            tree.create_file(parent, f"f{step}_{j}")


def _window(rng, dirs: list, cap: int, n: int) -> Trace:
    """``n`` random ops on live directories, a few past the tree's end."""
    kinds = rng.integers(0, 3, size=n)
    op = np.where(
        kinds == 0,
        rng.choice([int(o) for o in READ_OPS], size=n),
        np.where(kinds == 1, int(OpType.READDIR), rng.choice([int(o) for o in WRITE_OPS], size=n)),
    )
    dir_ino = np.asarray(dirs, dtype=np.int64)[rng.integers(0, len(dirs), size=n)]
    stray = rng.random(n) < 0.05
    dir_ino[stray] = cap + rng.integers(0, 4, size=int(stray.sum()))
    return Trace(op, dir_ino, np.full(n, -1))


def _feed(rng, ref: ReferenceStats, new: AccessStats, dirs: list, cap: int) -> None:
    """One burst of ops, charged to both along one of the three earlier routes."""
    route = int(rng.integers(0, 3))
    n = int(rng.integers(0, 40))
    if route == 2:  # the label generator's trace windows
        window = _window(rng, dirs, cap, n)
        reference_record_window(ref, window)
        record_window(new, window)
        return
    for _ in range(n):
        d = dirs[int(rng.integers(len(dirs)))]
        kind = int(rng.integers(0, 3))
        if route == 0:  # the scalar calls, each with a repeat count
            k = int(rng.integers(1, 4))
            (ref.record_read, ref.record_lsdir, ref.record_write)[kind](d, k)
            if kind == 2:
                new.charge(write_inos=[d] * k)
            else:
                new.charge([d] * k)
        else:  # the client loop's per-op buffers
            (ref._buf_reads, ref._buf_lsdirs, ref._buf_writes)[kind].append(d)
            (new.charge_write if kind == 2 else new.charge_read)(d)


def _assert_same_bits(a: np.ndarray, b: np.ndarray, what: str) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_epochs=st.integers(min_value=1, max_value=5))
def test_one_path_matches_the_three_earlier_ones(seed, n_epochs):
    """Counts, snapshots and rollups agree epoch after epoch while the tree
    grows under the counters: between bursts, and between a snapshot and
    its rollup (which then pads the snapshot to the larger tree)."""
    rng = np.random.default_rng(seed)
    tree = NamespaceTree()
    dirs = [ROOT_INO]
    ref, new = ReferenceStats(tree), AccessStats(tree)
    for epoch in range(n_epochs):
        for burst in range(int(rng.integers(1, 6))):
            _grow(rng, tree, dirs, epoch * 10 + burst)
            _feed(rng, ref, new, dirs, tree.capacity)
        ref_snap, snap = ref.snapshot_and_reset(), new.snapshot_and_reset()
        _assert_same_bits(snap.reads, ref_snap.reads, "reads")
        _assert_same_bits(snap.writes, ref_snap.writes, "writes")
        assert snap.total_ops == ref_snap.total_ops
        if rng.random() < 0.5:
            _grow(rng, tree, dirs, epoch * 10 + 9)
        cap = tree.capacity
        _assert_same_bits(snap.dir_ops(cap), reference_dir_op_counts(tree, ref_snap), "dir_ops")
        sub = snap.subtree_ops(tree)
        _assert_same_bits(sub, reference_subtree_loads(tree, ref_snap), "subtree_ops")
        # subtree_totals rolled reads and writes up apart; integer sums agree
        totals = ReferenceStats(tree).subtree_totals(ref_snap)
        _assert_same_bits(sub, totals["reads"] + totals["writes"], "subtree_totals")


@settings(max_examples=30, deadline=None)
@given(seed=seeds, grow_after=st.booleans())
def test_features_match_the_earlier_padding(seed, grow_after):
    """``FeatureExtractor.extract`` through the shared padding and
    ``total_ops`` gives the feature matrix the earlier code gave."""
    rng = np.random.default_rng(seed)
    tree = NamespaceTree()
    dirs = [ROOT_INO]
    ref, new = ReferenceStats(tree), AccessStats(tree)
    for burst in range(4):
        _grow(rng, tree, dirs, burst)
        _feed(rng, ref, new, dirs, tree.capacity)
    ref_snap, snap = ref.snapshot_and_reset(), new.snapshot_and_reset()
    if grow_after:
        _grow(rng, tree, dirs, 99)
    cands = np.asarray(dirs, dtype=np.int64)
    X = FeatureExtractor(tree).extract(cands, snap)
    _assert_same_bits(X, reference_extract(tree, cands, ref_snap), "features")
