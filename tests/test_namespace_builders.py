"""Tests for namespace builders, access stats, and path parsing."""

import numpy as np
import pytest

from repro.namespace import AccessStats, NamespaceTree
from repro.namespace.builder import (
    build_balanced,
    build_cloud_tree,
    build_random,
    build_software_project,
    build_web_tree,
)
from repro.sim import SeedSequenceFactory


def stream(seed=0):
    return SeedSequenceFactory(seed).stream("builder")


# -------------------------------------------------------------------- paths


def test_components_rejects_parent_refs():
    tree = NamespaceTree()
    b = tree.makedirs("/a/b")
    assert tree.lookup("/a/b") == tree.lookup("a//./b/") == b
    with pytest.raises(ValueError):
        tree.lookup("/a/../b")
    with pytest.raises(ValueError):
        tree.makedirs("/a/../c")


# ------------------------------------------------------------------ builders


def test_build_balanced_shape():
    built = build_balanced(depth=3, fanout=2, files_per_dir=1)
    tree = built.tree
    assert tree.num_dirs == 1 + 2 + 4 + 8
    assert tree.num_files == tree.num_dirs
    tree.validate()


def test_build_balanced_validation():
    with pytest.raises(ValueError):
        build_balanced(depth=-1, fanout=2)


def test_build_random_reaches_target():
    built = build_random(stream(), n_dirs=120)
    assert built.tree.num_dirs == 120
    built.tree.validate()
    with pytest.raises(ValueError):
        build_random(stream(), n_dirs=0)


def test_software_project_layout():
    built = build_software_project(stream(), n_modules=5)
    tree = built.tree
    for top in ("/src", "/include", "/build", "/tests"):
        assert tree.is_dir(tree.lookup(top))
    assert len(built.info["header_dirs"]) == 5
    # every source dir has a mirrored build dir at the same relative path
    for pairs in built.info["module_dirs"]:
        for s, b in pairs:
            assert tree.path_of(s).replace("/src/", "/build/") == tree.path_of(b)
            assert tree.depth(s) == tree.depth(b)
    tree.validate()


def test_web_tree_deep_and_heavy_tailed():
    built = build_web_tree(stream(), n_dirs=600, target_depth=11)
    tree = built.tree
    depths = tree.depth_array()[tree.dir_mask()]
    assert depths.max() >= 11
    fanouts = sorted(
        (tree.n_child_dirs(d) for d in tree.iter_dirs()), reverse=True
    )
    assert fanouts[0] >= 10  # a few huge directories
    tree.validate()


def test_cloud_tree_layout():
    built = build_cloud_tree(stream(), n_tenants=4, days=2, shards_per_day=3)
    tree = built.tree
    shards = built.info["tenant_shards"]
    assert len(shards) == 4
    assert all(len(s) == 6 for s in shards)
    assert len(built.write_dirs) == 24
    tree.validate()


# --------------------------------------------------------------------- stats


def test_access_stats_epoch_cycle():
    built = build_balanced(2, 2, 1)
    tree = built.tree
    stats = AccessStats(tree)
    a = tree.lookup("/d0_0")
    stats.charge([a] * 3, [a] * 2)
    stats.charge_read(a)  # the client loop charges an lsdir as a read
    snap = stats.snapshot_and_reset()
    assert snap.reads[a] == 4
    assert snap.writes[a] == 2
    assert snap.total_ops == 6
    # counters reset
    snap2 = stats.snapshot_and_reset()
    assert snap2.total_ops == 0


def test_access_stats_grow_with_tree():
    built = build_balanced(1, 1, 0)
    tree = built.tree
    stats = AccessStats(tree)
    for i in range(100):
        d = tree.create_dir(0, f"n{i}")
        stats.charge_read(d)
    snap = stats.snapshot_and_reset()
    assert snap.reads.sum() == 100


def test_access_stats_growths_logarithmic():
    built = build_balanced(1, 1, 0)
    tree = built.tree
    stats = AccessStats(tree)
    cap0 = stats._reads.shape[0]
    assert stats.growths == 0
    # walk the recorded ino upward one at a time: per-ino growth would
    # reallocate ~n times, capacity doubling must stay O(log n)
    n = 4096
    for ino in range(n):
        stats.charge([ino])
    assert stats._reads.shape[0] >= n
    import math

    assert stats.growths <= math.ceil(math.log2(n / cap0)) + 1
    # a batch past the end grows once, through the same doubling path
    before = stats.growths
    stats.charge(write_inos=range(n, 4 * n))
    assert stats._writes[2 * n] == 1
    assert stats.growths - before <= 3


def test_access_stats_snapshots_across_growths_keep_the_tail_zero():
    """Each epoch's snapshot holds exactly its counts while the tree (and
    the doubled counter arrays) grow, and nothing past the tree's capacity
    is ever counted, so the reset need not zero it."""
    tree = NamespaceTree()
    stats = AccessStats(tree)
    rng = np.random.default_rng(3)
    for epoch in range(5):
        k = 40 * 3**epoch
        tree.create_many(np.zeros(k, dtype=np.int64), [f"e{epoch}_{i}" for i in range(k)],
                         np.ones(k, dtype=bool))
        cap = tree.capacity
        want = {kind: np.zeros(cap, dtype=np.int64) for kind in ("reads", "writes")}
        for ino in rng.integers(0, cap, size=200).tolist():
            kind = ("reads", "writes")[ino % 2]
            if ino % 3:  # queued, one call per op
                (stats.charge_read if kind == "reads" else stats.charge_write)(ino)
            elif kind == "reads":  # in bulk
                stats.charge([ino])
            else:
                stats.charge(write_inos=[ino])
            want[kind][ino] += 1
        snap = stats.snapshot_and_reset()
        for kind, counts in want.items():
            assert np.array_equal(getattr(snap, kind), counts), kind
            assert not getattr(stats, f"_{kind}").any(), kind
    assert stats.growths >= 3 and stats._reads.shape[0] > tree.capacity


def test_access_stats_subtree_totals():
    built = build_balanced(2, 2, 0)
    tree = built.tree
    stats = AccessStats(tree)
    leaf = tree.lookup("/d0_0/d1_0")
    mid = tree.lookup("/d0_0")
    stats.charge([leaf] * 5, [mid] * 2)
    snap = stats.snapshot_and_reset()
    assert snap.dir_ops(tree.capacity)[mid] == 2
    totals = snap.subtree_ops(tree)
    assert totals[leaf] == 5
    assert totals[mid] == 7  # rolls up from the leaf
    assert totals[0] == 7
