"""Tests for namespace builders, access stats, and path utilities."""

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
from repro.namespace.inode import FileType, Inode
from repro.namespace.path import basename, components, dirname, join, normalize, split
from repro.sim import SeedSequenceFactory


def stream(seed=0):
    return SeedSequenceFactory(seed).stream("builder")


# -------------------------------------------------------------------- paths


def test_normalize():
    assert normalize("/a/b/") == "/a/b"
    assert normalize("a//b/./c") == "/a/b/c"
    assert normalize("/") == "/"
    assert normalize("") == "/"


def test_components_rejects_parent_refs():
    assert components("/a/b") == ["a", "b"]
    with pytest.raises(ValueError):
        components("/a/../b")


def test_join_split_basename_dirname():
    assert join("a", "b/c") == "/a/b/c"
    assert split("/a/b/c") == ("/a/b", "c")
    assert split("/x") == ("/", "x")
    assert split("/") == ("/", "")
    assert basename("/a/b") == "b"
    assert dirname("/a/b") == "/a"


# -------------------------------------------------------------------- inode


def test_inode_encode_decode_roundtrip():
    ino = Inode(ino=5, parent=2, name="file.txt", ftype=FileType.REGULAR, depth=3, size=42)
    again = Inode.decode(ino.encode())
    assert again == ino
    assert not again.is_dir
    assert ino.key() == b"%020d/file.txt" % 2


def test_inode_decode_rejects_garbage():
    with pytest.raises(ValueError):
        Inode.decode(b"not|enough|fields")


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
    stats.record_read(a, 3)
    stats.record_write(a, 2)
    stats.record_lsdir(a)
    snap = stats.snapshot_and_reset()
    assert snap.epoch == 0
    assert snap.reads[a] == 4  # lsdir counts as a read
    assert snap.writes[a] == 2
    assert snap.lsdirs[a] == 1
    assert snap.total_ops == 6
    # counters reset
    snap2 = stats.snapshot_and_reset()
    assert snap2.epoch == 1
    assert snap2.total_ops == 0


def test_access_stats_grow_with_tree():
    built = build_balanced(1, 1, 0)
    tree = built.tree
    stats = AccessStats(tree)
    for i in range(100):
        d = tree.create_dir(0, f"n{i}")
        stats.record_read(d)
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
        stats.record_read(ino)
    assert stats._reads.shape[0] >= n
    import math

    assert stats.growths <= math.ceil(math.log2(n / cap0)) + 1
    # the client loop's buffered route flushes through the same doubling path
    before = stats.growths
    stats._buf_writes.extend(range(n, 4 * n))
    stats._flush_buffers()
    assert stats._writes[2 * n] == 1
    assert stats.growths - before <= 3


def test_access_stats_subtree_totals():
    built = build_balanced(2, 2, 0)
    tree = built.tree
    stats = AccessStats(tree)
    leaf = tree.lookup("/d0_0/d1_0")
    mid = tree.lookup("/d0_0")
    stats.record_read(leaf, 5)
    stats.record_write(mid, 2)
    totals = stats.subtree_totals()
    assert totals["reads"][mid] == 5  # rolls up from the leaf
    assert totals["writes"][mid] == 2
    assert totals["reads"][0] == 5
    assert totals["writes"][0] == 2
