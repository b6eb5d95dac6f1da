"""Unit tests for PartitionMap, migrations, and imbalance metrics."""

import numpy as np
import pytest

from repro.cluster import (
    ImbalanceReport,
    MigrationDecision,
    MigrationLog,
    PartitionMap,
    imbalance_factor,
)
from repro.namespace import ROOT_INO, NamespaceTree
from repro.namespace.builder import build_balanced


@pytest.fixture
def setup():
    built = build_balanced(depth=3, fanout=3, files_per_dir=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=4)
    return tree, pmap


def test_initial_all_on_mds0(setup):
    tree, pmap = setup
    for d in tree.iter_dirs():
        assert pmap.owner(d) == 0
    assert pmap.dirs_per_mds()[0] == tree.num_dirs


def test_owner_of_file_is_parent_owner(setup):
    tree, pmap = setup
    f = tree.lookup("/d0_0/f0")
    a = tree.lookup("/d0_0")
    pmap.migrate_subtree(a, 2)
    assert pmap.owner(f) == 2


def test_migrate_subtree_moves_all_descendants(setup):
    tree, pmap = setup
    a = tree.lookup("/d0_1")
    moved = pmap.migrate_subtree(a, 3)
    idx = tree.dfs_index()
    assert moved == idx.subtree_size(a)
    for d in tree.iter_subtree_dirs(a):
        assert pmap.owner(d) == 3
    # siblings untouched
    assert pmap.owner(tree.lookup("/d0_0")) == 0


def test_uniform_subtree_mask(setup):
    tree, pmap = setup
    a = tree.lookup("/d0_0")
    inner = tree.lookup("/d0_0/d1_1")
    pmap.migrate_subtree(inner, 2)
    uniform = pmap.uniform_subtree_mask()
    assert not uniform[a]  # mixed: part on 0, part on 2
    assert uniform[inner]
    assert uniform[tree.lookup("/d0_1")]
    assert not uniform[ROOT_INO]


def test_uniform_mask_matches_bruteforce(setup):
    tree, pmap = setup
    rng = np.random.default_rng(7)
    dirs = list(tree.iter_dirs())
    for _ in range(6):
        pmap.migrate_subtree(int(rng.choice(dirs)), int(rng.integers(0, 4)))
    uniform = pmap.uniform_subtree_mask()
    for d in dirs:
        owners = {pmap.owner(x) for x in tree.iter_subtree_dirs(d)}
        assert uniform[d] == (len(owners) == 1), f"dir {d}"


def test_new_dir_inherits_parent_owner(setup):
    tree, pmap = setup
    a = tree.lookup("/d0_2")
    pmap.migrate_subtree(a, 1)
    new = tree.create_dir(a, "fresh")
    assert pmap.owner(new) == 1


def test_new_dir_with_placement_policy(setup):
    tree, _ = setup
    pmap = PartitionMap(tree, n_mds=4, placement=lambda pm, p, name: hash(name) % 4)
    new = tree.create_dir(tree.lookup("/d0_0"), "hashed")
    assert pmap.owner(new) == hash("hashed") % 4
    assert pmap.new_dir_owner(tree.lookup("/d0_0"), "hashed") == hash("hashed") % 4


def test_assign_bulk_and_ranges(setup):
    tree, pmap = setup
    owners = np.zeros(tree.capacity, dtype=np.int64)
    owners[tree.dir_mask()] = 3
    pmap.assign_bulk(owners)
    assert pmap.dirs_per_mds()[3] == tree.num_dirs
    bad = owners.copy()
    bad[tree.lookup("/d0_0")] = 9
    with pytest.raises(ValueError):
        pmap.assign_bulk(bad)


def test_inodes_per_mds_counts_files(setup):
    tree, pmap = setup
    total = pmap.inodes_per_mds().sum()
    assert total == tree.num_dirs + tree.num_files


def test_lsdir_fanout(setup):
    tree, pmap = setup
    a = tree.lookup("/d0_0")
    assert pmap.lsdir_fanout(a) == 0
    pmap.migrate_subtree(tree.lookup("/d0_0/d1_0"), 1)
    pmap.migrate_subtree(tree.lookup("/d0_0/d1_1"), 2)
    assert pmap.lsdir_fanout(a) == 2
    counts = pmap.child_owner_counts(a)
    assert counts == {0: 1, 1: 1, 2: 1}


def test_copy_is_independent(setup):
    tree, pmap = setup
    dup = pmap.copy()
    dup.migrate_subtree(tree.lookup("/d0_0"), 2)
    assert pmap.owner(tree.lookup("/d0_0")) == 0
    assert dup.owner(tree.lookup("/d0_0")) == 2


def test_migrate_invalid_dst(setup):
    tree, pmap = setup
    with pytest.raises(ValueError):
        pmap.migrate_subtree(tree.lookup("/d0_0"), 9)


def test_owner_array_tracks_removals(setup):
    tree, pmap = setup
    leaf = tree.lookup("/d0_0/d1_0/d2_0")
    for name in list(tree.children(leaf)):
        tree.remove(tree.children(leaf)[name])
    tree.remove(leaf)
    arr = pmap.owner_array()
    assert arr[leaf] == -1
    with pytest.raises(KeyError):
        pmap.owner(leaf)


# ----------------------------------------------------------- migration log


def test_migration_log_apply(setup):
    tree, pmap = setup
    log = MigrationLog()
    a = tree.lookup("/d0_0")
    dec = MigrationDecision(subtree_root=a, src=0, dst=2, predicted_benefit=1.5)
    rec = log.apply(pmap, dec, epoch=3)
    assert pmap.owner(a) == 2
    assert rec.dirs_moved == tree.dfs_index().subtree_size(a)
    assert rec.inodes_moved > rec.dirs_moved  # files came along
    assert log.total_migrations == 1
    assert log.in_epoch(3) == [rec]
    assert log.in_epoch(0) == []


def test_migration_decision_validation(setup):
    tree, pmap = setup
    a = tree.lookup("/d0_0")
    with pytest.raises(ValueError):
        MigrationDecision(a, src=0, dst=0).validate(pmap)
    with pytest.raises(ValueError):
        MigrationDecision(a, src=1, dst=2).validate(pmap)  # wrong src
    with pytest.raises(ValueError):
        MigrationDecision(a, src=0, dst=99).validate(pmap)


# -------------------------------------------------------------- imbalance


def test_imbalance_factor_extremes():
    assert imbalance_factor([10, 10, 10, 10, 10]) == 0.0
    assert imbalance_factor([50, 0, 0, 0, 0]) == 1.0
    assert imbalance_factor([0, 0, 0]) == 0.0
    assert imbalance_factor([7]) == 0.0


def test_imbalance_factor_monotone_in_skew():
    low = imbalance_factor([12, 11, 10, 9, 8])
    high = imbalance_factor([30, 8, 6, 4, 2])
    assert 0 < low < high < 1


def test_imbalance_factor_validation():
    with pytest.raises(ValueError):
        imbalance_factor([])
    with pytest.raises(ValueError):
        imbalance_factor([1, -2])


def test_imbalance_report():
    rep = ImbalanceReport.from_loads(
        qps=[5, 5], rpcs=[10, 0], inodes=[3, 3], busytime=[8, 2]
    )
    d = rep.as_dict()
    assert d["QPS"] == 0.0
    assert d["RPCs"] == 1.0
    assert 0 < d["BusyTime"] < 1
