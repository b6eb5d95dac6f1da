"""Unit tests for the per-request RCT decomposition (Eq. 1 / Eq. 2)."""

import pytest

from repro.cluster import PartitionMap
from repro.costmodel import CostParams, OpType, request_rct
from repro.costmodel.rct import contacted_owners, path_k
from repro.namespace import NamespaceTree


@pytest.fixture
def world():
    tree = NamespaceTree()
    # /a/b/c with files, plus /x
    a = tree.makedirs("/a")
    b = tree.makedirs("/a/b")
    c = tree.makedirs("/a/b/c")
    x = tree.makedirs("/x")
    tree.create_file(c, "f")
    tree.create_file(x, "g")
    pmap = PartitionMap(tree, n_mds=3)
    params = CostParams()
    return tree, pmap, params


def test_path_k_entry_vs_lsdir(world):
    tree, pmap, params = world
    c = tree.lookup("/a/b/c")
    assert path_k(tree, OpType.STAT, c) == 4  # /a/b/c/f has 4 components
    assert path_k(tree, OpType.READDIR, c) == 3
    assert path_k(tree, OpType.READDIR, 0) == 0


def test_single_partition_m_is_one(world):
    tree, pmap, params = world
    c = tree.lookup("/a/b/c")
    rc = request_rct(tree, pmap, params, OpType.STAT, c, "f")
    assert rc.m == 1
    assert rc.owners == frozenset({0})
    assert rc.primary == 0
    # RCT = (t_inode+t_rpc)*1 + t_inode*4 + exec_read + 1*rtt
    expected = (
        (params.t_inode + params.t_rpc) + params.t_inode * 4
        + params.t_exec_read + params.rtt
    )
    assert rc.rct == pytest.approx(expected)


def test_m_counts_distinct_partitions(world):
    tree, pmap, params = world
    b = tree.lookup("/a/b")
    c = tree.lookup("/a/b/c")
    pmap.migrate_subtree(b, 1)
    pmap.migrate_subtree(c, 2)
    rc = request_rct(tree, pmap, params, OpType.STAT, c, "f")
    # path owners: a->0, b->1, c->2
    assert rc.m == 3
    assert rc.owners == frozenset({0, 1, 2})
    assert rc.primary == 2
    expected = (
        (params.t_inode + params.t_rpc) * 3 + params.t_inode * 4
        + params.t_exec_read + 3 * params.rtt
    )
    assert rc.rct == pytest.approx(expected)


def test_near_root_cache_hides_shallow_dirs(world):
    tree, pmap, params = world
    b = tree.lookup("/a/b")
    c = tree.lookup("/a/b/c")
    pmap.migrate_subtree(b, 1)
    pmap.migrate_subtree(c, 2)
    cached = CostParams(cache_depth=3)  # depth <3 cached: a(1), b(2) hidden
    rc = request_rct(tree, pmap, cached, OpType.STAT, c, "f")
    assert rc.owners == frozenset({2})
    assert rc.m == 1
    # entries a,b cached -> k_eff = 4 - 2 = 2
    assert rc.k_eff == 2
    expected = (
        (cached.t_inode + cached.t_rpc) + cached.t_inode * 2
        + cached.t_exec_read + cached.rtt
    )
    assert rc.rct == pytest.approx(expected)


def test_cache_never_hides_target_owner(world):
    tree, pmap, params = world
    a = tree.lookup("/a")
    pmap.migrate_subtree(a, 1)
    deep_cache = CostParams(cache_depth=10)
    rc = request_rct(tree, pmap, deep_cache, OpType.STAT, a, "sub")
    assert rc.m == 1
    assert rc.owners == frozenset({1})


def test_lsdir_extra_rtt_per_other_mds(world):
    tree, pmap, params = world
    a = tree.lookup("/a")
    b = tree.lookup("/a/b")
    rc0 = request_rct(tree, pmap, params, OpType.READDIR, a)
    assert rc0.extra == 0.0
    pmap.migrate_subtree(b, 2)
    rc1 = request_rct(tree, pmap, params, OpType.READDIR, a)
    assert rc1.extra == pytest.approx((params.rtt + params.t_rpc) * 1)


def test_nsmut_file_ops_never_split(world):
    tree, pmap, params = world
    c = tree.lookup("/a/b/c")
    pmap.migrate_subtree(c, 2)
    rc = request_rct(tree, pmap, params, OpType.CREATE, c, "new")
    assert rc.extra == 0.0
    rc = request_rct(tree, pmap, params, OpType.UNLINK, c, "f")
    assert rc.extra == 0.0


def test_rmdir_split_at_boundary(world):
    tree, pmap, params = world
    b = tree.lookup("/a/b")
    c = tree.lookup("/a/b/c")
    # not a boundary: no coordination
    rc = request_rct(tree, pmap, params, OpType.RMDIR, b, aux=c)
    assert rc.extra == 0.0
    pmap.migrate_subtree(c, 1)
    rc = request_rct(tree, pmap, params, OpType.RMDIR, b, aux=c)
    assert rc.extra == pytest.approx(params.t_coor)


def test_mkdir_split_under_hash_placement(world):
    tree, _, params = world
    pmap = PartitionMap(tree, n_mds=3, placement=lambda pm, p, name: 2)
    # placement pins new dirs on MDS 2; parents on 2 -> no split
    a = tree.lookup("/a")
    # a was created before this pmap: initial_owner=0
    rc = request_rct(tree, pmap, params, OpType.MKDIR, a, "newdir")
    assert rc.extra == pytest.approx(params.t_coor)


def test_params_validation():
    with pytest.raises(ValueError):
        CostParams(t_inode=-1)
    with pytest.raises(ValueError):
        CostParams(cache_depth=-2)


def test_t_exec_dispatch():
    p = CostParams()
    assert p.t_exec(OpType.STAT) == p.t_exec_read
    assert p.t_exec(OpType.READDIR) == p.t_exec_lsdir
    assert p.t_exec(OpType.MKDIR) == p.t_exec_nsmut
    by_cat = p.t_exec_by_category()
    assert list(by_cat) == [p.t_exec_read, p.t_exec_lsdir, p.t_exec_nsmut]


def test_contacted_owners_cache_zero_counts_all(world):
    tree, pmap, params = world
    c = tree.lookup("/a/b/c")
    pmap.migrate_subtree(tree.lookup("/a"), 1)
    pmap.migrate_subtree(c, 2)
    owners = contacted_owners(tree, pmap, c, cache_depth=0)
    assert owners == frozenset({1, 2})
