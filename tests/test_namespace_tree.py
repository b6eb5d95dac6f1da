"""Unit tests for the namespace tree: mutations, lookup, DFS index, rollups."""

import numpy as np
import pytest

from repro.namespace import ROOT_INO, NamespaceTree


@pytest.fixture
def tree():
    t = NamespaceTree()
    # /a/b/c , /a/d , /e ; files under several
    a = t.create_dir(ROOT_INO, "a")
    b = t.create_dir(a, "b")
    c = t.create_dir(b, "c")
    d = t.create_dir(a, "d")
    e = t.create_dir(ROOT_INO, "e")
    t.create_file(c, "f1")
    t.create_file(c, "f2")
    t.create_file(e, "f3")
    return t


def test_counts(tree):
    assert tree.num_dirs == 6  # root + 5
    assert tree.num_files == 3
    assert len(tree) == 9


def test_lookup_and_path_roundtrip(tree):
    for path in ("/", "/a", "/a/b/c", "/a/d", "/e", "/a/b/c/f1"):
        ino = tree.lookup(path)
        assert tree.path_of(ino) == path if path != "/" else tree.path_of(ino) == "/"


def test_lookup_missing_raises(tree):
    with pytest.raises(KeyError):
        tree.lookup("/a/zzz")


def test_lookup_through_file_raises(tree):
    with pytest.raises(NotADirectoryError):
        tree.lookup("/e/f3/deeper")


def test_depth(tree):
    assert tree.depth(ROOT_INO) == 0
    assert tree.depth(tree.lookup("/a/b/c")) == 3
    assert tree.depth(tree.lookup("/a/b/c/f1")) == 4


def test_resolve_chain(tree):
    f1 = tree.lookup("/a/b/c/f1")
    chain = tree.resolve(f1)
    assert chain[0] == ROOT_INO
    assert chain[-1] == f1
    assert [tree.path_of(i) for i in chain] == ["/", "/a", "/a/b", "/a/b/c", "/a/b/c/f1"]


def test_duplicate_name_rejected(tree):
    a = tree.lookup("/a")
    with pytest.raises(FileExistsError):
        tree.create_dir(a, "b")
    with pytest.raises(FileExistsError):
        tree.create_file(a, "d")


def test_invalid_name_rejected(tree):
    with pytest.raises(ValueError):
        tree.create_dir(ROOT_INO, "has/slash")
    with pytest.raises(ValueError):
        tree.create_file(ROOT_INO, "")


def test_create_under_file_rejected(tree):
    f1 = tree.lookup("/a/b/c/f1")
    with pytest.raises(NotADirectoryError):
        tree.create_file(f1, "child")


def test_remove_file(tree):
    f1 = tree.lookup("/a/b/c/f1")
    tree.remove(f1)
    with pytest.raises(KeyError):
        tree.lookup("/a/b/c/f1")
    assert tree.num_files == 2
    tree.validate()


def test_remove_nonempty_dir_rejected(tree):
    with pytest.raises(OSError):
        tree.remove(tree.lookup("/a"))


def test_remove_empty_dir(tree):
    d = tree.lookup("/a/d")
    tree.remove(d)
    with pytest.raises(KeyError):
        tree.lookup("/a/d")
    assert tree.num_dirs == 5
    tree.validate()


def test_remove_root_rejected(tree):
    with pytest.raises(ValueError):
        tree.remove(ROOT_INO)


def test_makedirs_idempotent(tree):
    x = tree.makedirs("/a/b/new1/new2")
    assert tree.path_of(x) == "/a/b/new1/new2"
    again = tree.makedirs("/a/b/new1/new2")
    assert again == x
    tree.validate()


def test_owning_dir(tree):
    f1 = tree.lookup("/a/b/c/f1")
    c = tree.lookup("/a/b/c")
    assert tree.owning_dir(f1) == c
    assert tree.owning_dir(c) == c


def test_child_counts(tree):
    a = tree.lookup("/a")
    c = tree.lookup("/a/b/c")
    assert tree.n_child_dirs(a) == 2
    assert tree.n_child_files(a) == 0
    assert tree.n_child_files(c) == 2


# ---------------------------------------------------------------- DFS index


def test_dfs_index_covers_all_dirs(tree):
    idx = tree.dfs_index()
    assert idx.order.shape[0] == tree.num_dirs
    assert idx.tin[ROOT_INO] == 0
    assert idx.tout[ROOT_INO] == tree.num_dirs


def test_dfs_contains(tree):
    idx = tree.dfs_index()
    a, b, c, e = (tree.lookup(p) for p in ("/a", "/a/b", "/a/b/c", "/e"))
    assert idx.contains(a, c)
    assert idx.contains(a, a)
    assert not idx.contains(a, e)
    assert not idx.contains(c, a)
    assert idx.contains(ROOT_INO, e)


def test_dfs_subtree_size(tree):
    idx = tree.dfs_index()
    a = tree.lookup("/a")
    assert idx.subtree_size(a) == 4  # a, b, c, d
    assert idx.subtree_size(ROOT_INO) == 6


def test_dfs_subtree_sum_matches_bruteforce(tree):
    idx = tree.dfs_index()
    vals = np.zeros(tree.capacity)
    rng = np.random.default_rng(0)
    for d in tree.iter_dirs():
        vals[d] = rng.random()
    rolled = idx.subtree_sum(vals)
    for d in tree.iter_dirs():
        brute = sum(vals[x] for x in tree.iter_subtree_dirs(d))
        assert abs(rolled[d] - brute) < 1e-9


def test_dfs_cache_invalidation(tree):
    idx1 = tree.dfs_index()
    assert tree.dfs_index() is idx1  # cached
    tree.create_dir(ROOT_INO, "newdir")
    idx2 = tree.dfs_index()
    assert idx2 is not idx1
    assert idx2.order.shape[0] == tree.num_dirs


def test_file_creation_does_not_invalidate(tree):
    idx1 = tree.dfs_index()
    tree.create_file(tree.lookup("/a"), "newfile")
    assert tree.dfs_index() is idx1


def test_dirs_in_subtree_preorder(tree):
    idx = tree.dfs_index()
    a = tree.lookup("/a")
    inos = idx.dirs_in_subtree(a)
    assert inos[0] == a
    assert set(inos) == set(tree.iter_subtree_dirs(a))


def test_dir_mask_and_arrays(tree):
    mask = tree.dir_mask()
    assert mask.sum() == tree.num_dirs
    depths = tree.depth_array()
    assert depths[ROOT_INO] == 0
    parents = tree.parent_array()
    assert parents[tree.lookup("/a/b")] == tree.lookup("/a")


def test_version_bumps_on_structure(tree):
    v = tree.version
    tree.create_file(tree.lookup("/a"), "x")
    assert tree.version == v  # files don't bump
    tree.create_dir(tree.lookup("/a"), "y")
    assert tree.version == v + 1


def test_validate_clean(tree):
    tree.validate()
