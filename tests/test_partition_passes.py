"""The namespace-wide passes of the balancer epoch against the code they replaced.

:meth:`NamespaceTree._build_dfs` (one sort, then one numpy pass per depth
level each way), :meth:`PartitionMap.uniform_subtree_mask` (a prefix count
of ownership boundaries) and :meth:`PartitionMap.lsdir_owners` (cached on
``dir_version`` when file inodes are colocated, computed on every call
under file placement) must give what the earlier CSR-stack walk,
sparse-table reduction and uncached set comprehension gave, on any tree and
any partition.  The earlier code is kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balancers.hashing import CoarseHashPolicy, FineHashPolicy
from repro.cluster.partition import PartitionMap
from repro.namespace.builder import build_cloud_tree, build_software_project, build_web_tree
from repro.namespace.tree import ROOT_INO, DfsIndex, NamespaceTree
from repro.sim import SeedSequenceFactory

seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: sibling names whose code-point order differs from their ASCII-only or
#: case-folded order, outside the Basic Multilingual Plane too
NAMES = ("a", "B", "b", "aa", "a0", "10", "9", "Z", "_", "é", "Ω", "ab", "中", "😀", "a b")


# ----------------------------------------------------------- references
def reference_dfs(tree: NamespaceTree) -> DfsIndex:
    """The CSR-stack preorder walk ``_build_dfs`` was before."""
    n = tree.capacity
    tin = np.full(n, -1, dtype=np.int64)
    tout = np.full(n, -1, dtype=np.int64)
    order = np.empty(tree.num_dirs, dtype=np.int64)
    live_dir = tree._alive[:n] & (tree._ftype[:n] == 0)
    dirs = np.nonzero(live_dir)[0]
    nonroot = dirs[dirs != ROOT_INO]
    parents = tree._parent[nonroot]
    names = np.array([tree._name[i] for i in nonroot.tolist()], dtype=str)
    grouped = np.lexsort((names, parents))
    sorted_children = nonroot[grouped].tolist()
    sorted_parents = parents[grouped]
    start_of = np.zeros(n, dtype=np.int64)
    end_of = np.zeros(n, dtype=np.int64)
    start_of[dirs] = np.searchsorted(sorted_parents, dirs, side="left")
    end_of[dirs] = np.searchsorted(sorted_parents, dirs, side="right")
    start_l = start_of.tolist()
    end_l = end_of.tolist()
    order_l = []
    stack = [ROOT_INO]
    while stack:
        ino = stack.pop()
        order_l.append(ino)
        lo, hi = start_l[ino], end_l[ino]
        if lo != hi:
            stack.extend(reversed(sorted_children[lo:hi]))
    pos = len(order_l)
    assert pos == tree.num_dirs
    order[:] = order_l
    tin[order] = np.arange(pos, dtype=np.int64)
    sizes = [1] * pos
    parent_pos = tin[tree._parent[order]].tolist()
    for i in range(pos - 1, 0, -1):
        sizes[parent_pos[i]] += sizes[i]
    tout[order] = tin[order] + np.asarray(sizes, dtype=np.int64)
    return DfsIndex(order, tin, tout)


def _interval_reduce(vals, idx, op):
    """Sparse-table reduction of ``vals`` (DFS order) over every subtree."""
    n = vals.shape[0]
    out = np.full(idx.tin.shape[0], np.nan)
    levels = [vals]
    k = 1
    while (1 << k) <= n:
        prev = levels[-1]
        span = 1 << (k - 1)
        levels.append(op(prev[: prev.shape[0] - span], prev[span:]))
        k += 1
    live = idx.order
    lo = idx.tin[live]
    hi = idx.tout[live]
    length = hi - lo
    lev = np.floor(np.log2(length)).astype(np.int64)
    res = np.empty(length.shape[0])
    for L in np.unique(lev):
        m = lev == L
        table = levels[int(L)]
        res[m] = op(table[lo[m]], table[hi[m] - (1 << int(L))])
    out[live] = res
    return out


def reference_uniform_mask(pmap: PartitionMap) -> np.ndarray:
    """Subtree min == max of the owners, through a sparse table."""
    owners = pmap.owner_array().astype(np.float64)
    owners[owners < 0] = np.inf
    idx = reference_dfs(pmap.tree)
    vals = owners[idx.order]
    mins = _interval_reduce(vals, idx, np.minimum)
    maxs = _interval_reduce(vals, idx, np.maximum)
    out = np.zeros(pmap.tree.capacity, dtype=bool)
    out[idx.order] = mins[idx.order] == maxs[idx.order]
    return out


def fresh_lsdir_owners(pmap: PartitionMap, dir_ino: int) -> frozenset:
    """The other MDSs holding ``dir_ino``'s children, computed afresh."""
    owners = pmap.owner_array()
    own = pmap.owner(dir_ino)
    kids = pmap.tree.children(dir_ino)
    others = {int(owners[c]) for c in kids.values() if owners[c] >= 0 and owners[c] != own}
    if pmap.file_placement is not None:
        for name, c in kids.items():
            if owners[c] < 0:
                o = pmap.file_placement(pmap, dir_ino, name)
                if o != own:
                    others.add(int(o))
    return frozenset(others)


# ------------------------------------------------------- random states
REGIMES = {
    "subtree": lambda tree, n_mds: PartitionMap(tree, n_mds),
    "C-Hash": lambda tree, n_mds: CoarseHashPolicy(levels=2, seed=3).setup(tree, n_mds, None),
    "F-Hash": lambda tree, n_mds: FineHashPolicy(seed=3).setup(tree, n_mds, None),
}


def _free_name(rng, tree: NamespaceTree, parent: int, step: int) -> str:
    taken = tree.children(parent)
    free = [nm for nm in NAMES if nm not in taken]
    return free[int(rng.integers(len(free)))] if free else f"n{step}"


def _mutate(rng, tree: NamespaceTree, pmap, step: int) -> None:
    """One random grow, prune or ownership change."""
    dirs = list(tree.iter_dirs())
    d = dirs[int(rng.integers(len(dirs)))]
    roll = rng.random()
    if roll < 0.28:
        tree.create_dir(d, _free_name(rng, tree, d, step))
    elif roll < 0.48:
        tree.create_file(d, _free_name(rng, tree, d, step))
    elif roll < 0.58:
        files = [c for c in tree.children(d).values() if not tree.is_dir(c)]
        if files:
            tree.remove(files[int(rng.integers(len(files)))])
    elif roll < 0.66:
        if d != ROOT_INO and not tree.children(d):
            tree.remove(d)
    elif pmap is not None and roll < 0.9:
        pmap.migrate_subtree(d, int(rng.integers(pmap.n_mds)))
    elif pmap is not None:
        pmap.assign_dir(d, int(rng.integers(pmap.n_mds)))


def _assert_passes_match(tree: NamespaceTree, pmap: PartitionMap) -> None:
    # built afresh: the tree's cached index outlives file creates, which
    # leave it shorter than the capacity
    got, want = tree._build_dfs(), reference_dfs(tree)
    for name in ("order", "tin", "tout"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    mask = pmap.uniform_subtree_mask()
    assert mask.dtype == bool
    assert np.array_equal(mask, reference_uniform_mask(pmap))
    for d in tree.iter_dirs():
        assert pmap.lsdir_owners(d) == fresh_lsdir_owners(pmap, d), d


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    regime=st.sampled_from(sorted(REGIMES)),
    n_mds=st.integers(min_value=1, max_value=4),
    n_before=st.integers(min_value=0, max_value=30),
    n_after=st.integers(min_value=1, max_value=80),
)
def test_passes_match_the_reference_on_random_states(seed, regime, n_mds, n_before, n_after):
    """Every pass agrees with its reference after every step of a random
    sequence, so each lsdir cache entry meets every later mutation and
    every fan-out set equals one computed afresh."""
    rng = np.random.default_rng(seed)
    tree = NamespaceTree()
    for step in range(n_before):
        _mutate(rng, tree, None, step)
    pmap = REGIMES[regime](tree, n_mds)
    _assert_passes_match(tree, pmap)
    for step in range(n_before, n_before + n_after):
        _mutate(rng, tree, pmap, step)
        _assert_passes_match(tree, pmap)


BUILDERS = {
    "web": lambda rng: build_web_tree(rng, n_dirs=3000),
    "project": lambda rng: build_software_project(rng, n_modules=30),
    "cloud": lambda rng: build_cloud_tree(rng, n_tenants=20),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_passes_match_the_reference_on_workload_trees(builder):
    """Deep, wide and heavy-tailed trees, with subtrees migrated at random."""
    tree = BUILDERS[builder](SeedSequenceFactory(5).stream("builder")).tree
    pmap = PartitionMap(tree, 4)
    rng = np.random.default_rng(5)
    dirs = list(tree.iter_dirs())
    for d in rng.choice(dirs, size=40):
        pmap.migrate_subtree(int(d), int(rng.integers(4)))
    _assert_passes_match(tree, pmap)


def test_dfs_of_a_root_only_tree():
    tree = NamespaceTree()
    tree.create_file(ROOT_INO, "f")
    idx = tree.dfs_index()
    assert idx.order.tolist() == [0]
    assert idx.tin.tolist() == [0, -1] and idx.tout.tolist() == [1, -1]
    assert PartitionMap(tree, 2).uniform_subtree_mask().tolist() == [True, False]


# --------------------------------------------------------- lsdir cache
def _one_dir(placement=None, file_placement=None):
    """/d with child directories c0 and c1, on MDS 0 of 3."""
    tree = NamespaceTree()
    d = tree.create_dir(ROOT_INO, "d")
    c0 = tree.create_dir(d, "c0")
    tree.create_dir(d, "c1")
    pmap = PartitionMap(tree, 3, placement=placement, file_placement=file_placement)
    pmap.migrate_subtree(c0, 1)
    return tree, pmap, d, c0


def test_colocated_file_create_reuses_the_cached_set():
    tree, pmap, d, _ = _one_dir()
    cached = pmap.lsdir_owners(d)
    assert cached == {1}
    tree.create_file(d, "f")
    assert pmap.lsdir_owners(d) is cached


def _to_mds2(pmap, parent, name):
    """Directories named x* land on MDS 2; the rest inherit (colocated files)."""
    return 2 if name.startswith("x") else pmap.owner(parent)


@pytest.mark.parametrize("change", ["mkdir", "rmdir", "migrate"])
def test_directory_changes_refresh_the_cached_set(change):
    tree, pmap, d, c0 = _one_dir(placement=_to_mds2)
    if change == "rmdir":
        x = tree.create_dir(d, "x")
    assert pmap.lsdir_owners(d) == ({1, 2} if change == "rmdir" else {1})
    if change == "mkdir":
        tree.create_dir(d, "x")
        want = {1, 2}
    elif change == "rmdir":
        tree.remove(x)
        want = {1}
    else:
        pmap.migrate_subtree(c0, 2)
        want = {2}
    assert pmap.lsdir_owners(d) == want


def test_sharded_file_create_refreshes_the_cached_set():
    tree, pmap, d, _ = _one_dir(file_placement=lambda pmap, parent, name: 2)
    assert pmap.lsdir_owners(d) == {1}
    tree.create_file(d, "f")
    assert pmap.lsdir_owners(d) == {1, 2}


def test_sharded_file_unlink_refreshes_the_cached_set():
    tree, pmap, d, _ = _one_dir(file_placement=lambda pmap, parent, name: 2)
    f = tree.create_file(d, "f")
    assert pmap.lsdir_owners(d) == {1, 2}
    tree.remove(f)
    assert pmap.lsdir_owners(d) == {1}
