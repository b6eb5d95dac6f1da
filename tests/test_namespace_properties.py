"""Property tests for the array-backed namespace tree and its DFS index.

:class:`~repro.namespace.tree.NamespaceTree` keeps every per-inode column
in growable numpy arrays and builds its DFS index
(:meth:`~repro.namespace.tree.NamespaceTree._build_dfs`) with numpy passes.
These tests pin the two contracts that design must preserve for
*arbitrary* shapes, not just the golden workloads:

* the DFS index's interval arithmetic (``subtree_sum``,
  ``dirs_in_subtree``, ``contains``, ``subtree_size``) agrees with a naive
  child-map recursion on randomly grown-and-pruned trees;
* the tree itself stays behaviourally identical to a plain dict/list
  shadow model under random mutation sequences (create/remove/rename),
  including the error cases and the post-growth state of every accessor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.namespace.tree import ROOT_INO, NamespaceTree

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ------------------------------------------------------------ random trees
def _grow_random_tree(rng, n_mutations: int) -> NamespaceTree:
    """Random structural churn: mkdir-heavy with file creates and removes."""
    tree = NamespaceTree()
    dirs = [ROOT_INO]
    files = []
    serial = 0
    for _ in range(n_mutations):
        roll = rng.random()
        if roll < 0.45 or len(dirs) == 1:
            serial += 1
            dirs.append(tree.create_dir(int(rng.choice(dirs)), f"d{serial}"))
        elif roll < 0.75:
            serial += 1
            files.append(tree.create_file(int(rng.choice(dirs)), f"f{serial}"))
        elif roll < 0.9 and files:
            ino = int(files.pop(int(rng.integers(len(files)))))
            tree.remove(ino)
        else:
            # remove a random *empty* non-root directory, if one exists
            empties = [d for d in dirs if d != ROOT_INO and not tree.children(d)]
            if empties:
                victim = int(rng.choice(empties))
                tree.remove(victim)
                dirs.remove(victim)
    return tree


def _naive_subtree_dirs(tree: NamespaceTree, root: int) -> list:
    """Reference preorder walk via the child maps (smallest name first)."""
    out = []
    stack = [root]
    while stack:
        ino = stack.pop()
        out.append(ino)
        kids = tree.children(ino)
        subdirs = sorted(
            (name, c) for name, c in kids.items() if tree.is_dir(c)
        )
        for _name, c in reversed(subdirs):
            stack.append(c)
    return out


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=200))
def test_dfs_index_matches_naive_recursion(seed, n):
    tree = _grow_random_tree(np.random.default_rng(seed), n)
    idx = tree.dfs_index()
    per_dir = np.zeros(tree.capacity, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    for d in tree.iter_dirs():
        per_dir[d] = float(rng.integers(0, 100))

    sums = idx.subtree_sum(per_dir)
    all_dirs = list(tree.iter_dirs())
    assert sorted(idx.order.tolist()) == all_dirs  # every live dir, once
    for root in all_dirs:
        naive = _naive_subtree_dirs(tree, root)
        assert idx.dirs_in_subtree(root).tolist() == naive
        assert idx.subtree_size(root) == len(naive)
        assert sums[root] == sum(per_dir[d] for d in naive)
        for d in naive:
            assert idx.contains(root, d)
    # non-membership: a dir outside the subtree is never reported inside
    for root in all_dirs:
        inside = set(_naive_subtree_dirs(tree, root))
        for d in all_dirs:
            assert idx.contains(root, d) == (d in inside)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=150))
def test_dfs_index_preorder_intervals_are_well_formed(seed, n):
    tree = _grow_random_tree(np.random.default_rng(seed), n)
    idx = tree.dfs_index()
    tin, tout = idx.tin, idx.tout
    for d in tree.iter_dirs():
        assert 0 <= tin[d] < tout[d] <= tree.num_dirs
        if d != ROOT_INO:
            p = tree.parent(d)
            assert tin[p] < tin[d] and tout[d] <= tout[p]  # nested intervals
    # dead / file inos are unindexed
    for ino in range(tree.capacity):
        if not (tree.is_alive(ino) and tree.is_dir(ino)):
            assert tin[ino] == -1 and tout[ino] == -1


# ---------------------------------------------------------- shadow model
class _ShadowTree:
    """Plain dict/list reference implementation of the tree's semantics."""

    def __init__(self):
        self.parent = {ROOT_INO: ROOT_INO}
        self.name = {ROOT_INO: ""}
        self.is_dir = {ROOT_INO: True}
        self.depth = {ROOT_INO: 0}
        self.children = {ROOT_INO: {}}
        self.next_ino = 1

    def create(self, parent: int, name: str, directory: bool) -> int:
        ino = self.next_ino
        self.next_ino += 1
        self.parent[ino] = parent
        self.name[ino] = name
        self.is_dir[ino] = directory
        self.depth[ino] = self.depth[parent] + 1
        self.children[parent][name] = ino
        if directory:
            self.children[ino] = {}
        return ino

    def remove(self, ino: int) -> None:
        del self.children[self.parent[ino]][self.name[ino]]
        for table in (self.parent, self.name, self.is_dir, self.depth):
            del table[ino]
        self.children.pop(ino, None)

    def resolve(self, ino: int) -> list:
        chain = []
        while ino != ROOT_INO:
            chain.append(ino)
            ino = self.parent[ino]
        chain.append(ROOT_INO)
        chain.reverse()
        return chain


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=300))
def test_tree_matches_shadow_model_under_random_mutations(seed, n):
    """Drive identical random mutation sequences through the array-backed
    tree and the dict shadow; every accessor must agree afterwards —
    including across several capacity-doubling reallocations (n up to 300
    crosses the initial logical sizing many times over)."""
    rng = np.random.default_rng(seed)
    tree = NamespaceTree()
    shadow = _ShadowTree()
    dirs = [ROOT_INO]
    files = []
    serial = 0
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4 or len(dirs) == 1:
            serial += 1
            parent = int(rng.choice(dirs))
            got = tree.create_dir(parent, f"d{serial}")
            want = shadow.create(parent, f"d{serial}", True)
            assert got == want
            dirs.append(got)
        elif roll < 0.7:
            serial += 1
            parent = int(rng.choice(dirs))
            got = tree.create_file(parent, f"f{serial}")
            want = shadow.create(parent, f"f{serial}", False)
            assert got == want
            files.append(got)
        elif roll < 0.85 and files:
            ino = int(files.pop(int(rng.integers(len(files)))))
            tree.remove(ino)
            shadow.remove(ino)
        else:
            empties = [d for d in dirs if d != ROOT_INO and not tree.children(d)]
            if empties:
                victim = int(rng.choice(empties))
                tree.remove(victim)
                shadow.remove(victim)
                dirs.remove(victim)

    # full-state comparison, accessor by accessor
    assert tree.capacity == shadow.next_ino
    assert tree.num_dirs == sum(1 for v in shadow.is_dir.values() if v)
    assert tree.num_files == sum(1 for v in shadow.is_dir.values() if not v)
    for ino in range(tree.capacity):
        alive = ino in shadow.parent
        assert tree.is_alive(ino) == alive
        if not alive:
            continue
        assert tree.is_dir(ino) == shadow.is_dir[ino]
        assert tree.parent(ino) == shadow.parent[ino]
        assert tree.name(ino) == shadow.name[ino]
        assert tree.depth(ino) == shadow.depth[ino]
        assert tree.resolve(ino) == shadow.resolve(ino)
        if shadow.is_dir[ino]:
            assert tree.children(ino) == shadow.children[ino]
    # scalar accessors must return plain Python types (JSON/hash safety)
    assert type(tree.parent(ROOT_INO)) is int
    assert type(tree.depth(ROOT_INO)) is int
    assert type(tree.is_alive(ROOT_INO)) is bool
    tree.validate()


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_bulk_views_are_readonly_and_logical_sized(seed):
    tree = _grow_random_tree(np.random.default_rng(seed), 80)
    for view in (tree.parent_array(), tree.depth_array(),
                 tree.child_file_counts(), tree.child_dir_counts()):
        assert view.shape[0] == tree.capacity
        assert not view.flags.writeable
