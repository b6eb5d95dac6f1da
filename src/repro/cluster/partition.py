"""Directory → MDS ownership map.

Ownership is stored densely (``int16`` per ino, ``-1`` for non-directories),
so every consumer that wants bulk views (cost evaluation, Meta-OPT candidate
enumeration, imbalance metrics) works on plain NumPy arrays.

Two placement regimes share this one class:

* **subtree placement** (CephFS/Lunule/Origami style): new directories
  inherit their parent's owner; ownership changes only through
  :meth:`migrate_subtree`.
* **hash placement** (C-Hash / F-Hash): a ``placement`` callable pins each
  new directory independently; :meth:`assign_dir` applies it.

``dir_version`` increments whenever directory ownership may have changed:
on every ownership change, and on a sync after a directory was created or
removed.  File creates and unlinks do not move it.  The client plan cache
and the colocated lsdir cache key on it.

Tree entries never move, so a parent's ino is smaller than its child's:
the sync fills new inos in ino order and every parent is placed before its
children.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.namespace.tree import _DIR, NamespaceTree

__all__ = ["PartitionMap"]


class PartitionMap:
    """Assignment of live directories to MDS ranks ``0..n_mds-1``."""

    def __init__(
        self,
        tree: NamespaceTree,
        n_mds: int,
        initial_owner: int = 0,
        placement: Optional[Callable[["PartitionMap", int, str], int]] = None,
        file_placement: Optional[Callable[["PartitionMap", int, str], int]] = None,
    ):
        if n_mds < 1:
            raise ValueError("need at least one MDS")
        if not 0 <= initial_owner < n_mds:
            raise ValueError(f"initial owner {initial_owner} out of range")
        self.tree = tree
        self.n_mds = n_mds
        #: callable (pmap, parent_ino, name) -> owner for newly created dirs;
        #: None means "inherit the parent's owner" (subtree placement).
        self.placement = placement
        #: where *file inodes* live relative to their parent's dentry shard:
        #: None colocates them (subtree/coarse-hash regimes); fine-grained
        #: hashing sets a callable, splitting file mutations across shards —
        #: the distributed-transaction penalty CFS [40] documents.
        self.file_placement = file_placement
        self._lsdir_cache: Dict[int, tuple] = {}
        # physical storage may exceed the logical size (amortised doubling so
        # per-file-create growth is O(1) amortised, never O(capacity))
        self._owner = np.full(tree.capacity, -1, dtype=np.int16)
        self._filled = tree.capacity
        mask = tree.dir_mask()
        self._owner[mask] = initial_owner
        #: bumped only when *directory ownership* may have changed, never on
        #: a sync that only filled file inos.  Consumers caching
        #: per-directory routing decisions (the client plan cache) key on
        #: this so file-heavy replay does not thrash them.
        self.dir_version = 0
        self._tree_version = tree.version
        self._view: Optional[np.ndarray] = None
        #: set while ``_sync`` fills new inos (see there)
        self._syncing = False

    # ------------------------------------------------------------ sync/grow
    def _sync(self) -> None:
        """Grow/refresh the owner array after tree mutations.

        Newly created directories get their owner from ``placement`` (or
        inherit the parent's); deleted directories drop to ``-1``.  File
        creation (the dominant mutation during replay) costs O(1) amortised.
        """
        tree = self.tree
        cap = tree.capacity
        version_changed = self._tree_version != tree.version
        if not version_changed and self._filled == cap:
            return
        if self._syncing:
            # placement callables may query owner()/new_dir_owner() while we
            # are filling new inos; parents precede children in ino order, so
            # the partially-filled array is already correct for them
            return
        self._syncing = True
        if self._owner.shape[0] < cap:
            phys = np.full(max(cap, self._owner.shape[0] * 2), -1, dtype=np.int16)
            phys[: self._owner.shape[0]] = self._owner
            self._owner = phys
        filled_dir = False
        if self._filled < cap:
            # fill new inos in ino order (parents always precede children)
            for ino in range(self._filled, cap):
                if not tree._alive[ino] or tree._ftype[ino] != _DIR:
                    continue
                filled_dir = True
                if self.placement is not None:
                    self._owner[ino] = self.placement(self, int(tree._parent[ino]), tree._name[ino])
                else:
                    po = self._owner[tree._parent[ino]]
                    self._owner[ino] = po if po >= 0 else 0
            self._filled = cap
        if version_changed:
            # directory structure changed: clear owners of dead/non-dir inos
            self._owner[:cap][~tree.dir_mask()] = -1
        self._tree_version = tree.version
        if version_changed or filled_dir:
            self.dir_version += 1
        self._syncing = False

    # -------------------------------------------------------------- queries
    def owner(self, ino: int) -> int:
        """Owner of a directory (or of a file's parent directory)."""
        self._sync()
        d = self.tree.owning_dir(ino)
        o = int(self._owner[d])
        if o < 0:
            raise KeyError(f"ino {d} has no owner (not a live directory?)")
        return o

    def owner_array(self) -> np.ndarray:
        """Dense owner view indexed by ino (-1 for non-dirs). Do not mutate."""
        self._sync()
        # slicing allocates a fresh view object every call (hot: once per op);
        # reuse it until capacity changes — in-place owner edits alias through
        view = self._view
        cap = self.tree.capacity
        if view is not None and view.shape[0] == cap:
            return view
        self._view = view = self._owner[:cap]
        return view

    def new_dir_owner(self, parent_ino: int, name: str) -> int:
        """Where a directory created as ``parent/name`` would land."""
        self._sync()
        if self.placement is not None:
            return self.placement(self, parent_ino, name)
        return self.owner(parent_ino)

    def uniform_subtree_mask(self) -> np.ndarray:
        """Boolean array indexed by ino: live directories whose subtree has a
        single owner throughout.

        These are Meta-OPT's migration candidates — migrating a mixed-owner
        subtree would not be a single (src, dst) move.  A subtree is uniform
        when no directory below its root is a boundary (owned differently
        from its parent); one prefix count of boundaries over the DFS order
        answers every subtree, O(#dirs) once the tree's DFS index is built.
        """
        self._sync()
        tree = self.tree
        idx = tree.dfs_index()
        order = idx.order
        boundary = self._owner[order] != self._owner[tree.parent_array()[order]]
        # boundaries[p] counts the boundaries at DFS positions before p
        boundaries = np.concatenate(([0], np.cumsum(boundary)))
        out = np.zeros(tree.capacity, dtype=bool)
        out[order] = boundaries[idx.tout[order]] == boundaries[idx.tin[order] + 1]
        return out

    # ------------------------------------------------------------ mutations
    def migrate_subtree(self, root_ino: int, dst: int) -> int:
        """Reassign every directory in ``root_ino``'s subtree to ``dst``.

        Returns the number of directories moved (counting those already on
        ``dst`` — the caller's MigrationLog can subtract if it cares).
        """
        self._sync()
        if not 0 <= dst < self.n_mds:
            raise ValueError(f"dst {dst} out of range")
        self.tree._check_dir(root_ino)
        idx = self.tree.dfs_index()
        dirs = idx.dirs_in_subtree(root_ino)
        self._owner[dirs] = dst
        self.dir_version += 1
        return int(dirs.shape[0])

    def assign_dir(self, dir_ino: int, mds: int) -> None:
        """Pin a single directory (hash placement bootstrap)."""
        self._sync()
        if not 0 <= mds < self.n_mds:
            raise ValueError(f"mds {mds} out of range")
        self.tree._check_dir(dir_ino)
        self._owner[dir_ino] = mds
        self.dir_version += 1

    def assign_bulk(self, owners: np.ndarray) -> None:
        """Overwrite ownership for all live dirs from an ino-indexed array."""
        self._sync()
        owners = np.asarray(owners)
        if owners.shape[0] != self.tree.capacity:
            raise ValueError("owners array must be ino-indexed with tree capacity")
        mask = self.tree.dir_mask()
        vals = owners[mask]
        if vals.size and (vals.min() < 0 or vals.max() >= self.n_mds):
            raise ValueError("owner out of range in bulk assignment")
        self._owner[: self.tree.capacity][mask] = owners[mask].astype(np.int16)
        self.dir_version += 1

    # ------------------------------------------------------------- summaries
    def dirs_per_mds(self) -> np.ndarray:
        self._sync()
        counts = np.zeros(self.n_mds, dtype=np.int64)
        live = self._owner[self._owner >= 0]
        np.add.at(counts, live.astype(np.int64), 1)
        return counts

    def inodes_per_mds(self) -> np.ndarray:
        """Metadata entries per MDS: each dir counts itself + its child files."""
        self._sync()
        tree = self.tree
        per_dir = 1 + tree.child_file_counts()
        counts = np.zeros(self.n_mds, dtype=np.int64)
        mask = tree.dir_mask()
        dirs = np.nonzero(mask)[0]
        np.add.at(counts, self._owner[dirs].astype(np.int64), per_dir[dirs])
        return counts

    def child_owner_counts(self, dir_ino: int) -> Dict[int, int]:
        """Multiset of owners among ``dir_ino``'s child directories."""
        self._sync()
        out: Dict[int, int] = {}
        for child in self.tree.children(dir_ino).values():
            o = self._owner[child]
            if o >= 0:
                out[int(o)] = out.get(int(o), 0) + 1
        return out

    def file_owner(self, parent_ino: int, name: str) -> int:
        """MDS storing the inode of file ``parent/name``.

        With colocating placement this is the parent's owner; fine-grained
        hashing shards file inodes independently.
        """
        if self.file_placement is not None:
            return self.file_placement(self, parent_ino, name)
        return self.owner(parent_ino)

    def lsdir_owners(self, dir_ino: int) -> frozenset:
        """Distinct *other* MDSs holding this directory's children.

        Includes child directories always, and child file inodes when file
        placement shards them.  With colocated file inodes (``file_placement
        is None``) only child directories count, so the set is cached per
        directory on ``dir_version``: every mkdir, rmdir or ownership change
        bumps it, while a file create does not, and lsdir-heavy traces hit
        the same hot directories repeatedly.  Under file placement every file
        create or unlink can change the set, so it is computed on every
        call.
        """
        self._sync()
        tree = self.tree
        colocated = self.file_placement is None
        if colocated:
            hit = self._lsdir_cache.get(dir_ino)
            if hit is not None and hit[0] == self.dir_version:
                return hit[1]
            if not tree.n_child_dirs(dir_ino):
                return frozenset()
        own = self.owner(dir_ino)
        kids = tree.children(dir_ino)
        others = {
            int(self._owner[c])
            for c in kids.values()
            if self._owner[c] >= 0 and self._owner[c] != own
        }
        if not colocated:
            for name, c in kids.items():
                if self._owner[c] < 0:  # a file entry
                    o = self.file_placement(self, dir_ino, name)
                    if o != own:
                        others.add(int(o))
            return frozenset(others)
        result = frozenset(others)
        self._lsdir_cache[dir_ino] = (self.dir_version, result)
        return result

    def lsdir_fanout(self, dir_ino: int) -> int:
        """Eq. (2)'s ``i`` for lsdir: distinct *other* MDSs holding children."""
        return len(self.lsdir_owners(dir_ino))

    def copy(self) -> "PartitionMap":
        """Independent copy sharing the same tree (what-if evaluation)."""
        self._sync()
        dup = PartitionMap.__new__(PartitionMap)
        dup.tree = self.tree
        dup.n_mds = self.n_mds
        dup.placement = self.placement
        dup.file_placement = self.file_placement
        dup._lsdir_cache = {}
        dup._owner = self._owner.copy()
        dup._filled = self._filled
        dup.dir_version = self.dir_version
        dup._tree_version = self._tree_version
        dup._view = None
        dup._syncing = False
        return dup

