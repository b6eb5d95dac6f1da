"""Array-backed hierarchical namespace tree.

Inode numbers are dense non-negative integers (root = 0), so per-inode fields
live in parallel growable numpy arrays indexed by ino (amortized-doubling
capacity; ``capacity`` is the logical size, the physical allocation is
``_cap``).  The structures every upper layer leans on:

* ``resolve(path)`` — the component-by-component walk clients perform; the
  returned ancestor chain is what the cost model charges ``T_inode`` reads
  and partition crossings against.
* :class:`DfsIndex` — a lazily (re)built preorder index over *directories*.
  It turns "is directory ``d`` inside subtree ``s``" into an O(1) interval
  test and subtree aggregation of any per-directory value array into one
  vectorised prefix-sum — the hot path of both the Meta-OPT ledger and the
  Table-1 feature extractor.

Entries never move once created: the tree offers create and remove, not
rename, so every entry's parent has a smaller ino than the entry itself
(:meth:`NamespaceTree.from_columns`, the partition map's sync and the
checkpoint codec rely on it).  Structural directory mutations (mkdir /
rmdir) invalidate the cached index; file creation only touches
per-directory counters, so replaying file-heavy traces does not thrash the
index.

Scalar accessors return plain Python ints/bools (numpy scalars would leak
into JSON exports and hash-placement arithmetic); bulk views return
read-only zero-copy slices of the backing arrays.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = ["NamespaceTree", "DfsIndex", "ROOT_INO"]

ROOT_INO = 0

#: the ``ftype`` column's two tags, plain ints (the per-op accessors compare
#: against them hundreds of thousands of times per run)
_DIR = 0
_REGULAR = 1

#: initial physical capacity of the per-ino arrays
_INITIAL_CAP = 1024


def _components(path: str) -> List[str]:
    """A slash path's non-empty, non-``.`` segments; ``..`` is rejected
    (paths resolve top-down and never refer back to a parent)."""
    out: List[str] = []
    for seg in path.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            raise ValueError(f"parent references not allowed: {path!r}")
        out.append(seg)
    return out


class DfsIndex:
    """Preorder (Euler-interval) index over the live directories of a tree.

    ``order[i]`` is the ino of the i-th directory in preorder; ``tin[ino]``
    and ``tout[ino]`` delimit the half-open interval of preorder positions
    occupied by ``ino``'s directory subtree.  Non-directories and dead inodes
    have ``tin == -1``.
    """

    __slots__ = ("order", "tin", "tout")

    def __init__(self, order: np.ndarray, tin: np.ndarray, tout: np.ndarray):
        self.order = order
        self.tin = tin
        self.tout = tout

    def contains(self, subtree_root: int, dir_ino: int) -> bool:
        """True iff ``dir_ino`` lies in the directory subtree rooted at ``subtree_root``."""
        pos = self.tin[dir_ino]
        if pos < 0:
            raise ValueError(f"ino {dir_ino} is not an indexed directory")
        return self.tin[subtree_root] <= pos < self.tout[subtree_root]

    def subtree_size(self, subtree_root: int) -> int:
        """Number of directories (including the root) in the subtree."""
        return int(self.tout[subtree_root] - self.tin[subtree_root])

    def subtree_sum(self, per_dir: np.ndarray) -> np.ndarray:
        """Aggregate ``per_dir`` (indexed by ino) over every directory subtree.

        Returns an array indexed by ino: ``out[d]`` is the sum of ``per_dir``
        over all directories in ``d``'s subtree.  One gather + one prefix sum;
        O(#dirs) regardless of how many subtrees are queried afterwards.
        """
        vals = per_dir[self.order]
        prefix = np.concatenate(([0.0], np.cumsum(vals, dtype=np.float64)))
        out = np.zeros(per_dir.shape[0], dtype=np.float64)
        live = self.order
        out[live] = prefix[self.tout[live]] - prefix[self.tin[live]]
        return out

    def dirs_in_subtree(self, subtree_root: int) -> np.ndarray:
        """Array of dir inos inside the subtree (preorder)."""
        return self.order[self.tin[subtree_root] : self.tout[subtree_root]]


class NamespaceTree:
    """The directory tree plus file entries; the single source of truth."""

    def __init__(self) -> None:
        cap = _INITIAL_CAP
        # per-ino numpy columns; [0, _n) is the logical extent, the rest is
        # zero slack so stale reads past the end see "dead file" not garbage
        self._parent = np.zeros(cap, dtype=np.int64)
        self._ftype = np.zeros(cap, dtype=np.int8)
        self._depth = np.zeros(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._size = np.zeros(cap, dtype=np.int64)
        self._n_child_files = np.zeros(cap, dtype=np.int64)
        self._n_child_dirs = np.zeros(cap, dtype=np.int64)
        self._cap = cap
        self._n = 1
        # ragged columns stay Python lists: names are interned strings (the
        # name table), children maps exist only for directories
        self._name: List[str] = [""]
        self._children: List[Optional[Dict[str, int]]] = [{}]
        self._parent[ROOT_INO] = ROOT_INO
        self._ftype[ROOT_INO] = _DIR
        self._alive[ROOT_INO] = True
        self._num_dirs = 1
        self._num_files = 0
        self._dfs_cache: Optional[DfsIndex] = None
        #: bumped on every structural directory mutation; consumers that keep
        #: derived state (partition maps) watch this to know when to refresh.
        self.version = 0

    # ------------------------------------------------------------------ sizes
    def __len__(self) -> int:
        return self._num_dirs + self._num_files

    @property
    def capacity(self) -> int:
        """One past the largest ino ever allocated (array sizing)."""
        return self._n

    @property
    def num_dirs(self) -> int:
        return self._num_dirs

    @property
    def num_files(self) -> int:
        return self._num_files

    # -------------------------------------------------------------- accessors
    # The liveness check is inlined in the hot accessors below (is_alive /
    # is_dir / parent / depth / resolve each fire hundreds of thousands of
    # times per run; a _check() call per access doubles their cost).
    def is_alive(self, ino: int) -> bool:
        return 0 <= ino < self._n and bool(self._alive[ino])

    def _check(self, ino: int) -> None:
        if not (0 <= ino < self._n and self._alive[ino]):
            raise KeyError(f"ino {ino} does not exist")

    def is_dir(self, ino: int) -> bool:
        if 0 <= ino < self._n and self._alive[ino]:
            return bool(self._ftype[ino] == _DIR)
        raise KeyError(f"ino {ino} does not exist")

    def parent(self, ino: int) -> int:
        if 0 <= ino < self._n and self._alive[ino]:
            return int(self._parent[ino])
        raise KeyError(f"ino {ino} does not exist")

    def name(self, ino: int) -> str:
        self._check(ino)
        return self._name[ino]

    def depth(self, ino: int) -> int:
        if 0 <= ino < self._n and self._alive[ino]:
            return int(self._depth[ino])
        raise KeyError(f"ino {ino} does not exist")

    def n_child_files(self, ino: int) -> int:
        self._check_dir(ino)
        return int(self._n_child_files[ino])

    def n_child_dirs(self, ino: int) -> int:
        self._check_dir(ino)
        return int(self._n_child_dirs[ino])

    def children(self, ino: int) -> Dict[str, int]:
        self._check_dir(ino)
        return self._children[ino]  # type: ignore[return-value]

    def _check_dir(self, ino: int) -> None:
        self._check(ino)
        if self._ftype[ino] != _DIR:
            raise NotADirectoryError(f"ino {ino} ({self.path_of(ino)}) is not a directory")

    # ------------------------------------------------------------- mutations
    def _grow(self, need: int) -> None:
        """Double the physical capacity of every per-ino column until ``need``
        inos fit (one reallocation, the size repeated doubling reaches)."""
        new_cap = self._cap * 2
        while new_cap < need:
            new_cap *= 2
        for attr in (
            "_parent",
            "_ftype",
            "_depth",
            "_alive",
            "_size",
            "_n_child_files",
            "_n_child_dirs",
        ):
            old = getattr(self, attr)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, attr, grown)
        self._cap = new_cap

    def _alloc(self, parent: int, name: str, ftype: int) -> int:
        # _check_dir is inlined: a million-entity build (and a write-heavy
        # replay) calls this once per created entity
        if not (0 <= parent < self._n and self._alive[parent]):
            raise KeyError(f"ino {parent} does not exist")
        if self._ftype[parent] != _DIR:
            raise NotADirectoryError(
                f"ino {parent} ({self.path_of(parent)}) is not a directory"
            )
        if not name or "/" in name:
            raise ValueError(f"invalid entry name {name!r}")
        kids = self._children[parent]
        if name in kids:
            raise FileExistsError(f"{self.path_of(parent)}/{name} already exists")
        ino = self._n
        if ino == self._cap:
            self._grow(ino + 1)
        self._parent[ino] = parent
        self._name.append(sys.intern(name))
        self._depth[ino] = self._depth[parent] + 1
        self._alive[ino] = True
        # _size and the child counters keep the column's zero slack: inos are
        # never reused, so the slot is guaranteed fresh
        self._n = ino + 1
        kids[name] = ino
        if ftype == _DIR:
            self._ftype[ino] = _DIR
            self._children.append({})
            self._n_child_dirs[parent] += 1
            self._num_dirs += 1
            self._invalidate()
        else:
            self._ftype[ino] = ftype
            self._children.append(None)
            self._n_child_files[parent] += 1
            self._num_files += 1
        return ino

    def create_dir(self, parent: int, name: str) -> int:
        """mkdir: create a directory under ``parent``; returns the new ino."""
        return self._alloc(parent, name, _DIR)

    def create_file(self, parent: int, name: str, size: int = 0) -> int:
        """create: add a regular file under ``parent``; returns the new ino."""
        ino = self._alloc(parent, name, _REGULAR)
        if size:
            self._size[ino] = size
        return ino

    def create_many(self, parents, names, is_dir, sizes=None) -> np.ndarray:
        """Bulk mkdir/create: append a batch of entries in order; returns their inos.

        Entry ``i`` becomes ino ``capacity + i``; its parent is a live
        directory of the tree or an earlier directory of the batch.
        ``sizes``, if given, sets the files' sizes.  The tree ends up exactly
        as the same sequence of :meth:`create_dir` / :meth:`create_file`
        calls would leave it: inos, interned names, child-map order, depths,
        counters, and ``version`` bumped once per directory.  A batch those
        calls would reject raises the error type the first rejected call
        would raise, and leaves the tree unchanged.
        """
        names = list(map(sys.intern, names))
        parents = np.asarray(parents, dtype=np.int64)
        is_dir = np.asarray(is_dir, dtype=bool)
        k = len(names)
        if parents.shape != (k,) or is_dir.shape != (k,) or (
            sizes is not None and np.shape(sizes) != (k,)
        ):
            raise ValueError("create_many columns must have equal length")
        n0 = self._n
        new_n = n0 + k
        inos = np.arange(n0, new_n, dtype=np.int64)
        if not k:
            return inos

        # every parent is a live directory of the tree or an earlier directory
        # of the batch, and every distinct name is valid
        in_tree = parents < n0
        valid = (parents >= 0) & (parents < inos)
        known = in_tree & valid
        valid[known] = self._alive[parents[known]] & (self._ftype[parents[known]] == _DIR)
        batch = ~in_tree & valid
        valid[batch] = is_dir[parents[batch] - n0]
        if not valid.all() or any(not nm or "/" in nm for nm in set(names)):
            raise self._rejection(parents, names, is_dir)
        # one pass links the child maps; the tree's own directories get their
        # additions staged apart, so a rejected batch leaves the tree as it is
        n_dirs = int(np.count_nonzero(is_dir))
        dir_maps: List[Dict[str, int]] = [{} for _ in range(n_dirs)]
        maps = np.full(k, None, dtype=object)
        maps[is_dir] = dir_maps
        maps = maps.tolist()
        lo = int(parents.min())
        targets = [None] * (n0 - lo) + maps  # child maps by parent ino - lo
        staged: Dict[int, Dict[str, int]] = {}
        for p in np.unique(parents[in_tree]).tolist():
            targets[p - lo] = staged[p] = {}
        for ino, q, name in zip(range(n0, new_n), (parents - lo).tolist(), names):
            targets[q][name] = ino
        # a repeated sibling name leaves its map short of its entry count
        fanout = np.bincount(parents, minlength=new_n)
        if list(map(len, dir_maps)) != fanout[n0:][is_dir].tolist() or not all(
            len(added) == fanout[p] and added.keys().isdisjoint(self._children[p])
            for p, added in staged.items()
        ):
            raise self._rejection(parents, names, is_dir)

        if new_n > self._cap:
            self._grow(new_n)
        self._parent[n0:new_n] = parents
        self._ftype[n0:new_n] = np.where(is_dir, _DIR, _REGULAR)
        self._alive[n0:new_n] = True
        if sizes is not None:
            self._size[n0:new_n] = np.where(is_dir, 0, sizes)
        # depths, one pass per level of the batch: parents come first, so
        # each pass settles every entry whose parent's depth is known
        depth = self._depth
        depth[inos[in_tree]] = depth[parents[in_tree]] + 1
        settled = in_tree.copy()
        todo = np.flatnonzero(~in_tree)
        while todo.size:
            ready = settled[parents[todo] - n0]
            now = todo[ready]
            depth[inos[now]] = depth[parents[now]] + 1
            settled[now] = True
            todo = todo[~ready]
        child_dirs = np.bincount(parents[is_dir], minlength=new_n)
        self._n_child_dirs[:new_n] += child_dirs
        self._n_child_files[:new_n] += fanout - child_dirs
        self._name.extend(names)
        self._children.extend(maps)
        for p, added in staged.items():
            self._children[p].update(added)
        self._num_dirs += n_dirs
        self._num_files += k - n_dirs
        self._n = new_n
        if n_dirs:
            self._dfs_cache = None
            self.version += n_dirs
        return inos

    def _rejection(self, parents: np.ndarray, names: List[str], is_dir: np.ndarray) -> Exception:
        """The error of the first entry of a rejected :meth:`create_many` batch,
        checked one entry at a time as :meth:`_alloc` checks a call."""
        n0 = self._n
        taken: Dict[int, set] = {}
        for i, (p, name) in enumerate(zip(parents.tolist(), names)):
            if p >= n0 + i or not (p >= n0 or self.is_alive(p)):
                return KeyError(f"ino {p} does not exist")
            if not (is_dir[p - n0] if p >= n0 else self._ftype[p] == _DIR):
                return NotADirectoryError(f"ino {p} is not a directory")
            if not name or "/" in name:
                return ValueError(f"invalid entry name {name!r}")
            siblings = taken.setdefault(p, set(self._children[p]) if p < n0 else set())
            if name in siblings:
                return FileExistsError(f"ino {p} already has an entry {name!r}")
            siblings.add(name)
        raise AssertionError("create_many rejected a valid batch")

    def columns(self) -> Dict[str, list]:
        """The tree as five per-ino columns over ``[0, capacity)``, plain lists:
        ``parent``, ``name``, ``ftype``, ``alive`` and ``size``.

        :meth:`from_columns` rebuilds the tree from them; child maps, depths,
        counters and ``version`` are derived.
        """
        n = self._n
        return {
            "parent": self._parent[:n].tolist(),
            "name": list(self._name),
            "ftype": self._ftype[:n].tolist(),
            "alive": self._alive[:n].tolist(),
            "size": self._size[:n].tolist(),
        }

    @classmethod
    def from_columns(cls, parent, name, ftype, alive, size) -> "NamespaceTree":
        """Rebuild a tree from :meth:`columns` (``from_columns(**columns)``)
        with the same ino numbering.

        Every ino is created in order with one :meth:`create_many` call, so
        a parent must precede its children (true of every tree, whose
        entries never move); dead inos are then removed, deepest first, and
        get their names back.  Columns that describe no such tree raise
        ``ValueError``.
        """
        parent = np.asarray(parent, dtype=np.int64)
        ftype = np.asarray(ftype, dtype=np.int8)
        alive = np.asarray(alive, dtype=bool)
        size = np.asarray(size, dtype=np.int64)
        names = list(name)
        n = len(names)
        if not parent.shape == ftype.shape == alive.shape == size.shape == (n,):
            raise ValueError("tree columns must be 1-D and of equal length")
        if not n or parent[0] != ROOT_INO or ftype[0] != _DIR or not alive[0] or names[0]:
            raise ValueError("ino 0 must be the live root directory")
        if not np.isin(ftype, (_DIR, _REGULAR)).all():
            raise ValueError("tree columns hold an unknown file type")
        dead = (np.flatnonzero(~alive[1:]) + 1).tolist()
        entry_names = names[1:]
        taken = set(names) if dead else ()
        for ino in dead:
            # a removed entry's name may have been reused by a live sibling,
            # and a live entry may bear any placeholder name: each dead ino
            # gets one that no entry of the batch bears
            placeholder = f"__dead_{ino}"
            while placeholder in taken:
                placeholder = "_" + placeholder
            entry_names[ino - 1] = placeholder
        tree = cls()
        try:
            tree.create_many(parent[1:], entry_names, ftype[1:] == _DIR, size[1:])
            for ino in sorted(dead, key=tree.depth, reverse=True):
                tree.remove(ino)
        except (KeyError, OSError) as exc:
            raise ValueError(exc.args[0]) from None
        for ino in dead:
            tree._name[ino] = sys.intern(names[ino])
        return tree

    def makedirs(self, path: str) -> int:
        """Create every missing directory along ``path``; returns the leaf ino."""
        cur = ROOT_INO
        for seg in _components(path):
            kids = self._children[cur]
            assert kids is not None
            nxt = kids.get(seg)
            if nxt is None:
                cur = self.create_dir(cur, seg)
            else:
                if self._ftype[nxt] != _DIR:
                    raise NotADirectoryError(f"{seg} along {path} is a file")
                cur = nxt
        return cur

    def remove(self, ino: int) -> None:
        """Unlink a file or an *empty* directory (rmdir semantics)."""
        self._check(ino)
        if ino == ROOT_INO:
            raise ValueError("cannot remove the root")
        if self._ftype[ino] == _DIR:
            kids = self._children[ino]
            assert kids is not None
            if kids:
                raise OSError(f"directory not empty: {self.path_of(ino)}")
        parent = int(self._parent[ino])
        pk = self._children[parent]
        assert pk is not None
        del pk[self._name[ino]]
        self._alive[ino] = False
        if self._ftype[ino] == _DIR:
            self._n_child_dirs[parent] -= 1
            self._num_dirs -= 1
            self._children[ino] = None
            self._invalidate()
        else:
            self._n_child_files[parent] -= 1
            self._num_files -= 1

    def _invalidate(self) -> None:
        self._dfs_cache = None
        self.version += 1

    # ------------------------------------------------------------ navigation
    def lookup(self, path: str) -> int:
        """Resolve ``path`` to an ino; KeyError if any component is missing."""
        cur = ROOT_INO
        for seg in _components(path):
            if self._ftype[cur] != _DIR:
                raise NotADirectoryError(f"{seg} under a file in {path!r}")
            kids = self._children[cur]
            assert kids is not None
            try:
                cur = kids[seg]
            except KeyError:
                raise KeyError(f"{path!r}: component {seg!r} not found") from None
        return cur

    def resolve(self, ino: int) -> List[int]:
        """Ancestor chain root → ``ino`` inclusive (the path-resolution walk)."""
        self._check(ino)
        parent = self._parent
        chain: List[int] = []
        append = chain.append
        cur = ino
        while cur:
            append(cur)
            cur = int(parent[cur])
        append(ROOT_INO)
        chain.reverse()
        return chain

    def path_of(self, ino: int) -> str:
        self._check(ino)
        if ino == ROOT_INO:
            return "/"
        parts: List[str] = []
        cur = ino
        while cur != ROOT_INO:
            parts.append(self._name[cur])
            cur = int(self._parent[cur])
        return "/" + "/".join(reversed(parts))

    def iter_dirs(self) -> Iterator[int]:
        """All live directory inos (ascending ino order)."""
        n = self._n
        mask = self._alive[:n] & (self._ftype[:n] == _DIR)
        yield from np.nonzero(mask)[0].tolist()

    def iter_subtree_dirs(self, root: int) -> Iterator[int]:
        """Directories in ``root``'s subtree, preorder (root first)."""
        self._check_dir(root)
        ftype = self._ftype
        stack = [root]
        while stack:
            ino = stack.pop()
            yield ino
            kids = self._children[ino]
            assert kids is not None
            for child in kids.values():
                if ftype[child] == _DIR:
                    stack.append(child)

    # ------------------------------------------------------------ bulk views
    def dfs_index(self) -> DfsIndex:
        """Return the (cached) preorder index over live directories."""
        if self._dfs_cache is None:
            self._dfs_cache = self._build_dfs()
        return self._dfs_cache

    def _build_dfs(self) -> DfsIndex:
        """Preorder with siblings in ascending name order.

        Ranking the m live directories' names and sorting the directories by
        (depth, parent, name) is O(m log m); then one numpy pass per depth
        level bottom-up (subtree sizes) and one top-down (``tin``).  Every
        intermediate is indexed by directory, not by ino."""
        n = self._n
        dirs = np.flatnonzero(self._alive[:n] & (self._ftype[:n] == _DIR))
        m = dirs.shape[0]
        # each directory's parent as a position in ``dirs`` (the root's is 0)
        up = np.searchsorted(dirs, self._parent[dirs])
        depth = self._depth[dirs]
        # sibling names ranked through the sorted distinct names: Python's str
        # order is code-point order
        names = [self._name[ino] for ino in dirs[1:].tolist()]
        rank_of = {name: r for r, name in enumerate(sorted(set(names)))}
        rank = np.fromiter(map(rank_of.__getitem__, names), dtype=np.int64, count=m - 1)
        # the non-root directories by depth, then parent, then name: a depth
        # level is one slice, and siblings sit together in name order
        kids = 1 + np.lexsort((rank, up[1:], depth[1:]))
        up_k = up[kids]
        cuts = (np.flatnonzero(np.diff(depth[kids])) + 1).tolist()
        levels = list(zip([0, *cuts], [*cuts, m - 1]))
        # subtree sizes, deepest level first
        size = np.ones(m, dtype=np.int64)
        for lo, hi in reversed(levels):
            np.add.at(size, up_k[lo:hi], size[kids[lo:hi]])
        assert size[0] == self._num_dirs, "a live directory is unreachable from the root"
        # a child starts one past its parent, after its earlier siblings' subtrees
        span = size[kids]
        before = np.cumsum(span) - span
        first = np.flatnonzero(np.diff(up_k, prepend=-1))
        skip = before - np.repeat(before[first], np.diff(first, append=m - 1))
        tin_d = np.zeros(m, dtype=np.int64)
        for lo, hi in levels:
            tin_d[kids[lo:hi]] = tin_d[up_k[lo:hi]] + 1 + skip[lo:hi]
        order = np.empty(m, dtype=np.int64)
        order[tin_d] = dirs
        tin = np.full(n, -1, dtype=np.int64)
        tout = np.full(n, -1, dtype=np.int64)
        tin[dirs] = tin_d
        tout[dirs] = tin_d + size
        return DfsIndex(order, tin, tout)

    def _view(self, arr: np.ndarray) -> np.ndarray:
        view = arr[: self._n]
        view.flags.writeable = False
        return view

    def depth_array(self) -> np.ndarray:
        """Depths indexed by ino (dead inodes included; check liveness separately).

        Zero-copy read-only view; copy before mutating.
        """
        return self._view(self._depth)

    def parent_array(self) -> np.ndarray:
        return self._view(self._parent)

    def child_file_counts(self) -> np.ndarray:
        return self._view(self._n_child_files)

    def child_dir_counts(self) -> np.ndarray:
        return self._view(self._n_child_dirs)

    def dir_mask(self) -> np.ndarray:
        """Boolean array indexed by ino: live directory?  (Fresh, writable.)"""
        n = self._n
        return self._alive[:n] & (self._ftype[:n] == _DIR)

    # ------------------------------------------------------------- utilities
    def owning_dir(self, ino: int) -> int:
        """The directory whose partition owns this entry: itself if a dir, else parent."""
        self._check(ino)
        if self._ftype[ino] == _DIR:
            return ino
        return int(self._parent[ino])

    def validate(self) -> None:
        """Internal consistency check (tests and failure-injection hooks)."""
        n_dirs = 0
        n_files = 0
        assert len(self._name) == self._n and len(self._children) == self._n
        for ino in range(self._n):
            if not self._alive[ino]:
                continue
            if self._ftype[ino] == _DIR:
                n_dirs += 1
                kids = self._children[ino]
                assert kids is not None, f"dir {ino} lost its child map"
                nf = sum(
                    1 for c in kids.values() if self._ftype[c] != _DIR
                )
                nd = len(kids) - nf
                assert nf == self._n_child_files[ino], f"file count drift at {ino}"
                assert nd == self._n_child_dirs[ino], f"dir count drift at {ino}"
                for name, c in kids.items():
                    assert self._alive[c], f"dead child {c} linked at {ino}"
                    assert self._parent[c] == ino, f"parent drift at {c}"
                    assert self._name[c] == name, f"name drift at {c}"
                    assert self._depth[c] == self._depth[ino] + 1, f"depth drift at {c}"
            else:
                n_files += 1
        assert n_dirs == self._num_dirs, "dir counter drift"
        assert n_files == self._num_files, "file counter drift"
