"""Per-request RCT decomposition (Eq. 1 + Eq. 2), scalar reference form.

``request_rct`` is the single-request ground truth the vectorised evaluator
and the subtree ledger are tested against.  Conventions:

* ``k`` (path length) = number of path components of the target
  (``depth(dir)+1`` for entry ops, ``depth(dir)`` for ``READDIR``); the root
  needs no read.
* Near-root cache: entries with ``depth < cache_depth`` are client-cached —
  they cost no inode read and their owners need not be contacted.  The
  target's owner is *always* contacted (m >= 1).
* ``m`` = number of distinct MDSs contacted = distinct owners of uncached
  path directories plus the target's owner.
* ``T_meta = T_inode * (m + k_eff) + T_exec + extra`` where ``k_eff`` is the
  uncached component count and ``m`` extra reads model the per-partition
  fake inodes.
* ``RCT = T_meta + m * RTT``.  Eq. (1)'s queue term ``sum(Q_i)`` is the
  queueing that arises in the DES; the analytic model has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.cluster.partition import PartitionMap
from repro.costmodel.optypes import (
    CATEGORY_LSDIR,
    CATEGORY_NSMUT,
    OpType,
    category_of,
)
from repro.costmodel.params import CostParams
from repro.namespace.tree import NamespaceTree

__all__ = ["request_rct", "RequestCost", "contacted_owners", "path_k"]


@dataclass(frozen=True)
class RequestCost:
    """Decomposed cost of one metadata request."""

    rct: float
    t_meta: float
    m: int
    k_eff: int
    extra: float
    owners: FrozenSet[int]
    #: MDS the request is charged to for JCT bin-packing (target's owner)
    primary: int


def path_k(tree: NamespaceTree, op: "OpType | int", dir_ino: int) -> int:
    """Path-component count ``k`` of the request's target."""
    d = tree.depth(dir_ino)
    return d if category_of(op) == CATEGORY_LSDIR else d + 1


def contacted_owners(
    tree: NamespaceTree, pmap: PartitionMap, dir_ino: int, cache_depth: int
) -> FrozenSet[int]:
    """Distinct MDSs a request targeting ``dir_ino``'s contents contacts.

    The target's owner is always contacted; path directories are contacted
    unless the near-root cache hides them (``depth < cache_depth``).  The
    root itself is never contacted for resolution (clients know it).
    """
    owner_arr = pmap.owner_array()
    owners = {int(owner_arr[dir_ino])}
    cur = dir_ino
    while cur != 0:
        if tree.depth(cur) >= cache_depth:
            owners.add(int(owner_arr[cur]))
        cur = tree.parent(cur)
    return frozenset(owners)


def request_rct(
    tree: NamespaceTree,
    pmap: PartitionMap,
    params: CostParams,
    op: "OpType | int",
    dir_ino: int,
    name: str = "",
    aux: int = -1,
) -> RequestCost:
    """Ground-truth RCT of one request under the current partition."""
    cat = category_of(op)
    k = path_k(tree, op, dir_ino)
    cached = min(max(params.cache_depth - 1, 0), k)
    k_eff = k - cached
    owners = contacted_owners(tree, pmap, dir_ino, params.cache_depth)
    m = len(owners)
    primary = pmap.owner(dir_ino)

    extra = 0.0
    if cat == CATEGORY_LSDIR:
        extra = (params.rtt + params.t_rpc) * pmap.lsdir_fanout(dir_ino)
    elif cat == CATEGORY_NSMUT:
        split = False
        iop = OpType(int(op))
        if iop == OpType.MKDIR:
            split = pmap.new_dir_owner(dir_ino, name) != primary
        elif iop in (OpType.RMDIR, OpType.RENAME) and aux >= 0:
            split = pmap.owner(aux) != primary
        elif iop in (OpType.CREATE, OpType.UNLINK) or (iop == OpType.RENAME and aux < 0):
            # file mutations split only when file inodes are sharded away
            # from the parent's dentry shard (fine-grained hashing)
            split = pmap.file_owner(dir_ino, name) != primary
        if split:
            extra = params.t_coor

    t_meta = (params.t_inode + params.t_rpc) * m + params.t_inode * k_eff + params.t_exec(op) + extra
    rct = t_meta + m * params.rtt
    return RequestCost(
        rct=rct, t_meta=t_meta, m=m, k_eff=k_eff, extra=extra, owners=owners, primary=primary
    )
