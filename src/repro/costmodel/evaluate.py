"""Full-trace cost evaluation — the reference ``JCT(N, M)`` of Algorithm 1.

Vectorised where it matters: per-request work is NumPy over trace columns;
the only scalar loops run over *unique directories* touched by the trace
(ancestor-chain walks and lsdir fanout), which is typically 20–100× smaller
than the trace itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.partition import PartitionMap
from repro.costmodel.optypes import (
    CATEGORY_ARRAY,
    CATEGORY_LSDIR,
    CATEGORY_NSMUT,
    OpType,
)
from repro.costmodel.params import CostParams
from repro.namespace.tree import NamespaceTree
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type-only: avoids a package-import cycle with repro.workloads
    from repro.workloads.trace import Trace

__all__ = ["ClusterLoad", "evaluate_trace"]


@dataclass
class ClusterLoad:
    """Aggregate result of evaluating a trace against a partition."""

    #: summed RCT charged to each MDS (bin-packing load), ms
    rct_per_mds: np.ndarray
    #: requests whose primary MDS is each MDS
    qps_per_mds: np.ndarray
    #: RPC messages handled by each MDS (resolution hops + lsdir gathers)
    rpcs_per_mds: np.ndarray
    #: job completion time estimate: the largest bin, ms
    jct: float
    n_requests: int
    total_rpcs: int
    #: mean distinct partitions contacted per request
    mean_m: float
    #: mean request completion time, ms (single-thread latency proxy)
    mean_rct: float
    #: per-request RCT vector (only if requested)
    per_request_rct: Optional[np.ndarray] = None

    @property
    def rpcs_per_request(self) -> float:
        return self.total_rpcs / self.n_requests if self.n_requests else 0.0


def evaluate_trace(
    trace: "Trace",
    tree: NamespaceTree,
    pmap: PartitionMap,
    params: CostParams,
    collect_per_request: bool = False,
) -> ClusterLoad:
    """Evaluate every request in ``trace`` under ``pmap`` (Eq. 1/2 + §3.2)."""
    n_mds = pmap.n_mds
    n = len(trace)
    if n == 0:
        z = np.zeros(n_mds)
        return ClusterLoad(z, z.copy(), z.copy(), 0.0, 0, 0, 0.0, 0.0)

    owner_arr = pmap.owner_array().astype(np.int64)
    depths = tree.depth_array()
    parents = tree.parent_array()
    cache_depth = params.cache_depth

    cats = CATEGORY_ARRAY[trace.op]
    dir_ino = trace.dir_ino

    # ---- per-unique-dir quantities: m, contacted owners, lsdir fanout ----
    uniq, inverse = np.unique(dir_ino, return_inverse=True)
    m_u = np.empty(uniq.shape[0], dtype=np.int64)
    owners_u: List[Tuple[int, ...]] = []
    for j, d in enumerate(uniq):
        d = int(d)
        owners = {int(owner_arr[d])}
        cur = d
        while cur != 0:
            if depths[cur] >= cache_depth:
                owners.add(int(owner_arr[cur]))
            cur = int(parents[cur])
        m_u[j] = len(owners)
        owners_u.append(tuple(owners))

    m = m_u[inverse]

    # ---- baseline cost terms ----
    k = depths[dir_ino] + (cats != CATEGORY_LSDIR)
    cached = min(max(cache_depth - 1, 0), 10**9)
    k_eff = k - np.minimum(cached, k)
    exec_t = params.t_exec_by_category()[cats]
    rct = (
        (params.t_inode + params.t_rpc) * m
        + params.t_inode * k_eff
        + exec_t
        + m * params.rtt
    )

    # ---- lsdir extra: RTT * i (children scattered over i other MDSs) ----
    rpcs_child = np.zeros(n_mds, dtype=np.int64)
    ls_rows = np.nonzero(cats == CATEGORY_LSDIR)[0]
    total_child_rpcs = 0
    if ls_rows.size:
        ls_dirs, ls_inv = np.unique(dir_ino[ls_rows], return_inverse=True)
        counts = np.bincount(ls_inv)
        i_u = np.empty(ls_dirs.shape[0], dtype=np.int64)
        for j, d in enumerate(ls_dirs):
            d = int(d)
            others = pmap.lsdir_owners(d)
            i_u[j] = len(others)
            for o in others:
                rpcs_child[o] += int(counts[j])
            total_child_rpcs += len(others) * int(counts[j])
        rct[ls_rows] += (params.rtt + params.t_rpc) * i_u[ls_inv]

    # ---- ns-mutation extra: T_coor when parent and target split ----
    nm_rows = np.nonzero(cats == CATEGORY_NSMUT)[0]
    if nm_rows.size:
        ops_nm = trace.op[nm_rows]
        # RMDIR / dir-RENAME carry the existing target dir in aux
        aux_mask = (trace.aux[nm_rows] >= 0) & (
            (ops_nm == int(OpType.RMDIR)) | (ops_nm == int(OpType.RENAME))
        )
        if aux_mask.any():
            rows = nm_rows[aux_mask]
            split = owner_arr[trace.aux[rows]] != owner_arr[dir_ino[rows]]
            rct[rows] += params.t_coor * split
        # MKDIR placement may differ from the parent only under hash placement
        if pmap.placement is not None and trace.names is not None:
            mk_mask = ops_nm == int(OpType.MKDIR)
            for r in nm_rows[mk_mask]:
                r = int(r)
                d = int(dir_ino[r])
                if pmap.new_dir_owner(d, trace.names[r]) != int(owner_arr[d]):
                    rct[r] += params.t_coor
        # file mutations split when file inodes are sharded independently
        if pmap.file_placement is not None and trace.names is not None:
            f_mask = (
                (ops_nm == int(OpType.CREATE))
                | (ops_nm == int(OpType.UNLINK))
                | ((ops_nm == int(OpType.RENAME)) & (trace.aux[nm_rows] < 0))
            )
            for r in nm_rows[f_mask]:
                r = int(r)
                d = int(dir_ino[r])
                if pmap.file_owner(d, trace.names[r]) != int(owner_arr[d]):
                    rct[r] += params.t_coor

    # ---- per-MDS attribution ----
    primary = owner_arr[dir_ino]
    rct_per_mds = np.zeros(n_mds, dtype=np.float64)
    np.add.at(rct_per_mds, primary, rct)
    qps = np.bincount(primary, minlength=n_mds).astype(np.float64)

    # each contacted MDS handles one RPC per request; lsdir child gathers extra
    req_counts_u = np.bincount(inverse)
    rpcs = rpcs_child.astype(np.float64).copy()
    for j, owners in enumerate(owners_u):
        c = float(req_counts_u[j])
        for o in owners:
            rpcs[o] += c
    total_rpcs = int(m.sum()) + total_child_rpcs

    return ClusterLoad(
        rct_per_mds=rct_per_mds,
        qps_per_mds=qps,
        rpcs_per_mds=rpcs,
        jct=float(rct_per_mds.max()),
        n_requests=n,
        total_rpcs=total_rpcs,
        mean_m=float(m.mean()),
        mean_rct=float(rct.mean()),
        per_request_rct=rct if collect_per_request else None,
    )
