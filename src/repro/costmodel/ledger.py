"""Fast per-subtree migration accounting (Appendix A's ``l_s`` / ``o_s``).

Evaluating ``JCT(N, M.migrate(s, i, k))`` from scratch for every candidate
``(s, k)`` pair (Algorithm 1, lines 6–8) costs O(|N|) each.  The ledger
exploits the structure of subtree migration to make each what-if O(#MDS):

* a migration candidate is a directory whose subtree is *uniformly owned*
  (mixed subtrees are not a single move);
* requests targeting inside ``s`` share the same ancestor prefix above
  ``root(s)``, so the change in contacted-partition count ``Δm`` is one
  number per candidate: ``[dst ∉ P_s] − [src ∉ P_s]`` with ``P_s`` the
  owners of the uncached strict ancestors of ``root(s)``;
* only three bins change: the source loses the subtree's request mass
  ``l_s``, the destination gains ``l_s`` plus the boundary overhead, and the
  parent's owner gains/loses the lsdir-gather and split-mutation penalties.

Everything is exact for subtree placement (``pmap.placement is None``) —
tests cross-check the ledger's predicted per-MDS loads against a full
re-evaluation after really applying the migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cluster.partition import PartitionMap
from repro.costmodel.evaluate import ClusterLoad, evaluate_trace
from repro.costmodel.optypes import (
    CATEGORY_ARRAY,
    CATEGORY_LSDIR,
    OpType,
)
from repro.costmodel.params import CostParams
from repro.namespace.tree import ROOT_INO, NamespaceTree
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type-only: avoids a package-import cycle with repro.workloads
    from repro.workloads.trace import Trace

__all__ = ["SubtreeLedger", "DstEvaluation"]


@dataclass
class DstEvaluation:
    """Vectorised what-if results for migrating each candidate to one dst."""

    #: candidate subtree-root inos (same order as the arrays below)
    candidates: np.ndarray
    #: JCT after the migration, per candidate
    jct_new: np.ndarray
    #: base JCT − new JCT (positive = improvement)
    benefit: np.ndarray
    #: post-migration dst.rct − src.rct (Algorithm 1's Δ constraint input)
    dst_minus_src: np.ndarray
    #: False where the move is meaningless (src == dst)
    valid: np.ndarray


class SubtreeLedger:
    """Per-subtree aggregates enabling O(#MDS) migration what-ifs."""

    def __init__(
        self,
        trace: "Trace",
        tree: NamespaceTree,
        pmap: PartitionMap,
        params: CostParams,
    ):
        if pmap.placement is not None:
            raise ValueError(
                "the ledger models subtree placement; hash placements do not migrate"
            )
        self.trace = trace
        self.tree = tree
        self.pmap = pmap
        self.params = params
        self.base: ClusterLoad = evaluate_trace(trace, tree, pmap, params, collect_per_request=True)
        self._build()

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        tree, pmap, params, trace = self.tree, self.pmap, self.params, self.trace
        owner_arr = pmap.owner_array().astype(np.int64)
        depths = tree.depth_array()
        parents = tree.parent_array()
        cap = tree.capacity
        idx = tree.dfs_index()
        assert self.base.per_request_rct is not None
        rct = self.base.per_request_rct

        # per-directory request aggregates
        rct_by_dir = np.zeros(cap, dtype=np.float64)
        nreq_by_dir = np.zeros(cap, dtype=np.float64)
        np.add.at(rct_by_dir, trace.dir_ino, rct)
        np.add.at(nreq_by_dir, trace.dir_ino, 1.0)

        cats = CATEGORY_ARRAY[trace.op]
        nlsdir_by_dir = np.zeros(cap, dtype=np.float64)
        ls_rows = np.nonzero(cats == CATEGORY_LSDIR)[0]
        if ls_rows.size:
            np.add.at(nlsdir_by_dir, trace.dir_ino[ls_rows], 1.0)

        # ops whose *existing directory target* (aux) could become a split
        # mutation if that target sits at a partition boundary
        n_auxmut_by_dir = np.zeros(cap, dtype=np.float64)
        aux_rows = np.nonzero(
            (trace.aux >= 0)
            & ((trace.op == int(OpType.RMDIR)) | (trace.op == int(OpType.RENAME)))
        )[0]
        if aux_rows.size:
            np.add.at(n_auxmut_by_dir, trace.aux[aux_rows], 1.0)

        # subtree rollups
        self.L = idx.subtree_sum(rct_by_dir)
        self.N = idx.subtree_sum(nreq_by_dir)

        # candidates: uniformly-owned subtrees, not the root
        uniform = pmap.uniform_subtree_mask()
        uniform[ROOT_INO] = False
        cand = np.nonzero(uniform)[0]
        self.candidates = cand
        self.cand_owner = owner_arr[cand]
        self.cand_parent_owner = owner_arr[parents[cand]]
        self.cand_nlsdir_parent = nlsdir_by_dir[parents[cand]]
        self.cand_nauxmut = n_auxmut_by_dir[cand]
        self.cand_L = self.L[cand]
        self.cand_N = self.N[cand]

        # prefix owner bitsets: owners of uncached strict ancestors of each
        # candidate root (n_mds <= 64 assumed — asserted)
        if pmap.n_mds > 64:
            raise ValueError("ledger bitset supports at most 64 MDSs")
        prefix_bits = np.zeros(cand.shape[0], dtype=np.uint64)
        cache_depth = params.cache_depth
        # bitset of uncached owners on the chain root..d inclusive, memoised
        # per directory: walk up to the nearest memoised ancestor, then fill
        # the chain back down (iterative: a recursive closure would refer to
        # itself through its cell, a cycle left behind by every build)
        memo: Dict[int, int] = {ROOT_INO: 0}
        for j, s in enumerate(cand):
            d = int(parents[s])
            chain = []
            while d not in memo:
                chain.append(d)
                d = int(parents[d])
            b = memo[d]
            for d in reversed(chain):
                if depths[d] >= cache_depth:
                    b |= 1 << int(owner_arr[d])
                memo[d] = b
            prefix_bits[j] = b
        self.cand_prefix_bits = prefix_bits
        self.src_in_prefix = ((prefix_bits >> self.cand_owner.astype(np.uint64)) & 1).astype(bool)

        # child-owner multisets for parents that receive lsdir traffic
        self._parent_child_owners: Dict[int, Dict[int, int]] = {}
        hot_parents = {int(parents[s]) for s in cand if nlsdir_by_dir[parents[s]] > 0}
        for p in hot_parents:
            self._parent_child_owners[p] = pmap.child_owner_counts(p)
        self._parents = parents

    # -------------------------------------------------------------- what-ifs
    def evaluate_dst(self, dst: int) -> DstEvaluation:
        """What-if all candidates migrating to ``dst`` (vectorised)."""
        params = self.params
        n_mds = self.pmap.n_mds
        if not 0 <= dst < n_mds:
            raise ValueError(f"dst {dst} out of range")
        cand = self.candidates
        nc = cand.shape[0]
        src = self.cand_owner
        p_owner = self.cand_parent_owner
        valid = src != dst

        dst_in_prefix = ((self.cand_prefix_bits >> np.uint64(dst)) & np.uint64(1)).astype(bool)
        delta_m = (~dst_in_prefix).astype(np.float64) - (~self.src_in_prefix).astype(np.float64)

        per_req_delta = delta_m * (params.t_inode + params.rtt + params.t_rpc)
        move_gain = self.cand_L + self.cand_N * per_req_delta

        # split-mutation (t_coor) delta for ops whose aux target is the root:
        # indicator (owner(root) != owner(parent)) flips from (src != p) to (dst != p)
        coor_delta = (
            self.cand_nauxmut
            * params.t_coor
            * ((dst != p_owner).astype(np.float64) - (src != p_owner).astype(np.float64))
        )

        # lsdir gather delta on the parent: exact via child-owner multisets
        lsdir_delta = np.zeros(nc, dtype=np.float64)
        if self._parent_child_owners:
            nls = self.cand_nlsdir_parent
            rows = np.nonzero((nls > 0) & valid)[0]
            for j in rows:
                p = int(self._parents[cand[j]])
                counts = self._parent_child_owners.get(p)
                if counts is None:
                    continue
                a = int(src[j])
                po = int(p_owner[j])
                di = 0
                if a != po and counts.get(a, 0) == 1:
                    di -= 1
                if dst != po and counts.get(dst, 0) == 0:
                    di += 1
                lsdir_delta[j] = nls[j] * (params.rtt + params.t_rpc) * di

        # assemble per-MDS deltas: src loses L, dst gains L + overhead,
        # parent's owner absorbs the lsdir and t_coor adjustments
        delta = np.zeros((nc, n_mds), dtype=np.float64)
        rows = np.arange(nc)
        np.add.at(delta, (rows, src), -self.cand_L)
        delta[:, dst] += move_gain
        np.add.at(delta, (rows, p_owner), coor_delta + lsdir_delta)

        new = self.base.rct_per_mds[None, :] + delta
        jct_new = new.max(axis=1)
        benefit = self.base.jct - jct_new
        dst_minus_src = new[:, dst] - new[rows, src]
        # a non-move changes nothing
        jct_new[~valid] = self.base.jct
        benefit[~valid] = 0.0
        return DstEvaluation(
            candidates=cand,
            jct_new=jct_new,
            benefit=benefit,
            dst_minus_src=dst_minus_src,
            valid=valid,
        )

    def predicted_loads(self, subtree_root: int, dst: int) -> np.ndarray:
        """Predicted per-MDS RCT sums after migrating one subtree (tests)."""
        pos = np.nonzero(self.candidates == subtree_root)[0]
        if pos.size == 0:
            raise ValueError(f"{subtree_root} is not a migration candidate")
        j = int(pos[0])
        params = self.params
        src = int(self.cand_owner[j])
        p_owner = int(self.cand_parent_owner[j])
        dst_in = bool((self.cand_prefix_bits[j] >> np.uint64(dst)) & np.uint64(1))
        delta_m = float(not dst_in) - float(not self.src_in_prefix[j])
        per_req = delta_m * (params.t_inode + params.rtt + params.t_rpc)
        out = self.base.rct_per_mds.copy()
        out[src] -= self.cand_L[j]
        out[dst] += self.cand_L[j] + self.cand_N[j] * per_req
        coor = (
            self.cand_nauxmut[j]
            * params.t_coor
            * (float(dst != p_owner) - float(src != p_owner))
        )
        lsd = 0.0
        nls = float(self.cand_nlsdir_parent[j])
        if nls > 0 and dst != src:
            p = int(self._parents[self.candidates[j]])
            counts = self._parent_child_owners.get(p) or self.pmap.child_owner_counts(p)
            di = 0
            if src != p_owner and counts.get(src, 0) == 1:
                di -= 1
            if dst != p_owner and counts.get(dst, 0) == 0:
                di += 1
            lsd = nls * (params.rtt + params.t_rpc) * di
        out[p_owner] += coor + lsd
        return out
