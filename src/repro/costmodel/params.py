"""Cost constants of the RCT model (Eq. 1 and 2), with calibration notes.

Units are **milliseconds of virtual time** everywhere.

Calibration: the paper's single OrigamiFS MDS sustains ~19.4k metadata ops/s
on Trace-RW (§5.2) on 8-core NVMe nodes with intra-cluster RTTs of a few
hundred microseconds.  The defaults below put a depth-4, single-partition
stat at ``T_inode*(1+5) + T_exec + RTT ≈ 0.05 ms`` of *server* busy time,
i.e. ≈20k ops/s for one MDS — so absolute throughputs land in the paper's
ballpark and, more importantly, the *ratios* between locality-preserving and
locality-destroying partitions are governed by the same relative weights the
paper measured:

* an extra partition on the path costs one fake-inode read plus one RTT —
  noticeable but survivable (C-Hash beats 1 MDS);
* a cross-MDS namespace mutation pays ``T_coor`` ≈ 20 inode reads — the
  distributed-transaction penalty that sinks F-Hash on write-heavy traces;
* queueing is emergent in the DES; the analytic JCT uses the bin-packing
  approximation of §3.2 and has no queue term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costmodel.optypes import OpType

__all__ = ["CostParams"]


@dataclass(frozen=True)
class CostParams:
    """Constants for Eq. (1)/(2); frozen so evaluations can cache on identity."""

    #: time to read one inode from the local store (ms)
    t_inode: float = 0.004
    #: fixed execution time of a read-type op (ms)
    t_exec_read: float = 0.012
    #: fixed execution time of an lsdir beyond per-entry reads (ms)
    t_exec_lsdir: float = 0.030
    #: fixed execution time of a namespace mutation (ms)
    t_exec_nsmut: float = 0.024
    #: one network round trip between client/MDS or MDS/MDS (ms)
    rtt: float = 0.010
    #: server-side CPU to handle one RPC (parse/dispatch/marshal, ms) — the
    #: §5.5 mechanism: forwarded requests are not free for the MDS that
    #: fields them, which is what caps hash partitioning's scalability
    t_rpc: float = 0.010
    #: distributed-transaction coordination penalty for split mutations (ms)
    t_coor: float = 0.080
    #: client-side near-root cache: directory entries with depth < this are
    #: cached (0 disables the cache)
    cache_depth: int = 0

    def __post_init__(self):
        for name in ("t_inode", "t_exec_read", "t_exec_lsdir", "t_exec_nsmut", "rtt", "t_rpc", "t_coor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.cache_depth < 0:
            raise ValueError("cache_depth must be non-negative")
        # per-op exec-time table (not a dataclass field: invisible to
        # ==/hash/repr); hot callers index it directly instead of paying a
        # category dispatch per call
        from repro.costmodel.optypes import CATEGORY_TUPLE

        by_cat = (self.t_exec_read, self.t_exec_lsdir, self.t_exec_nsmut)
        object.__setattr__(
            self, "t_exec_table", tuple(by_cat[c] for c in CATEGORY_TUPLE)
        )

    def t_exec(self, op: "OpType | int") -> float:
        """Fixed execution time for an operation."""
        return self.t_exec_table[int(op)]

    def t_exec_by_category(self) -> np.ndarray:
        """Vector of exec times indexed by category (read, lsdir, nsmut)."""
        return np.array(
            [self.t_exec_read, self.t_exec_lsdir, self.t_exec_nsmut], dtype=np.float64
        )
