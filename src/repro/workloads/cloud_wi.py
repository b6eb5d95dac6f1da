"""Trace-WI: a write-intensive cloud file-system trace.

Reproduced from the characteristics in the CFS paper [40] the way the
authors did ("we reproduced based on the characteristics described in the
paper"): namespace mutations dominate (>70% of metadata ops), writes arrive
in per-tenant bursts into date-sharded directories, and the hot tenant set
churns quickly — the "highly dynamic and skewed load" the paper says makes
Trace-WI the hardest case for every balancer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.namespace.builder import BuiltNamespace, build_cloud_tree
from repro.sim.rng import RngStream
from repro.workloads.trace import Trace, TraceBuilder
from repro.workloads.zipfian import DriftingZipf

__all__ = ["generate_trace_wi"]


def _emit_tenant_burst(
    tb: TraceBuilder,
    rng: RngStream,
    shard: int,
    created: Dict[int, List[str]],
    uid: int,
    burst: int,
    write_fraction: float,
    shared_root: int,
    shared_files: List[str],
    readdir_below: float = 0.3,
    stat_below: float = 0.8,
) -> int:
    """Emit one tenant burst into ``shard``; returns the advanced uid.

    Each op is a write with probability ``write_fraction`` (a create, or
    15% of the time an unlink of the shard's newest object); a read draws
    ``sub`` and is a readdir of the shard below ``readdir_below``, a stat of
    one of its objects below ``stat_below``, else an open of a shared file.
    """
    for _ in range(burst):
        if rng.random() < write_fraction:
            names = created.get(shard)
            if rng.random() < 0.85 or not names:
                name = f"obj_{uid:08d}"
                uid += 1
                tb.create(shard, name)
                created.setdefault(shard, []).append(name)
            else:
                # churn: delete a recently written object
                tb.unlink(shard, names.pop())
        else:
            sub = rng.random()
            if sub < readdir_below:
                tb.readdir(shard)
            elif sub < stat_below and created.get(shard):
                names = created[shard]
                tb.stat(shard, names[int(rng.integers(0, len(names)))])
            else:
                name = shared_files[int(rng.integers(0, len(shared_files)))]
                tb.open(shared_root, name)
    return uid


def generate_trace_wi(
    rng: RngStream,
    n_ops: int = 100_000,
    n_tenants: int = 50,
    alpha: float = 1.3,
    segments: int = 10,
    drift: float = 0.35,
    write_fraction: float = 0.75,
    burst_mean: float = 24.0,
) -> Tuple[BuiltNamespace, Trace]:
    """Build the multi-tenant namespace and a create-heavy trace."""
    built = build_cloud_tree(rng, n_tenants=n_tenants)
    tree = built.tree
    tenant_shards: List[List[int]] = built.info["tenant_shards"]
    shared_root = built.read_dirs[0]
    shared_files = [n for n, i in tree.children(shared_root).items() if not tree.is_dir(i)]

    tenants = DriftingZipf(rng, list(range(n_tenants)), alpha=alpha, drift=drift)
    tb = TraceBuilder(label="Trace-WI")
    created: Dict[int, List[str]] = {}
    uid = 0

    # shards are date-partitioned: writes land in the *current* day's shards
    # (cloud ingest always appends to today's partition), so at any moment
    # each tenant has a handful of hot shard directories — the fine-grained,
    # moving write hotspot that static partitioning cannot follow
    days = max(1, len(tenant_shards[0]) // 4)  # builder: 4 shards per day
    per_seg = max(1, n_ops // segments)
    for seg in range(segments):
        day = seg % days
        budget = per_seg if seg < segments - 1 else n_ops - len(tb)
        while budget > 0:
            t = int(tenants.sample(1)[0])
            todays = tenant_shards[t][day * 4 : day * 4 + 4]
            shard = int(todays[int(rng.integers(0, len(todays)))])
            burst = min(budget, max(1, int(rng.exponential(burst_mean))))
            uid = _emit_tenant_burst(
                tb, rng, shard, created, uid, burst,
                write_fraction, shared_root, shared_files,
                readdir_below=0.25, stat_below=0.75,
            )
            budget -= burst
        tenants.advance()

    trace = tb.build()
    return built, trace
