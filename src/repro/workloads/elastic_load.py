"""Elasticity scenario traces: diurnal load, flash crowds, onboarding waves.

The fixed-pool workloads saturate the cluster end to end — the right regime
for comparing balancers, but one where a pool that cannot shrink is never
wasteful and a pool that cannot grow is never behind.  These generators
shape *offered load* through the trace's ``think_ms`` column (client idle
time before issue), giving the elastic subsystem something realistic to
chase:

* **diurnal** — a sinusoidal day/night cycle over ``days`` simulated days:
  think time breathes between ``think_max_ms`` (trough) and
  ``think_min_ms`` (peak), the λFS motivation case.
* **flash** — a modest base load punctuated by short crowds: think time
  collapses by ``crowd_boost`` and ops concentrate on one crowd tenant.
* **onboard** — tenants arrive in waves; each wave adds tenants and
  shortens think time, so demand ratchets upward in steps.

Think time is a deterministic function of the op index (the RNG is spent
only on content — tenants, shards, names), so load shape is identical
across seeds while the namespace churn still varies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.namespace.builder import BuiltNamespace, build_cloud_tree
from repro.sim.rng import RngStream
from repro.workloads.cloud_wi import _emit_tenant_burst
from repro.workloads.trace import Trace, TraceBuilder
from repro.workloads.zipfian import DriftingZipf

__all__ = [
    "generate_trace_diurnal",
    "generate_trace_flash",
    "generate_trace_onboard",
]


def generate_trace_diurnal(
    rng: RngStream,
    n_ops: int = 60_000,
    n_tenants: int = 24,
    days: float = 2.0,
    alpha: float = 1.1,
    drift: float = 0.25,
    write_fraction: float = 0.45,
    burst_mean: float = 10.0,
    think_min_ms: float = 0.05,
    think_max_ms: float = 12.0,
    sharpness: float = 2.0,
) -> Tuple[BuiltNamespace, Trace]:
    """Sinusoidal day/night offered load over ``days`` simulated days.

    Op index stands in for wall-clock phase: op ``i`` sits at cycle phase
    ``2*pi*days*i/n_ops``, with the run starting at a trough (night).
    ``sharpness > 1`` narrows the peak, as real diurnal curves do.
    """
    built = build_cloud_tree(rng, n_tenants=n_tenants)
    tree = built.tree
    tenant_shards: List[List[int]] = built.info["tenant_shards"]
    shared_root = built.read_dirs[0]
    shared_files = [
        n for n, i in tree.children(shared_root).items() if not tree.is_dir(i)
    ]
    shards_per_day = 4  # builder layout: 4 date shards per tenant-day
    n_days_avail = max(1, len(tenant_shards[0]) // shards_per_day)

    tenants = DriftingZipf(rng, list(range(n_tenants)), alpha=alpha, drift=drift)
    tb = TraceBuilder(label="Trace-Diurnal")
    created: Dict[int, List[str]] = {}
    uid = 0
    span = think_max_ms - think_min_ms
    seg_ops = max(1, n_ops // 16)  # drift the tenant skew ~16x per run
    while len(tb) < n_ops:
        i = len(tb)
        # depth of night in [0, 1]: 1 at the trough (op 0), 0 at midday
        depth = (0.5 * (1.0 + math.cos(2.0 * math.pi * days * i / n_ops))) ** sharpness
        think = think_min_ms + span * depth
        day = int(days * i / n_ops) % n_days_avail
        t = int(tenants.sample(1)[0])
        todays = tenant_shards[t][day * shards_per_day : (day + 1) * shards_per_day]
        shard = int(todays[int(rng.integers(0, len(todays)))])
        burst = min(n_ops - i, max(1, int(rng.exponential(burst_mean))))
        before = len(tb)
        uid = _emit_tenant_burst(
            tb, rng, shard, created, uid, burst,
            write_fraction, shared_root, shared_files,
        )
        tb.set_think(before, think)
        if i // seg_ops != len(tb) // seg_ops:
            tenants.advance()
    return built, tb.build()


def generate_trace_flash(
    rng: RngStream,
    n_ops: int = 60_000,
    n_tenants: int = 24,
    n_crowds: int = 3,
    crowd_frac: float = 0.08,
    crowd_boost: float = 40.0,
    base_think_ms: float = 2.0,
    alpha: float = 1.1,
    drift: float = 0.25,
    write_fraction: float = 0.3,
    burst_mean: float = 8.0,
) -> Tuple[BuiltNamespace, Trace]:
    """Quiet base load punctuated by ``n_crowds`` flash crowds.

    Crowd windows are evenly spaced, each covering ``crowd_frac`` of the
    trace; inside one, think time divides by ``crowd_boost`` and 80% of
    ops pile onto a single (rng-chosen) crowd tenant — the
    news-event/viral-object shape flash provisioning must absorb.
    """
    built = build_cloud_tree(rng, n_tenants=n_tenants)
    tree = built.tree
    tenant_shards: List[List[int]] = built.info["tenant_shards"]
    shared_root = built.read_dirs[0]
    shared_files = [
        n for n, i in tree.children(shared_root).items() if not tree.is_dir(i)
    ]

    crowd_len = max(1, int(n_ops * crowd_frac))
    windows = []
    for c in range(n_crowds):
        start = int(n_ops * (c + 1) / (n_crowds + 1))
        target = int(rng.integers(0, n_tenants))
        windows.append((start, start + crowd_len, target))

    tenants = DriftingZipf(rng, list(range(n_tenants)), alpha=alpha, drift=drift)
    tb = TraceBuilder(label="Trace-Flash")
    created: Dict[int, List[str]] = {}
    uid = 0
    seg_ops = max(1, n_ops // 12)
    while len(tb) < n_ops:
        i = len(tb)
        crowd = next((w for w in windows if w[0] <= i < w[1]), None)
        if crowd is not None:
            think = base_think_ms / crowd_boost
            t = crowd[2] if rng.random() < 0.8 else int(tenants.sample(1)[0])
        else:
            think = base_think_ms
            t = int(tenants.sample(1)[0])
        shards = tenant_shards[t]
        shard = int(shards[int(rng.integers(0, len(shards)))])
        burst = min(n_ops - i, max(1, int(rng.exponential(burst_mean))))
        before = len(tb)
        uid = _emit_tenant_burst(
            tb, rng, shard, created, uid, burst,
            write_fraction, shared_root, shared_files,
        )
        tb.set_think(before, think)
        if i // seg_ops != len(tb) // seg_ops:
            tenants.advance()
    return built, tb.build()


def generate_trace_onboard(
    rng: RngStream,
    n_ops: int = 60_000,
    n_tenants: int = 24,
    waves: int = 4,
    base_think_ms: float = 3.0,
    onboard_write_fraction: float = 0.8,
    steady_write_fraction: float = 0.35,
    burst_mean: float = 10.0,
) -> Tuple[BuiltNamespace, Trace]:
    """Tenant-onboarding waves: demand ratchets up in steps.

    The trace is split into ``waves`` equal segments; wave ``w`` activates
    the next ``n_tenants/waves`` tenants, think time shrinks to
    ``base_think_ms/(w+1)`` (more tenants, more aggregate demand), and the
    *newest* tenants write-heavily (initial data ingest) while established
    ones settle into a read-mostly mix.
    """
    if waves < 1:
        raise ValueError("waves must be >= 1")
    built = build_cloud_tree(rng, n_tenants=n_tenants)
    tree = built.tree
    tenant_shards: List[List[int]] = built.info["tenant_shards"]
    shared_root = built.read_dirs[0]
    shared_files = [
        n for n, i in tree.children(shared_root).items() if not tree.is_dir(i)
    ]

    tb = TraceBuilder(label="Trace-Onboard")
    created: Dict[int, List[str]] = {}
    uid = 0
    per_wave_tenants = max(1, n_tenants // waves)
    per_wave_ops = max(1, n_ops // waves)
    while len(tb) < n_ops:
        i = len(tb)
        wave = min(waves - 1, i // per_wave_ops)
        n_active = min(n_tenants, per_wave_tenants * (wave + 1))
        newest_lo = per_wave_tenants * wave
        think = base_think_ms / (wave + 1)
        # half the traffic is the arriving cohort's ingest, half the base
        if rng.random() < 0.5 and newest_lo < n_active:
            t = newest_lo + int(rng.integers(0, n_active - newest_lo))
            wf = onboard_write_fraction
        else:
            t = int(rng.integers(0, n_active))
            wf = steady_write_fraction
        shards = tenant_shards[t]
        shard = int(shards[int(rng.integers(0, len(shards)))])
        burst = min(n_ops - i, max(1, int(rng.exponential(burst_mean))))
        before = len(tb)
        uid = _emit_tenant_burst(
            tb, rng, shard, created, uid, burst,
            wf, shared_root, shared_files,
        )
        tb.set_think(before, think)
    return built, tb.build()
