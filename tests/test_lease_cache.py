"""Tests for the lease-cache alternative (the design the paper rejects)."""

import numpy as np
import pytest

from repro.balancers import CoarseHashPolicy, SingleMdsPolicy
from repro.costmodel import CostParams
from repro.durability import Checkpointer, SimCheckpoint
from repro.fs import SimConfig, run_simulation
from repro.fs.cache import LeaseCache
from repro.fs.faults import Crash, FaultSchedule
from repro.fs.filesystem import OrigamiFS
from repro.namespace import NamespaceTree
from repro.obs import Observability
from repro.sim import SeedSequenceFactory
from repro.workloads import generate_trace_ro, generate_trace_wi


def test_lease_cache_unit_semantics():
    tree = NamespaceTree()
    d = tree.makedirs("/a/b")
    c = LeaseCache(tree, ttl_ms=10.0, recall_cost_ms=0.5)
    assert not c.covers(d, now=0.0)      # miss
    c.grant(d, now=0.0)
    assert c.covers(d, now=5.0)          # hit within TTL
    assert not c.covers(d, now=15.0)     # expired
    c.grant(d, now=20.0)
    assert c.recall_if_leased(d, now=21.0) == 0.5   # live lease -> recall cost
    assert c.recall_if_leased(d, now=21.0) == 0.0   # already recalled
    assert c.recalls == 1
    assert 0 < c.hit_rate < 1


def test_lease_cache_validation():
    tree = NamespaceTree()
    with pytest.raises(ValueError):
        LeaseCache(tree, ttl_ms=0)
    with pytest.raises(ValueError):
        LeaseCache(tree, recall_cost_ms=-1)
    with pytest.raises(ValueError):
        SimConfig(cache_mode="bogus")
    with pytest.raises(ValueError):  # no cache is cache_depth=0
        SimConfig(cache_mode="none")


def run_mode(kind, mode, seed=9, n_ops=20000, cache_depth=2):
    gen = generate_trace_ro if kind == "ro" else generate_trace_wi
    built, trace = gen(SeedSequenceFactory(seed).stream("w"), n_ops=n_ops)
    cfg = SimConfig(
        n_mds=4, n_clients=80, epoch_ms=80.0,
        params=CostParams(cache_depth=cache_depth), cache_mode=mode,
    )
    fs = OrigamiFS(built.tree, trace, CoarseHashPolicy(), cfg)
    return fs, fs.run()


def test_lease_cache_shines_on_read_only():
    """No mutations -> no recalls: leases beat the near-root cache on RPCs."""
    _, near = run_mode("ro", "near-root")
    fs_lease, lease = run_mode("ro", "lease")
    assert isinstance(fs_lease.cache, LeaseCache)
    assert fs_lease.cache.recalls == 0
    assert lease.rpcs_per_request < near.rpcs_per_request


def test_lease_cache_pays_for_writes():
    """Write-heavy trace: recalls happen and the advantage shrinks/flips."""
    fs_lease, lease = run_mode("wi", "lease")
    assert fs_lease.cache.recalls > 0
    # consistency work is real server busy time
    _, none_run = run_mode("wi", "near-root", cache_depth=0)
    assert lease.ops_completed == none_run.ops_completed


def test_cache_mode_none_disables_coverage():
    """No client cache is the near-root design with ``cache_depth=0``."""
    fs, r = run_mode("ro", "near-root", n_ops=5000, cache_depth=0)
    assert r.cache_hit_rate == 0.0
    assert not any(fs.cache_covers_depth(depth) for depth in range(8))


def _crash_config(obs=None):
    """Lease cache; MDS 1 crashes at 20 ms and restarts at 60 ms (a crash
    drops every live lease)."""
    return SimConfig(
        n_mds=3, n_clients=20, epoch_ms=20.0, params=CostParams(cache_depth=2),
        cache_mode="lease", seed=1, obs=obs,
        faults=FaultSchedule([Crash(mds=1, start_ms=20.0, end_ms=60.0, warmup_ms=5.0)]),
    )


def _crash_run(trace_ops=None, obs=None):
    built, trace = generate_trace_wi(SeedSequenceFactory(9).stream("w"), n_ops=3000)
    fs = OrigamiFS(built.tree, trace[:trace_ops], CoarseHashPolicy(), _crash_config(obs))
    crashes = []
    drop_leases = fs.cache.on_mds_crash
    fs.cache.on_mds_crash = lambda now, until: (crashes.append(now), drop_leases(now, until))
    return fs, fs.run(), crashes, trace


def _no_op_lost(result, n_ops):
    return result.ops_completed + result.vanished_ops + result.fault_failed_ops == n_ops


def test_lease_cache_under_a_crash_with_metrics_timeline_and_checkpoint(tmp_path):
    fs, plain, crashes, trace = _crash_run()
    assert crashes == [20.0]
    assert fs.cache.recalls > 0 and plain.fault_failed_ops > 0
    assert _no_op_lost(plain, len(trace))

    # metrics and the timeline read the cache's counters without moving the run
    obs = Observability(metrics=True, timeline=True, timeline_window_ms=10.0)
    fs_obs, observed, _, _ = _crash_run(obs=obs)
    assert obs.timeline.n_windows > 0
    recalls = obs.registry.snapshot()["cache_lease_recalls_total"]["series"][0]["value"]
    assert recalls == fs_obs.cache.recalls == fs.cache.recalls
    want = {k: v for k, v in plain.to_dict().items() if k != "timeline"}
    assert {k: v for k, v in observed.to_dict().items() if k != "timeline"} == want

    # a checkpoint taken after the crash carries the leases and resumes
    first, _, crashes, _ = _crash_run(trace_ops=1500)
    assert crashes == [20.0]
    path = str(tmp_path / "lease.ckpt")
    Checkpointer().capture(first).save(path)
    ck = SimCheckpoint.load(path)
    assert ck.cache["expiry"]
    resumed = Checkpointer().restore(ck, trace, CoarseHashPolicy(), _crash_config())
    assert isinstance(resumed.cache, LeaseCache)
    assert resumed.cache.state() == first.cache.state()
    assert _no_op_lost(resumed.run(), len(trace))
    assert resumed.cache.recalls > first.cache.recalls
