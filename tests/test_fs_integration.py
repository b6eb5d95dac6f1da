"""Integration tests of the full OrigamiFS simulation."""

import numpy as np
import pytest

from repro.balancers import LunulePolicy, SingleMdsPolicy
from repro.costmodel import CostParams
from repro.fs import NearRootCache, SimConfig, run_simulation
from repro.fs.filesystem import OrigamiFS
from repro.namespace import NamespaceTree
from repro.obs import Observability
from repro.sim import SeedSequenceFactory
from repro.workloads import generate_trace_rw, generate_trace_wi
from repro.workloads.trace import TraceBuilder


def make_world(seed=0, n_ops=8000, kind="rw"):
    ssf = SeedSequenceFactory(seed)
    gen = generate_trace_rw if kind == "rw" else generate_trace_wi
    return gen(ssf.stream("w"), n_ops=n_ops)


def test_full_run_completes_all_ops():
    built, trace = make_world()
    cfg = SimConfig(n_mds=3, n_clients=20, epoch_ms=50.0, params=CostParams(cache_depth=2))
    r = run_simulation(built.tree, trace, LunulePolicy(), cfg)
    assert r.ops_completed + 0 == len(trace)  # best-effort failures still count issued ops
    assert r.duration_ms > 0
    assert r.throughput_ops_per_sec > 0
    assert len(r.per_epoch) >= 1
    assert r.engine_events > len(trace)


def test_epoch_metrics_account_for_all_requests():
    built, trace = make_world(seed=1)
    cfg = SimConfig(n_mds=3, n_clients=10, epoch_ms=50.0, params=CostParams(cache_depth=2))
    r = run_simulation(built.tree, trace, SingleMdsPolicy(), cfg)
    assert int(r.total_qps_per_mds().sum()) == r.ops_completed
    # single policy with 3 MDS: everything stays on MDS 0
    assert r.total_qps_per_mds()[1] == 0
    assert r.migrations == 0


def test_migrations_move_kvstore_records():
    built, trace = make_world(seed=2, kind="rw")
    cfg = SimConfig(
        n_mds=3, n_clients=20, epoch_ms=50.0,
        params=CostParams(cache_depth=2), use_kvstore=True,
    )
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
    r = fs.run()
    assert r.migrations > 0, "the skewed start must trigger migrations"
    # every directory's records must live exactly on its current owner
    tree = fs.tree
    owner_arr = fs.pmap.owner_array()
    checked = 0
    rng = np.random.default_rng(0)
    dirs = [d for d in tree.iter_dirs() if tree.n_child_files(d) > 0]
    for d in rng.choice(dirs, size=min(40, len(dirs)), replace=False):
        d = int(d)
        names = [n for n, c in tree.children(d).items() if not tree.is_dir(c)]
        name = names[0]
        key = b"%020d/%s" % (d, name.encode())
        home = int(owner_arr[d])
        assert fs.servers[home].kv_get(key) is not None, tree.path_of(d)
        for other in range(cfg.n_mds):
            if other != home:
                assert fs.servers[other].kv_get(key) is None
        checked += 1
    assert checked > 10


def test_namespace_mutations_applied():
    built, trace = make_world(seed=3, kind="wi", n_ops=6000)
    before_files = built.tree.num_files
    n_creates = int((trace.op == 4).sum())  # OpType.CREATE
    n_unlinks = int((trace.op == 6).sum())  # OpType.UNLINK
    cfg = SimConfig(n_mds=2, n_clients=10, epoch_ms=50.0, params=CostParams(cache_depth=2))
    r = run_simulation(built.tree, trace, SingleMdsPolicy(), cfg)
    after = built.tree.num_files
    # every create lands unless raced; unlinks remove existing files
    assert after == before_files + n_creates - n_unlinks - r.failed_ops


def test_ops_on_a_removed_directory_vanish():
    """An RMDIR removes a directory that later ops target: each of them is
    counted as vanished, none is lost, and its span says why."""
    tree = NamespaceTree()
    a = tree.makedirs("/a")
    b = tree.create_dir(a, "b")
    tb = TraceBuilder()
    tb.stat(a, "x")
    tb.rmdir(a, b)
    for i in range(4):
        tb.stat(b, f"f{i}")
    tb.readdir(b)
    tb.create(b, "g")
    tb.stat(a, "y")
    trace = tb.build()
    obs = Observability(trace=True)
    cfg = SimConfig(n_mds=2, n_clients=1, epoch_ms=50.0, obs=obs)
    r = run_simulation(tree, trace, SingleMdsPolicy(), cfg)
    assert not tree.is_alive(b)
    assert r.vanished_ops == 6 and r.fault_failed_ops == 0
    assert r.ops_completed + r.vanished_ops + r.fault_failed_ops == len(trace)
    spans = sorted(obs.tracer.spans, key=lambda s: s.op_index)
    assert [s.fault for s in spans] == [""] * 2 + ["vanished"] * 6 + [""]
    assert [s.failed for s in spans] == [False] * 2 + [True] * 6 + [False]


def test_datapath_transfers_for_file_ops():
    built, trace = make_world(seed=4, n_ops=4000)
    n_dataops = int(np.isin(trace.op, [1, 4]).sum())  # OPEN, CREATE
    cfg = SimConfig(
        n_mds=2, n_clients=10, epoch_ms=50.0, params=CostParams(cache_depth=2),
        datapath=dict(n_servers=3, bandwidth_mb_per_s=500.0),
    )
    r = run_simulation(built.tree, trace, SingleMdsPolicy(), cfg)
    assert r.data_ops_completed == n_dataops
    assert r.end_to_end_throughput > 0
    # the data path adds latency -> lower metadata throughput than without
    built2, trace2 = make_world(seed=4, n_ops=4000)
    cfg2 = SimConfig(n_mds=2, n_clients=10, epoch_ms=50.0, params=CostParams(cache_depth=2))
    r2 = run_simulation(built2.tree, trace2, SingleMdsPolicy(), cfg2)
    assert r.throughput_ops_per_sec < r2.throughput_ops_per_sec


def test_near_root_cache_object():
    built, _ = make_world(seed=5, n_ops=100)
    tree = built.tree
    cache = NearRootCache(tree, depth_threshold=2)
    assert cache.enabled
    assert cache.covers(tree.lookup("/src"))
    assert not cache.covers(tree.lookup("/src/mod000"))
    assert 0 < cache.hit_rate < 1
    off = NearRootCache(tree, 0)
    assert not off.enabled
    assert not off.covers(tree.lookup("/src"))
    with pytest.raises(ValueError):
        NearRootCache(tree, -1)


def test_cache_reduces_rpcs_end_to_end():
    def run(depth):
        built, trace = make_world(seed=6, n_ops=5000)
        cfg = SimConfig(
            n_mds=4, n_clients=10, epoch_ms=50.0, params=CostParams(cache_depth=depth)
        )
        from repro.balancers import FineHashPolicy

        return run_simulation(built.tree, trace, FineHashPolicy(), cfg)

    cold = run(0)
    warm = run(3)
    assert warm.total_rpcs < cold.total_rpcs
    assert warm.cache_hit_rate > 0
    assert cold.cache_hit_rate == 0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_mds=0)
    with pytest.raises(ValueError):
        SimConfig(epoch_ms=0)
    with pytest.raises(ValueError):
        SimConfig(n_clients=0)


def test_empty_trace_run():
    built, trace = make_world(seed=7, n_ops=100)
    empty = trace[0:0]
    cfg = SimConfig(n_mds=2, n_clients=3, epoch_ms=50.0)
    r = run_simulation(built.tree, empty, SingleMdsPolicy(), cfg)
    assert r.ops_completed == 0
    assert r.duration_ms == 0.0
    assert r.throughput_ops_per_sec == 0.0


def test_migration_cost_charged():
    def run(cost_per_inode_ms):
        built, trace = make_world(seed=8)
        cfg = SimConfig(n_mds=3, n_clients=20, epoch_ms=50.0, params=CostParams(cache_depth=2))
        fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
        fs.migrator.cost_per_inode_ms = cost_per_inode_ms
        return fs.run()

    r, r2 = run(0.01), run(0.0)
    if r.migrations and r2.migrations:
        # charged migrations consume server time: total busy goes up
        assert r.total_busy_per_mds().sum() > r2.total_busy_per_mds().sum()


def test_stale_decision_dropped():
    """A decision whose subtree moved under it is skipped, not crashed on."""
    from repro.balancers.base import BalancePolicy
    from repro.cluster.migration import MigrationDecision

    class StalePolicy(BalancePolicy):
        name = "stale"

        def rebalance(self, ctx):
            # claim a subtree belongs to MDS 2 when it is on 0
            some_dir = next(d for d in ctx.tree.iter_dirs() if d != 0)
            return [MigrationDecision(some_dir, src=2, dst=1)]

    built, trace = make_world(seed=9, n_ops=3000)
    cfg = SimConfig(n_mds=3, n_clients=5, epoch_ms=20.0, params=CostParams())
    fs = OrigamiFS(built.tree, trace, StalePolicy(), cfg)
    r = fs.run()
    assert fs.stale_decisions > 0
    assert r.migrations == 0
