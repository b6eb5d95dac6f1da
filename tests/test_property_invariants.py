"""Property-based tests (hypothesis) on core data-structure invariants."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import PartitionMap, imbalance_factor
from repro.kvstore import LSMStore
from repro.namespace import ROOT_INO, NamespaceTree
from repro.workloads.serialize import load_bundle, save_bundle

SET = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------- namespace ops


@st.composite
def tree_operations(draw):
    """A random sequence of namespace mutations (by construction valid).

    Some entries are named ``__dead_<n>``, as ``from_columns`` first names
    the dead inos it rebuilds."""
    n = draw(st.integers(1, 60))
    ops = []
    for i in range(n):
        kind = draw(st.sampled_from(["mkdir", "create", "remove", "rmdir"]))
        name = f"__dead_{i}" if draw(st.booleans()) else f"e{i}"
        ops.append((kind, draw(st.integers(0, 10**6)), name))
    return ops


def apply_ops(ops):
    tree = NamespaceTree()
    dirs = [ROOT_INO]
    files = []
    for kind, pick, name in ops:
        if kind == "mkdir":
            parent = dirs[pick % len(dirs)]
            dirs.append(tree.create_dir(parent, name))
        elif kind == "create":
            parent = dirs[pick % len(dirs)]
            files.append(tree.create_file(parent, name))
        elif kind == "remove" and files:
            ino = files.pop(pick % len(files))
            tree.remove(ino)
        elif kind == "rmdir":
            ino = dirs[pick % len(dirs)]
            if ino != ROOT_INO and not tree.children(ino):
                tree.remove(ino)
                dirs.remove(ino)
    return tree, dirs


@given(tree_operations())
@SET
def test_tree_internal_consistency_under_random_mutations(ops):
    tree, _ = apply_ops(ops)
    tree.validate()  # asserts all counters/links/depths


@given(tree_operations())
@SET
def test_path_roundtrip_for_every_live_inode(ops):
    tree, _ = apply_ops(ops)
    for ino in range(tree.capacity):
        if not tree.is_alive(ino):
            continue
        assert tree.lookup(tree.path_of(ino)) == ino


def _tree_state(tree):
    """What a tree must give back through its codecs: its columns, depths
    and child maps (in insertion order)."""
    return (
        tree.columns(),
        tree.depth_array().tolist(),
        {d: list(tree.children(d).items()) for d in tree.iter_dirs()},
    )


@given(tree_operations())
@SET
def test_tree_round_trips_through_columns_and_bundles(ops):
    tree, _ = apply_ops(ops)
    want = _tree_state(tree)
    rebuilt = NamespaceTree.from_columns(**tree.columns())
    rebuilt.validate()
    assert _tree_state(rebuilt) == want
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.npz")
        save_bundle(path, tree)
        loaded, _ = load_bundle(path)
    loaded.validate()
    assert _tree_state(loaded) == want


@given(tree_operations())
@SET
def test_dfs_index_intervals_partition_the_dirs(ops):
    tree, _ = apply_ops(ops)
    idx = tree.dfs_index()
    # preorder positions are a permutation of 0..num_dirs-1
    tins = sorted(int(idx.tin[d]) for d in tree.iter_dirs())
    assert tins == list(range(tree.num_dirs))
    # child intervals nest strictly inside parents
    for d in tree.iter_dirs():
        if d == ROOT_INO:
            continue
        p = tree.parent(d)
        assert idx.tin[p] < idx.tin[d]
        assert idx.tout[d] <= idx.tout[p]


@given(tree_operations(), st.integers(2, 5), st.data())
@SET
def test_partition_subtree_migration_invariants(ops, n_mds, data):
    tree, dirs = apply_ops(ops)
    pmap = PartitionMap(tree, n_mds=n_mds)
    live_dirs = [d for d in tree.iter_dirs()]
    n_moves = data.draw(st.integers(0, 6))
    for _ in range(n_moves):
        root = data.draw(st.sampled_from(live_dirs))
        dst = data.draw(st.integers(0, n_mds - 1))
        pmap.migrate_subtree(root, dst)
        # after the move the whole subtree is uniformly owned by dst
        for d in tree.iter_subtree_dirs(root):
            assert pmap.owner(d) == dst
    # every live dir has a valid owner; dead inos have none
    arr = pmap.owner_array()
    for ino in range(tree.capacity):
        if tree.is_alive(ino) and tree.is_dir(ino):
            assert 0 <= arr[ino] < n_mds
        else:
            assert arr[ino] == -1
    # ownership accounting is conserved
    assert pmap.dirs_per_mds().sum() == tree.num_dirs


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20))
@SET
def test_imbalance_factor_bounds(loads):
    v = imbalance_factor(loads)
    assert 0.0 <= v <= 1.0 + 1e-12


@given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=12), st.floats(1.01, 3.0))
@SET
def test_imbalance_factor_scaling_invariant(loads, k):
    assert imbalance_factor(loads) == pytest.approx(
        imbalance_factor([x * k for x in loads])
    )


# ------------------------------------------------------------------ lsm store


@st.composite
def kv_commands(draw):
    n = draw(st.integers(1, 120))
    cmds = []
    for _ in range(n):
        kind = draw(st.sampled_from(["put", "put", "put", "delete", "overwrite"]))
        key = draw(st.integers(0, 40))
        cmds.append((kind, key, draw(st.integers(0, 10**9))))
    return cmds


@given(kv_commands(), st.integers(2, 16))
@SET
def test_lsm_matches_dict_model(cmds, memtable_limit):
    store = LSMStore(memtable_limit=memtable_limit, runs_per_guard=2, level0_limit=2)
    model = {}
    known = set()
    for kind, key, val in cmds:
        k = b"k%04d" % key
        known.add(k)
        if kind == "delete":
            store.delete(k)
            model.pop(k, None)
        else:
            v = b"v%d" % val
            store.put(k, v)
            model[k] = v
    for k in known:
        assert store.get(k) == model.get(k)
    assert dict(store.scan(b"", b"z")) == model


@st.composite
def kv_durable_commands(draw):
    """put/delete traffic interleaved with clean closes and simulated
    crashes (every append is group-committed, so a crash loses nothing
    acknowledged and the dict model stays exact)."""
    n = draw(st.integers(1, 80))
    cmds = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(["put", "put", "put", "delete", "reopen", "crash"])
        )
        cmds.append((kind, draw(st.integers(0, 30)), draw(st.integers(0, 10**9))))
    return cmds


@given(kv_durable_commands(), st.integers(2, 12))
@settings(
    max_examples=30,  # each example does real file IO
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_durable_lsm_matches_dict_model_across_reopens(cmds, memtable_limit):
    import tempfile

    from repro.durability import DurabilityOptions, open_store

    opts = DurabilityOptions(use_fsync=False, group_commit_records=1, segment_bytes=1024)
    with tempfile.TemporaryDirectory() as d:
        store = open_store(d, options=opts, memtable_limit=memtable_limit)
        model = {}
        known = set()
        for kind, key, val in cmds:
            k = b"k%04d" % key
            if kind == "reopen":
                store.close()
                store = open_store(d, options=opts, memtable_limit=memtable_limit)
            elif kind == "crash":
                store.crash()
                store = open_store(d, options=opts, memtable_limit=memtable_limit)
            elif kind == "delete":
                known.add(k)
                store.delete(k)
                model.pop(k, None)
            else:
                known.add(k)
                v = b"v%d" % val
                store.put(k, v)
                model[k] = v
        for k in known:
            assert store.get(k) == model.get(k)
        assert dict(store.scan(b"", b"z")) == model
        store.close()


@given(kv_commands())
@SET
def test_lsm_scan_always_sorted(cmds):
    store = LSMStore(memtable_limit=4)
    for kind, key, val in cmds:
        k = b"k%04d" % key
        if kind == "delete":
            store.delete(k)
        else:
            store.put(k, b"v%d" % val)
    keys = [k for k, _ in store.scan(b"", b"z")]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


# ------------------------------------------------------------ fault schedules

SIM_SET = settings(
    max_examples=12,  # each example is a full (small) DES run
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_N_MDS = 3


@st.composite
def fault_schedules(draw):
    """Arbitrary (but servable) fault schedules for a 3-MDS cluster."""
    from repro.fs.faults import (
        Crash,
        FaultSchedule,
        Partition,
        RetryPolicy,
        RpcDelay,
        RpcDrop,
        Slowdown,
    )

    events = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["slowdown", "crash", "drop", "delay", "partition"]))
        start = draw(st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False))
        length = draw(st.floats(0.5, 40.0, allow_nan=False, allow_infinity=False))
        end = start + length
        if kind == "crash":
            # crashes stay off MDS 2 so the cluster is always servable
            mds = draw(st.integers(0, 1))
            events.append(
                Crash(
                    mds=mds,
                    start_ms=start,
                    end_ms=end,
                    warmup_ms=draw(st.floats(0.0, 10.0)),
                    warmup_factor=draw(st.floats(1.0, 4.0)),
                )
            )
            continue
        mds = draw(st.integers(0, _N_MDS - 1))
        if kind == "slowdown":
            events.append(
                Slowdown(mds=mds, start_ms=start, end_ms=end, factor=draw(st.floats(1.0, 6.0)))
            )
        elif kind == "drop":
            events.append(
                RpcDrop(mds=mds, start_ms=start, end_ms=end, probability=draw(st.floats(0.05, 0.9)))
            )
        elif kind == "delay":
            events.append(
                RpcDelay(mds=mds, start_ms=start, end_ms=end, extra_ms=draw(st.floats(0.01, 0.5)))
            )
        else:
            events.append(Partition(mds=mds, start_ms=start, end_ms=end))
    retry = RetryPolicy(
        max_attempts=draw(st.integers(2, 6)),
        backoff_base_ms=draw(st.floats(0.05, 0.5)),
        backoff_max_ms=draw(st.floats(1.0, 5.0)),
        jitter=draw(st.floats(0.0, 1.0)),
    )
    return FaultSchedule(events, retry=retry)


def _run_faulty(schedule, seed):
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.obs import Observability
    from repro.obs.tracing import JsonlTracer
    from repro.sim import SeedSequenceFactory
    from repro.workloads import generate_trace_rw

    built, trace = generate_trace_rw(SeedSequenceFactory(seed).stream("w"), n_ops=500)
    obs = Observability(tracer=JsonlTracer(None))
    cfg = SimConfig(
        n_mds=_N_MDS,
        n_clients=6,
        epoch_ms=15.0,
        params=CostParams(cache_depth=2),
        seed=seed,
        faults=schedule,
        obs=obs,
    )
    result = run_simulation(built.tree, trace, LunulePolicy(), cfg)
    return result, len(trace), obs.tracer.spans


@given(fault_schedules(), st.integers(0, 3))
@SIM_SET
def test_no_op_is_ever_lost_under_any_schedule(schedule, seed):
    """The zero-lost-ops invariant: under ANY fault schedule, every issued
    op completes, fails typed, or vanishes under a namespace race."""
    result, n_ops, spans = _run_faulty(schedule, seed)
    d = result.to_dict()
    assert d["ops_completed"] + d["fault_failed_ops"] + d["vanished_ops"] == n_ops
    assert len(spans) == n_ops
    # fault bookkeeping agrees with the result
    assert d["faults"]["ops_failed"] == d["fault_failed_ops"]


@given(fault_schedules(), st.integers(0, 3))
@SIM_SET
def test_span_identity_holds_under_faults(schedule, seed):
    """queue + service + net + fault_wait == latency, exactly, per span —
    fault waits (timeouts, backoff, aborted holds) never leak time."""
    result, n_ops, spans = _run_faulty(schedule, seed)
    for s in spans:
        d = s.to_dict()
        components = d["queue_ms"] + d["service_ms"] + d["net_ms"] + d["fault_wait_ms"]
        assert components == pytest.approx(d["latency_ms"], rel=1e-9, abs=1e-12)
        # failed spans carry a typed reason; successful ones carry none
        if d["failed"]:
            assert d["fault"] in (
                "vanished", "mds_down", "service_aborted", "rpc_timeout",
                "rpc_dropped",
            )
        else:
            assert d["fault"] == ""
        assert d["retries"] >= d["failovers"] >= 0


@given(fault_schedules(), st.integers(0, 3))
@SIM_SET
def test_virtual_time_monotone_under_faults(schedule, seed):
    """Spans never run backwards and the run's duration bounds them all."""
    result, n_ops, spans = _run_faulty(schedule, seed)
    for s in spans:
        assert s.end_ms >= s.start_ms >= 0.0
    assert result.duration_ms == pytest.approx(max(s.end_ms for s in spans))
