"""Cross-checks of the vectorised trace evaluator against scalar ground truth."""

import numpy as np
import pytest

from repro.cluster import PartitionMap
from repro.costmodel import CostParams, evaluate_trace
from repro.costmodel.rct import request_rct
from repro.namespace.builder import build_balanced, build_random
from repro.sim import SeedSequenceFactory
from repro.workloads.trace import TraceBuilder
from repro.costmodel.optypes import OpType


def random_trace(rng, tree, n_ops=400, include_rmdir=True):
    """A trace over random live dirs with every op family represented."""
    dirs = [d for d in tree.iter_dirs()]
    tb = TraceBuilder()
    for i in range(n_ops):
        d = int(dirs[int(rng.integers(0, len(dirs)))])
        roll = rng.random()
        if roll < 0.35:
            tb.stat(d, f"n{i}")
        elif roll < 0.55:
            tb.open(d, f"n{i}")
        elif roll < 0.70:
            tb.readdir(d)
        elif roll < 0.85:
            tb.create(d, f"new{i}")
        elif roll < 0.92:
            tb.unlink(d, f"n{i}")
        elif include_rmdir and tree.n_child_dirs(d) > 0:
            kids = [c for c in tree.children(d).values() if tree.is_dir(c)]
            tb.rmdir(d, kids[int(rng.integers(0, len(kids)))])
        else:
            tb.stat(d, f"n{i}")
    return tb.build()


def scatter_partition(rng, tree, pmap, n_moves=8):
    dirs = [d for d in tree.iter_dirs() if d != 0]
    for _ in range(n_moves):
        pmap.migrate_subtree(int(dirs[int(rng.integers(0, len(dirs)))]),
                             int(rng.integers(0, pmap.n_mds)))


@pytest.mark.parametrize("cache_depth", [0, 2, 4])
def test_evaluate_matches_scalar_reference(cache_depth):
    ssf = SeedSequenceFactory(11)
    rng = ssf.stream("t")
    built = build_random(rng, n_dirs=60, files_per_dir_mean=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=4)
    scatter_partition(rng, tree, pmap)
    params = CostParams(cache_depth=cache_depth)
    trace = random_trace(rng, tree)

    load = evaluate_trace(trace, tree, pmap, params, collect_per_request=True)

    # scalar ground truth
    exp_rct = np.zeros(pmap.n_mds)
    exp_qps = np.zeros(pmap.n_mds)
    ms = []
    for i in range(len(trace)):
        rc = request_rct(
            tree, pmap, params, int(trace.op[i]), int(trace.dir_ino[i]),
            name=trace.names[i], aux=int(trace.aux[i]),
        )
        exp_rct[rc.primary] += rc.rct
        exp_qps[rc.primary] += 1
        ms.append(rc.m)
        assert load.per_request_rct[i] == pytest.approx(rc.rct), f"op {i}"

    np.testing.assert_allclose(load.rct_per_mds, exp_rct, rtol=1e-12)
    np.testing.assert_allclose(load.qps_per_mds, exp_qps)
    assert load.jct == pytest.approx(exp_rct.max())
    assert load.mean_m == pytest.approx(np.mean(ms))
    assert load.n_requests == len(trace)


def test_evaluate_empty_trace():
    built = build_balanced(2, 2, 1)
    pmap = PartitionMap(built.tree, n_mds=3)
    tb = TraceBuilder()
    load = evaluate_trace(tb.build(), built.tree, pmap, CostParams())
    assert load.jct == 0.0
    assert load.n_requests == 0
    assert load.rpcs_per_request == 0.0


def test_single_mds_all_load_on_one_bin():
    ssf = SeedSequenceFactory(3)
    rng = ssf.stream("t")
    built = build_random(rng, n_dirs=30)
    pmap = PartitionMap(built.tree, n_mds=1)
    trace = random_trace(rng, built.tree, n_ops=100)
    load = evaluate_trace(trace, built.tree, pmap, CostParams())
    assert load.qps_per_mds[0] == 100
    assert load.mean_m == 1.0
    assert load.jct == pytest.approx(load.rct_per_mds.sum())


def test_cache_reduces_rpcs_and_jct():
    ssf = SeedSequenceFactory(5)
    rng = ssf.stream("t")
    built = build_balanced(depth=5, fanout=2, files_per_dir=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=4)
    scatter_partition(rng, tree, pmap, n_moves=12)
    trace = random_trace(rng, tree, n_ops=500, include_rmdir=False)
    cold = evaluate_trace(trace, tree, pmap, CostParams(cache_depth=0))
    warm = evaluate_trace(trace, tree, pmap, CostParams(cache_depth=3))
    assert warm.total_rpcs < cold.total_rpcs
    assert warm.mean_m <= cold.mean_m
    assert warm.jct < cold.jct


def test_deeper_paths_cost_more():
    built = build_balanced(depth=6, fanout=1, files_per_dir=1)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=1)
    shallow = TraceBuilder()
    shallow.stat(tree.lookup("/d0_0"), "f0")
    deep = TraceBuilder()
    deep.stat(tree.lookup("/d0_0/d1_0/d2_0/d3_0/d4_0/d5_0"), "f0")
    p = CostParams()
    l_sh = evaluate_trace(shallow.build(), tree, pmap, p)
    l_dp = evaluate_trace(deep.build(), tree, pmap, p)
    assert l_dp.jct > l_sh.jct


def test_rpc_accounting_conservation():
    ssf = SeedSequenceFactory(9)
    rng = ssf.stream("t")
    built = build_random(rng, n_dirs=50)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=4)
    scatter_partition(rng, tree, pmap)
    trace = random_trace(rng, tree, n_ops=300, include_rmdir=False)
    load = evaluate_trace(trace, tree, pmap, CostParams())
    assert load.rpcs_per_mds.sum() == pytest.approx(load.total_rpcs)
    assert load.total_rpcs >= load.n_requests  # at least one RPC each
    assert load.rpcs_per_request >= 1.0
