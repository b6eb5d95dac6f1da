"""Property-based tests on cost-model invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import PartitionMap
from repro.costmodel import CostParams, evaluate_trace
from repro.costmodel.optypes import OpType
from repro.costmodel.rct import request_rct
from repro.namespace.builder import build_random
from repro.sim import SeedSequenceFactory
from repro.workloads.trace import TraceBuilder

SET = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def world(draw):
    """A random tree + scattered partition + mixed read trace."""
    seed = draw(st.integers(0, 10**6))
    n_mds = draw(st.integers(1, 6))
    ssf = SeedSequenceFactory(seed)
    rng = ssf.stream("w")
    built = build_random(rng, n_dirs=draw(st.integers(5, 45)), files_per_dir_mean=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=n_mds)
    dirs = [d for d in tree.iter_dirs() if d != 0]
    for _ in range(draw(st.integers(0, 8))):
        if dirs:
            pmap.migrate_subtree(
                dirs[draw(st.integers(0, len(dirs) - 1))], draw(st.integers(0, n_mds - 1))
            )
    tb = TraceBuilder()
    all_dirs = [0, *dirs]
    for i in range(draw(st.integers(1, 120))):
        d = all_dirs[draw(st.integers(0, len(all_dirs) - 1))]
        if draw(st.booleans()):
            tb.stat(d, f"n{i}")
        else:
            tb.readdir(d)
    return tree, pmap, tb.build()


@given(world())
@SET
def test_rct_is_positive_and_m_bounded(w):
    tree, pmap, trace = w
    params = CostParams()
    for i in range(len(trace)):
        rc = request_rct(tree, pmap, params, int(trace.op[i]), int(trace.dir_ino[i]))
        assert rc.rct > 0
        assert 1 <= rc.m <= pmap.n_mds
        assert rc.k_eff >= 0
        assert rc.primary in rc.owners


@given(world(), st.integers(0, 6))
@SET
def test_deeper_cache_never_costs_more(w, depth):
    """Monotonicity: increasing the cache depth can only reduce RPCs/JCT."""
    tree, pmap, trace = w
    shallow = evaluate_trace(trace, tree, pmap, CostParams(cache_depth=depth))
    deeper = evaluate_trace(trace, tree, pmap, CostParams(cache_depth=depth + 1))
    assert deeper.total_rpcs <= shallow.total_rpcs
    assert deeper.mean_m <= shallow.mean_m + 1e-12
    assert deeper.jct <= shallow.jct + 1e-9


@given(world())
@SET
def test_single_partition_is_cost_floor(w):
    """Everything on one MDS minimises total RCT mass (m = 1 everywhere):
    any scattered partition can only add crossing overheads."""
    tree, pmap, trace = w
    params = CostParams()
    scattered = evaluate_trace(trace, tree, pmap, params)
    mono = PartitionMap(tree, n_mds=pmap.n_mds)
    single = evaluate_trace(trace, tree, mono, params)
    assert single.rct_per_mds.sum() <= scattered.rct_per_mds.sum() + 1e-9
    # ...but its JCT (max bin) is the worst possible concentration
    assert single.jct >= scattered.rct_per_mds.sum() / pmap.n_mds - 1e-9


@given(world())
@SET
def test_colocating_subtree_with_parent_never_raises_total_cost(w):
    """Merging a boundary (child joins its parent's owner) removes crossings."""
    tree, pmap, trace = w
    params = CostParams()
    before = evaluate_trace(trace, tree, pmap, params).rct_per_mds.sum()
    # live directories owned differently from their parent
    owners = pmap.owner_array()
    boundary = np.flatnonzero(
        tree.dir_mask() & (owners != owners[tree.parent_array()])
    )
    if boundary.size == 0:
        return
    s = int(boundary[0])
    pmap.migrate_subtree(s, pmap.owner(tree.parent(s)))
    after = evaluate_trace(trace, tree, pmap, params).rct_per_mds.sum()
    assert after <= before + 1e-9


@given(world())
@SET
def test_evaluate_conserves_requests(w):
    tree, pmap, trace = w
    load = evaluate_trace(trace, tree, pmap, CostParams())
    assert int(load.qps_per_mds.sum()) == len(trace)
    assert load.total_rpcs >= len(trace)
    assert load.jct <= load.rct_per_mds.sum() + 1e-9
    assert load.jct == pytest.approx(load.rct_per_mds.max())


@given(world(), st.integers(0, 3))
@SET
def test_per_request_rct_sums_to_cluster_load(w, cache_depth):
    tree, pmap, trace = w
    load = evaluate_trace(
        trace, tree, pmap, CostParams(cache_depth=cache_depth), collect_per_request=True
    )
    assert load.per_request_rct is not None
    assert load.per_request_rct.sum() == pytest.approx(load.rct_per_mds.sum())
    assert load.mean_rct == pytest.approx(load.per_request_rct.mean())
