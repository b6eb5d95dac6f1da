"""The subtree ledger must predict exactly what a real migration + full
re-evaluation produces (for subtree placement)."""

import numpy as np
import pytest

from repro.cluster import PartitionMap
from repro.costmodel import CostParams, SubtreeLedger, evaluate_trace
from repro.namespace.builder import build_balanced, build_random
from repro.sim import SeedSequenceFactory
from tests.test_costmodel_evaluate import random_trace, scatter_partition


def make_world(seed, n_dirs=70, n_ops=500, n_mds=4, cache_depth=0, moves=6):
    ssf = SeedSequenceFactory(seed)
    rng = ssf.stream("w")
    built = build_random(rng, n_dirs=n_dirs, files_per_dir_mean=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=n_mds)
    scatter_partition(rng, tree, pmap, n_moves=moves)
    trace = random_trace(rng, tree, n_ops=n_ops)
    params = CostParams(cache_depth=cache_depth)
    return rng, tree, pmap, trace, params


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cache_depth", [0, 2])
def test_ledger_matches_real_migration(seed, cache_depth):
    rng, tree, pmap, trace, params = make_world(seed, cache_depth=cache_depth)
    ledger = SubtreeLedger(trace, tree, pmap, params)
    cands = ledger.candidates
    assert cands.size > 0
    # try a sample of (candidate, dst) pairs
    picks = rng.integers(0, cands.size, size=min(25, cands.size))
    for pi in picks:
        s = int(cands[int(pi)])
        src = pmap.owner(s)
        for dst in range(pmap.n_mds):
            if dst == src:
                continue
            predicted = ledger.predicted_loads(s, dst)
            what_if = pmap.copy()
            what_if.migrate_subtree(s, dst)
            actual = evaluate_trace(trace, tree, what_if, params).rct_per_mds
            np.testing.assert_allclose(
                predicted, actual, rtol=1e-9, atol=1e-9,
                err_msg=f"subtree {s} ({tree.path_of(s)}) -> {dst}",
            )


def test_evaluate_dst_benefit_agrees_with_predicted_loads():
    rng, tree, pmap, trace, params = make_world(9)
    ledger = SubtreeLedger(trace, tree, pmap, params)
    for dst in range(pmap.n_mds):
        ev = ledger.evaluate_dst(dst)
        sample = rng.integers(0, ev.candidates.size, size=min(20, ev.candidates.size))
        for j in sample:
            j = int(j)
            if not ev.valid[j]:
                assert ev.benefit[j] == 0.0
                continue
            loads = ledger.predicted_loads(int(ev.candidates[j]), dst)
            assert ev.jct_new[j] == pytest.approx(loads.max())
            assert ev.benefit[j] == pytest.approx(ledger.base.jct - loads.max())
            src = int(ledger.cand_owner[j])
            assert ev.dst_minus_src[j] == pytest.approx(loads[dst] - loads[src])


def test_candidates_are_uniform_subtrees():
    _, tree, pmap, trace, params = make_world(12)
    ledger = SubtreeLedger(trace, tree, pmap, params)
    uniform = pmap.uniform_subtree_mask()
    for s in ledger.candidates:
        assert uniform[s]
        assert s != 0


def test_ledger_rejects_hash_placement():
    built = build_balanced(2, 2, 1)
    pmap = PartitionMap(built.tree, n_mds=2, placement=lambda pm, p, n: 0)
    from repro.workloads.trace import TraceBuilder

    tb = TraceBuilder()
    tb.stat(0, "x")
    with pytest.raises(ValueError):
        SubtreeLedger(tb.build(), built.tree, pmap, CostParams())


def test_ledger_invalid_dst():
    _, tree, pmap, trace, params = make_world(13)
    ledger = SubtreeLedger(trace, tree, pmap, params)
    with pytest.raises(ValueError):
        ledger.evaluate_dst(99)
    with pytest.raises(ValueError):
        ledger.predicted_loads(0, 1)  # root is never a candidate
