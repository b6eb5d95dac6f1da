"""Tests for Meta-OPT (Algorithm 1): improvement, guards, oracle comparison."""

import numpy as np
import pytest

from repro.cluster import PartitionMap
from repro.core import exhaustive_opt, meta_opt
from repro.costmodel import CostParams, evaluate_trace
from repro.namespace.builder import build_balanced, build_random
from repro.sim import SeedSequenceFactory
from repro.workloads.trace import TraceBuilder
from tests.test_costmodel_evaluate import random_trace


def skewed_world(seed=0, n_mds=4):
    """Everything on MDS 0 (OrigamiFS initial state) with a skewed trace."""
    ssf = SeedSequenceFactory(seed)
    rng = ssf.stream("w")
    built = build_random(rng, n_dirs=50, files_per_dir_mean=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=n_mds)
    trace = random_trace(rng, tree, n_ops=600, include_rmdir=False)
    return tree, pmap, trace, CostParams()


def test_metaopt_reduces_jct_from_single_mds():
    tree, pmap, trace, params = skewed_world()
    base = evaluate_trace(trace, tree, pmap, params)
    res = meta_opt(trace, tree, pmap, params, delta=base.jct)
    assert res.jct_before == pytest.approx(base.jct)
    assert res.jct_after < res.jct_before
    assert len(res.decisions) > 0
    assert res.improvement > 0.3  # 4 MDSs should cut the single bin a lot


def test_metaopt_does_not_mutate_input_partition():
    tree, pmap, trace, params = skewed_world()
    before = pmap.owner_array().copy()
    meta_opt(trace, tree, pmap, params, delta=1e9)
    np.testing.assert_array_equal(pmap.owner_array(), before)


def test_metaopt_final_partition_reproduces_jct():
    tree, pmap, trace, params = skewed_world(seed=1)
    res = meta_opt(trace, tree, pmap, params, delta=1e9)
    recomputed = evaluate_trace(trace, tree, res.final_partition, params)
    assert res.jct_after == pytest.approx(recomputed.jct)


def test_metaopt_decisions_replay_to_final_partition():
    tree, pmap, trace, params = skewed_world(seed=2)
    res = meta_opt(trace, tree, pmap, params, delta=1e9)
    replay = pmap.copy()
    for d in res.decisions:
        assert replay.owner(d.subtree_root) == d.src
        replay.migrate_subtree(d.subtree_root, d.dst)
    np.testing.assert_array_equal(
        replay.owner_array(), res.final_partition.owner_array()
    )


def test_metaopt_jct_history_monotone_decreasing():
    tree, pmap, trace, params = skewed_world(seed=3)
    res = meta_opt(trace, tree, pmap, params, delta=1e9)
    hist = [res.jct_before, *res.jct_history]
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_metaopt_respects_delta_guard():
    tree, pmap, trace, params = skewed_world(seed=4)
    delta = 0.5  # tight guard: post-move dst-src gap must stay below this
    res = meta_opt(trace, tree, pmap, params, delta=delta)
    # verify every intermediate state satisfied the guard when applied
    replay = pmap.copy()
    for d in res.decisions:
        replay.migrate_subtree(d.subtree_root, d.dst)
        loads = evaluate_trace(trace, tree, replay, params).rct_per_mds
        assert loads[d.dst] - loads[d.src] < delta


def test_metaopt_max_migrations_cap():
    tree, pmap, trace, params = skewed_world(seed=5)
    res = meta_opt(trace, tree, pmap, params, delta=1e9, max_migrations=2)
    assert len(res.decisions) <= 2


def test_metaopt_stop_threshold():
    tree, pmap, trace, params = skewed_world(seed=6)
    free = meta_opt(trace, tree, pmap, params, delta=1e9, stop_threshold=0.0)
    strict = meta_opt(trace, tree, pmap, params, delta=1e9, stop_threshold=1e9)
    assert len(strict.decisions) == 0
    assert strict.jct_after == strict.jct_before
    assert len(free.decisions) >= len(strict.decisions)


def test_metaopt_moves_nothing_off_or_onto_ineligible_mds():
    tree, pmap, trace, params = skewed_world(seed=6)
    res = meta_opt(trace, tree, pmap, params, delta=1e9,
                   eligible=np.array([True, True, False, True]))
    assert res.decisions and all(d.dst != 2 for d in res.decisions)
    # everything starts on MDS 0: with it ineligible, nothing may move
    res = meta_opt(trace, tree, pmap, params, delta=1e9,
                   eligible=np.array([False, True, True, True]))
    assert res.decisions == []


def test_metaopt_empty_trace():
    tree, pmap, _, params = skewed_world(seed=7)
    tb = TraceBuilder()
    res = meta_opt(tb.build(), tree, pmap, params, delta=1.0)
    assert res.decisions == []
    assert res.jct_after == 0.0


def test_metaopt_invalid_delta():
    tree, pmap, trace, params = skewed_world(seed=8)
    with pytest.raises(ValueError):
        meta_opt(trace, tree, pmap, params, delta=0.0)


def test_metaopt_single_mds_no_moves():
    ssf = SeedSequenceFactory(9)
    rng = ssf.stream("w")
    built = build_random(rng, n_dirs=20)
    pmap = PartitionMap(built.tree, n_mds=1)
    trace = random_trace(rng, built.tree, n_ops=100, include_rmdir=False)
    res = meta_opt(trace, built.tree, pmap, CostParams(), delta=1e9)
    assert res.decisions == []


# ------------------------------------------------------- exhaustive oracle


def tiny_world(seed=0):
    ssf = SeedSequenceFactory(seed)
    rng = ssf.stream("w")
    built = build_balanced(depth=2, fanout=2, files_per_dir=2)
    tree = built.tree
    pmap = PartitionMap(tree, n_mds=2)
    trace = random_trace(rng, tree, n_ops=200, include_rmdir=False)
    return tree, pmap, trace, CostParams()


def test_exhaustive_at_least_as_good_as_greedy():
    tree, pmap, trace, params = tiny_world()
    delta = evaluate_trace(trace, tree, pmap, params).jct  # loose guard
    greedy = meta_opt(trace, tree, pmap, params, delta=delta)
    optimal = exhaustive_opt(trace, tree, pmap, params, delta=delta, max_depth=3)
    assert optimal.jct_after <= greedy.jct_after + 1e-9


def test_greedy_gap_bounded_by_delta():
    """Theorem 1's guarantee observed on real small instances."""
    for seed in range(4):
        tree, pmap, trace, params = tiny_world(seed)
        delta = evaluate_trace(trace, tree, pmap, params).jct * 0.5
        greedy = meta_opt(trace, tree, pmap, params, delta=delta)
        optimal = exhaustive_opt(trace, tree, pmap, params, delta=delta, max_depth=3)
        gap = greedy.jct_after - optimal.jct_after  # >= 0, bounded by delta
        assert gap >= -1e-9
        assert gap < delta + 1e-9, f"seed {seed}: gap {gap} vs delta {delta}"


def test_exhaustive_candidate_limit():
    tree, pmap, trace, params = skewed_world(seed=10)
    with pytest.raises(ValueError):
        exhaustive_opt(trace, tree, pmap, params, delta=1e9, candidate_limit=3)
