"""Unit tests for the balancing policies (setup partitions + rebalance logic)."""

import numpy as np
import pytest

from repro.balancers import (
    CoarseHashPolicy,
    EvenPartitionPolicy,
    FineHashPolicy,
    LunulePolicy,
    MetaOptOraclePolicy,
    MLTreePolicy,
    OrigamiPolicy,
    SingleMdsPolicy,
)
from repro.balancers.base import EpochContext, LunuleTrigger
from repro.costmodel import CostParams
from repro.namespace.builder import build_balanced, build_software_project
from repro.namespace.stats import AccessStats
from repro.sim import SeedSequenceFactory
from repro.workloads.trace import TraceBuilder


def stream(seed=0):
    return SeedSequenceFactory(seed).stream("policy")


@pytest.fixture
def world():
    rng = stream()
    built = build_software_project(rng, n_modules=6, dirs_per_module=3, files_per_dir=4)
    return built.tree, rng


def make_ctx(tree, pmap, loads, rng, reads_on=None, epoch=1):
    """Build an EpochContext with synthetic per-dir access counts."""
    stats = AccessStats(tree)
    for dir_ino, n in (reads_on or {}).items():
        stats.charge([dir_ino] * n)
    snap = stats.snapshot_and_reset()
    return EpochContext(
        tree=tree,
        pmap=pmap,
        epoch=epoch,
        snapshot=snap,
        mds_load=np.asarray(loads, dtype=np.float64),
        params=CostParams(cache_depth=2),
        rng=rng,
    )


# ------------------------------------------------------------------- trigger


def test_lunule_trigger_threshold():
    t = LunuleTrigger(threshold=0.2, min_load=1.0)
    assert not t.should_rebalance(np.array([10.0, 10.0, 10.0]))
    assert t.should_rebalance(np.array([30.0, 5.0, 5.0]))
    # idle cluster never triggers
    assert not t.should_rebalance(np.array([0.5, 0.0, 0.0]))
    # single MDS never triggers
    assert not t.should_rebalance(np.array([100.0]))


# ----------------------------------------------------------- hash placements


def test_single_mds_policy(world):
    tree, rng = world
    pmap = SingleMdsPolicy().setup(tree, 1, rng)
    assert pmap.dirs_per_mds()[0] == tree.num_dirs


def test_even_partition_spreads_dirs(world):
    tree, rng = world
    pmap = EvenPartitionPolicy().setup(tree, 5, rng)
    counts = pmap.dirs_per_mds()
    assert counts.min() > 0
    assert counts.max() - counts.min() <= tree.num_dirs * 0.3


def test_coarse_hash_preserves_deep_locality(world):
    tree, rng = world
    policy = CoarseHashPolicy(levels=2)
    pmap = policy.setup(tree, 4, rng)
    # any dir deeper than the hash levels shares its parent's owner
    for d in tree.iter_dirs():
        if tree.depth(d) > 2:
            assert pmap.owner(d) == pmap.owner(tree.parent(d)), tree.path_of(d)
    # new deep dirs inherit
    deep_parent = next(d for d in tree.iter_dirs() if tree.depth(d) == 3)
    new = tree.create_dir(deep_parent, "fresh")
    assert pmap.owner(new) == pmap.owner(deep_parent)


def test_fine_hash_scatters_and_shards_files(world):
    tree, rng = world
    pmap = FineHashPolicy().setup(tree, 4, rng)
    owners = {pmap.owner(d) for d in tree.iter_dirs() if tree.depth(d) >= 2}
    assert len(owners) == 4  # deep dirs land everywhere
    # file inodes are sharded independently of the parent's dentry shard
    some_dir = tree.lookup("/src/mod000")
    placements = {pmap.file_owner(some_dir, f"file{i}") for i in range(40)}
    assert len(placements) == 4


def test_hash_policies_never_rebalance(world):
    tree, rng = world
    for policy in (CoarseHashPolicy(), FineHashPolicy(), EvenPartitionPolicy(), SingleMdsPolicy()):
        pmap = policy.setup(tree, 3, rng)
        ctx = make_ctx(tree, pmap, [100.0, 0.0, 0.0], rng)
        assert policy.rebalance(ctx) == []


def test_hash_determinism(world):
    tree, rng = world
    p1 = CoarseHashPolicy(seed=3).setup(tree, 4, rng)
    p2 = CoarseHashPolicy(seed=3).setup(tree, 4, stream(9))
    np.testing.assert_array_equal(p1.owner_array(), p2.owner_array())
    p3 = CoarseHashPolicy(seed=4).setup(tree, 4, rng)
    assert not np.array_equal(p1.owner_array(), p3.owner_array())


# ------------------------------------------------------------------- lunule


def test_lunule_moves_from_hot_to_cold(world):
    tree, rng = world
    policy = LunulePolicy()
    pmap = policy.setup(tree, 3, rng)
    # everything on MDS 0, with observable load on a hot module
    hot = tree.lookup("/src/mod001")
    reads = {d: 50 for d in tree.iter_subtree_dirs(hot)}
    # background load elsewhere so the hot subtree is not the *entire* load
    # (a move that relocates 100% of the load cannot shrink the max bin)
    for d in tree.iter_subtree_dirs(tree.lookup("/src/mod004")):
        reads[d] = 30
    ctx = make_ctx(tree, pmap, [90.0, 1.0, 1.0], rng, reads_on=reads)
    decisions = policy.rebalance(ctx)
    assert decisions, "hot imbalance must produce migrations"
    for d in decisions:
        assert d.src == 0
        assert d.dst in (1, 2)
    # every export carries real load from the hot regions
    idx = tree.dfs_index()
    hot_roots = {tree.lookup("/src/mod001"), tree.lookup("/src/mod004")}
    for d in decisions:
        assert any(
            idx.tin[h] <= idx.tin[d.subtree_root] < idx.tout[h]
            or idx.tin[d.subtree_root] <= idx.tin[h] < idx.tout[d.subtree_root]
            for h in hot_roots
        ) or d.subtree_root in {tree.lookup("/src")}


def test_lunule_quiet_when_balanced(world):
    tree, rng = world
    policy = LunulePolicy()
    pmap = policy.setup(tree, 3, rng)
    ctx = make_ctx(tree, pmap, [10.0, 10.0, 10.0], rng, reads_on={0: 5})
    assert policy.rebalance(ctx) == []


def test_lunule_exports_are_disjoint(world):
    tree, rng = world
    policy = LunulePolicy(max_moves_per_epoch=10)
    pmap = policy.setup(tree, 3, rng)
    reads = {d: 10 for d in tree.iter_dirs()}
    ctx = make_ctx(tree, pmap, [50.0, 1.0, 1.0], rng, reads_on=reads)
    decisions = policy.rebalance(ctx)
    idx = tree.dfs_index()
    roots = [d.subtree_root for d in decisions]
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            assert not (idx.tin[a] <= idx.tin[b] < idx.tout[a])
            assert not (idx.tin[b] <= idx.tin[a] < idx.tout[b])


# ------------------------------------------------------------------ ml-tree


def test_mltree_persistence_baseline_moves_hot_dirs(world):
    tree, rng = world
    policy = MLTreePolicy()  # no model: last-epoch persistence
    pmap = policy.setup(tree, 3, rng)
    hot_dir = tree.lookup("/build/mod002")
    reads = {hot_dir: 500}
    for d in tree.iter_subtree_dirs(tree.lookup("/src")):
        reads[d] = 20  # background load so the hot dir is movable
    ctx = make_ctx(tree, pmap, [80.0, 2.0, 2.0], rng, reads_on=reads)
    decisions = policy.rebalance(ctx)
    assert any(d.subtree_root == hot_dir for d in decisions)


def test_mltree_cooldown_prevents_immediate_remigration(world):
    tree, rng = world
    policy = MLTreePolicy(cooldown_epochs=3)
    pmap = policy.setup(tree, 3, rng)
    hot_dir = tree.lookup("/build/mod002")
    reads = {hot_dir: 500}
    for d in tree.iter_subtree_dirs(tree.lookup("/src")):
        reads[d] = 20
    ctx = make_ctx(tree, pmap, [80.0, 2.0, 2.0], rng, reads_on=reads, epoch=1)
    first = policy.rebalance(ctx)
    assert any(d.subtree_root == hot_dir for d in first)
    for d in first:
        pmap.migrate_subtree(d.subtree_root, d.dst)
    # next epoch: the same dir is still hot on its new home but must be pinned
    ctx2 = make_ctx(tree, pmap, [2.0, 80.0, 2.0], rng, reads_on=reads, epoch=2)
    second = policy.rebalance(ctx2)
    assert not any(d.subtree_root == hot_dir for d in second)


def test_mltree_with_model_uses_predictions(world):
    tree, rng = world

    class ConstantModel:
        def predict(self, X):
            return np.full(X.shape[0], 3.0)

    policy = MLTreePolicy(model=ConstantModel())
    pmap = policy.setup(tree, 2, rng)
    ctx = make_ctx(tree, pmap, [50.0, 1.0], rng, reads_on={0: 100})
    # must not crash and must respect ownership
    for d in policy.rebalance(ctx):
        assert pmap.owner(d.subtree_root) == d.src


# ------------------------------------------------------------------ origami


class FakeBenefitModel:
    """Predicts high benefit for a chosen subtree, ~zero elsewhere."""

    def __init__(self, tree, favourite):
        self.idx = tree.dfs_index()
        self.favourite = favourite
        self.tree = tree
        self._cands = None

    def remember(self, cands):
        self._cands = cands

    def predict(self, X):
        assert self._cands is not None, "test must call remember() first"
        out = np.full(X.shape[0], 0.001)
        for j, s in enumerate(self._cands):
            if int(s) == self.favourite:
                out[j] = 100.0
        return out


def test_origami_moves_highest_predicted_benefit(world):
    tree, rng = world
    fav = tree.lookup("/src/mod003")
    model = FakeBenefitModel(tree, fav)
    policy = OrigamiPolicy(model, benefit_threshold_frac=0.0001)
    pmap = policy.setup(tree, 3, rng)
    uniform = pmap.uniform_subtree_mask()
    uniform[0] = False  # exactly the candidate set the policy will use
    model.remember(np.nonzero(uniform)[0])
    reads = {d: 20 for d in tree.iter_subtree_dirs(fav)}
    for d in tree.iter_subtree_dirs(tree.lookup("/include")):
        reads[d] = 40  # background load keeps the favourite movable
    ctx = make_ctx(tree, pmap, [60.0, 1.0, 1.0], rng, reads_on=reads)
    decisions = policy.rebalance(ctx)
    assert decisions
    assert decisions[0].subtree_root == fav
    assert decisions[0].src == 0


def test_origami_threshold_stops_migration(world):
    tree, rng = world

    class TinyBenefit:
        def predict(self, X):
            return np.full(X.shape[0], 1e-9)

    policy = OrigamiPolicy(TinyBenefit(), benefit_threshold_frac=0.5)
    pmap = policy.setup(tree, 3, rng)
    ctx = make_ctx(tree, pmap, [60.0, 1.0, 1.0], rng, reads_on={0: 100})
    assert policy.rebalance(ctx) == []


def test_origami_respects_trigger(world):
    tree, rng = world

    class Big:
        def predict(self, X):
            return np.full(X.shape[0], 100.0)

    policy = OrigamiPolicy(Big())
    pmap = policy.setup(tree, 3, rng)
    ctx = make_ctx(tree, pmap, [10.0, 10.0, 10.0], rng, reads_on={0: 100})
    assert policy.rebalance(ctx) == []  # balanced: trigger stays quiet


# ------------------------------------------------------------------- oracle


def test_oracle_plans_against_future_window(world):
    tree, rng = world
    policy = MetaOptOraclePolicy(delta=1e9)
    pmap = policy.setup(tree, 3, rng)
    tb = TraceBuilder()
    dirs = list(tree.iter_dirs())
    for i in range(300):
        tb.stat(dirs[i % len(dirs)], f"n{i}")
    ctx = make_ctx(tree, pmap, [60.0, 1.0, 1.0], rng, reads_on={0: 10})
    ctx.oracle_window = tb.build()
    decisions = policy.rebalance(ctx)
    assert decisions
    for d in decisions:
        assert d.src != d.dst


def test_oracle_without_window_is_noop(world):
    tree, rng = world
    policy = MetaOptOraclePolicy(delta=1.0)
    pmap = policy.setup(tree, 3, rng)
    ctx = make_ctx(tree, pmap, [60.0, 1.0, 1.0], rng)
    assert policy.rebalance(ctx) == []
    with pytest.raises(ValueError):
        MetaOptOraclePolicy(delta=0.0)
