"""Tests for the §4.3 training workflow: features, label loop, model training."""

import numpy as np
import pytest

from repro.cluster import PartitionMap
from repro.costmodel import CostParams
from repro.ml.dataset import FEATURE_NAMES, FeatureExtractor, TrainingSet
from repro.ml.importance import rank_features
from repro.namespace import AccessStats
from repro.namespace.builder import build_software_project
from repro.sim import SeedSequenceFactory
from repro.training import collect_training_data, record_window, train_models, train_origami_model
from repro.workloads import generate_trace_rw


def stream(seed=0):
    return SeedSequenceFactory(seed).stream("train")


# ------------------------------------------------------------------ features


@pytest.fixture
def feature_world():
    built = build_software_project(stream(), n_modules=4, dirs_per_module=3)
    tree = built.tree
    stats = AccessStats(tree)
    hot = tree.lookup("/src/mod001")
    stats.charge([hot] * 40, [tree.lookup("/build/mod001")] * 25)
    snap = stats.snapshot_and_reset()
    return tree, snap, hot


def test_feature_matrix_shape_and_ranges(feature_world):
    tree, snap, hot = feature_world
    cands = np.array([d for d in tree.iter_dirs() if d != 0])
    X = FeatureExtractor(tree).extract(cands, snap)
    assert X.shape == (cands.size, len(FEATURE_NAMES))
    # normalised columns live in [0, 1]
    assert np.all(X[:, :5] >= 0) and np.all(X[:, :5] <= 1 + 1e-12)
    # ratio columns are proportions in [0, 1] as well
    assert np.all(X[:, 5:] >= 0) and np.all(X[:, 5:] <= 1 + 1e-12)


def test_feature_subtree_rollup(feature_world):
    tree, snap, hot = feature_world
    src = tree.lookup("/src")
    cands = np.array([src, hot])
    X = FeatureExtractor(tree).extract(cands, snap)
    i_read = FEATURE_NAMES.index("n_read")
    # /src's subtree includes the hot module, so its read share >= the module's
    assert X[0, i_read] >= X[1, i_read] > 0


def test_feature_depth_normalised_by_max(feature_world):
    tree, snap, _ = feature_world
    deepest = max(tree.iter_dirs(), key=tree.depth)
    cands = np.array([deepest, tree.lookup("/src")])
    X = FeatureExtractor(tree).extract(cands, snap)
    i_depth = FEATURE_NAMES.index("depth")
    assert X[0, i_depth] == pytest.approx(1.0)


def test_training_set_accumulation_and_split():
    ts = TrainingSet()
    assert ts.n_samples == 0
    X = np.random.default_rng(0).random((30, len(FEATURE_NAMES)))
    y = np.arange(30.0)
    ts.add(X, y)
    ts.add(X, y)
    assert ts.n_samples == 60
    Xtr, ytr, Xte, yte = ts.train_test_split(test_fraction=0.25, seed=1)
    assert Xtr.shape[0] == 45 and Xte.shape[0] == 15
    with pytest.raises(ValueError):
        ts.add(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        ts.add(np.zeros((2, len(FEATURE_NAMES))), np.zeros(3))


def test_rank_features_orders_and_ties():
    imp = [0.05, 0.4, 0.39, 0.05, 0.05, 0.03, 0.03]
    ranked = rank_features(imp)
    assert ranked[0][0] == FEATURE_NAMES[1]
    assert ranked[0][2] == 1
    assert ranked[1][2] == 1  # 0.40 vs 0.39 tie within tolerance
    with pytest.raises(ValueError):
        rank_features([1.0, 2.0])


# ---------------------------------------------------------------- label loop


def test_record_window_matches_categories():
    built = build_software_project(stream(), n_modules=3)
    tree = built.tree
    from repro.workloads.trace import TraceBuilder

    tb = TraceBuilder()
    a = tree.lookup("/src/mod000")
    tb.stat(a, "x")
    tb.readdir(a)
    tb.create(a, "y")
    stats = AccessStats(tree)
    record_window(stats, tb.build())
    snap = stats.snapshot_and_reset()
    assert snap.reads[a] == 2  # the stat and the lsdir
    assert snap.writes[a] == 1


def test_collect_training_data_produces_samples():
    built, trace = generate_trace_rw(stream(3), n_ops=12000)
    dataset, pmap = collect_training_data(
        built.tree, trace, n_mds=4, params=CostParams(cache_depth=2),
        delta=50.0, ops_per_epoch=2000,
    )
    assert dataset.n_samples > 0
    X, y = dataset.matrices()
    assert X.shape[1] == len(FEATURE_NAMES)
    assert np.all(y >= 0)
    assert (y > 0).any(), "some migrations must look beneficial"
    # the label loop applied migrations: partition no longer all-on-0
    assert pmap.dirs_per_mds()[0] < built.tree.num_dirs


def test_collect_training_data_no_migrations_keeps_partition():
    built, trace = generate_trace_rw(stream(4), n_ops=8000)
    _, pmap = collect_training_data(
        built.tree, trace, n_mds=4, params=CostParams(),
        delta=50.0, ops_per_epoch=2000, apply_migrations=False,
    )
    assert pmap.dirs_per_mds()[0] == built.tree.num_dirs


def test_collect_training_data_max_epochs():
    built, trace = generate_trace_rw(stream(5), n_ops=12000)
    ds_all, _ = collect_training_data(
        built.tree, trace, n_mds=4, params=CostParams(), delta=50.0, ops_per_epoch=2000
    )
    built2, trace2 = generate_trace_rw(stream(5), n_ops=12000)
    ds_two, _ = collect_training_data(
        built2.tree, trace2, n_mds=4, params=CostParams(), delta=50.0,
        ops_per_epoch=2000, max_epochs=2,
    )
    assert ds_two.n_samples < ds_all.n_samples


# ------------------------------------------------------------ model training


@pytest.fixture(scope="module")
def dataset():
    built, trace = generate_trace_rw(stream(11), n_ops=36000)
    ds, _ = collect_training_data(
        built.tree, trace, n_mds=5, params=CostParams(cache_depth=2),
        delta=50.0, ops_per_epoch=4000,
    )
    return ds


def test_train_origami_model_predicts_ranked_benefits(dataset):
    model = train_origami_model(dataset, n_estimators=80)
    X, y = dataset.matrices()
    pred = model.predict(X)
    from repro.ml.metrics import spearman_rank_correlation

    # benefit labels are inherently noisy (the cluster state that also
    # shapes them is not a feature); what Meta-OPT needs is a usable ranking
    assert spearman_rank_correlation(y, pred) > 0.3
    imp = model.feature_importances()
    assert imp.shape[0] == len(FEATURE_NAMES)
    assert imp.sum() == pytest.approx(1.0)


def test_train_models_compares_families(dataset):
    reports = train_models(dataset, gbdt_rounds=30, mlp_epochs=25)
    assert set(reports) == {"LightGBM-style", "GBDT", "MLP", "Ridge"}
    for rep in reports.values():
        assert rep.rmse >= 0
    # the §4.3 observation: tree models agree on the top-benefit subtrees
    # far better than chance (a random ranking overlaps ~10% on the decile)
    assert reports["LightGBM-style"].top_decile_overlap > 0.2
    assert reports["GBDT"].top_decile_overlap > 0.2
    # learned models beat the linear baseline on ranking
    assert reports["LightGBM-style"].spearman > reports["Ridge"].spearman - 0.1


def test_train_origami_model_empty_dataset():
    with pytest.raises(ValueError):
        train_origami_model(TrainingSet())
