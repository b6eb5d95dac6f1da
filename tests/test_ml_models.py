"""Unit tests for the from-scratch ML stack: trees, GBDT, MLP, ridge, metrics."""

import numpy as np
import pytest

from repro.ml import (
    GBDTRegressor,
    MLPRegressor,
    RidgeRegressor,
    mean_absolute_error,
    r2_score,
    rmse,
    spearman_rank_correlation,
)
from repro.ml.metrics import top_k_overlap
from repro.ml.tree import Binner, RegressionTree


def make_regression(n=2000, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 5))
    # nonlinear target with feature interactions
    y = (
        3.0 * X[:, 0]
        + np.sin(4 * X[:, 1])
        + 2.0 * (X[:, 2] > 0.5) * X[:, 3]
        + noise * rng.normal(size=n)
    )
    return X, y


# ------------------------------------------------------------------- binner


def test_binner_roundtrip_monotone():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 3))
    b = Binner(n_bins=16)
    binned = b.fit_transform(X)
    assert binned.dtype == np.uint8
    assert binned.max() < 16
    # binning preserves order within a feature
    order = np.argsort(X[:, 0])
    assert np.all(np.diff(binned[order, 0].astype(int)) >= 0)


def test_binner_validation():
    with pytest.raises(ValueError):
        Binner(n_bins=1)
    with pytest.raises(RuntimeError):
        Binner().transform(np.zeros((3, 2)))
    # a column count other than the fitted one is refused, naming both
    # counts: an extra column would reach the model as uninitialised bytes
    X, y = make_regression(n=200)
    binner = Binner().fit(X)
    model = GBDTRegressor(n_estimators=2).fit(X, y)
    for n_cols in (4, 6):
        wrong = np.zeros((3, n_cols))
        with pytest.raises(ValueError, match=f"{n_cols} features.*fitted on 5"):
            binner.transform(wrong)
        with pytest.raises(ValueError, match=f"{n_cols} features.*fitted on 5"):
            model.predict(wrong)
    with pytest.raises(ValueError, match="2-D"):
        binner.transform(np.zeros(5))


# --------------------------------------------------------------------- tree


def test_tree_fits_step_function():
    rng = np.random.default_rng(2)
    X = rng.random((1000, 2))
    y = np.where(X[:, 0] > 0.5, 4.0, -4.0)
    b = Binner(32)
    binned = b.fit_transform(X)
    t = RegressionTree(max_leaves=4, min_samples_leaf=5).fit(binned, y)
    pred = t.predict_binned(binned)
    # histogram splitting can only miss samples inside the bin straddling the
    # step; allow that quantisation error
    assert rmse(y, pred) < 1.0
    assert np.mean(np.sign(pred) == np.sign(y)) > 0.97
    assert t.feature_gain_[0] > t.feature_gain_[1]


def test_tree_respects_max_leaves():
    X, y = make_regression(n=800, seed=3)
    b = Binner(32)
    binned = b.fit_transform(X)
    for leaves in (2, 4, 8):
        t = RegressionTree(max_leaves=leaves, min_samples_leaf=5).fit(binned, y)
        assert t.n_leaves <= leaves


def test_tree_constant_target_single_leaf():
    X = np.random.default_rng(0).random((100, 3))
    y = np.full(100, 2.5)
    b = Binner(16)
    t = RegressionTree().fit(b.fit_transform(X), y)
    assert t.n_leaves == 1
    assert t.predict_binned(b.transform(X))[0] == pytest.approx(2.5, abs=0.1)


def test_tree_level_growth_bounded_depth():
    X, y = make_regression(n=800, seed=4)
    b = Binner(32)
    binned = b.fit_transform(X)
    t = RegressionTree(growth="level", max_depth=2, min_samples_leaf=5).fit(binned, y)
    assert t.n_leaves <= 4  # depth-2 tree has at most 4 leaves
    with pytest.raises(ValueError):
        RegressionTree(growth="bogus")


# --------------------------------------------------------------------- gbdt


def test_gbdt_learns_nonlinear_function():
    X, y = make_regression(n=3000, seed=5)
    model = GBDTRegressor(n_estimators=60, learning_rate=0.2, max_leaves=16)
    model.fit(X, y)
    pred = model.predict(X)
    assert r2_score(y, pred) > 0.95


def test_gbdt_generalises():
    X, y = make_regression(n=4000, seed=6)
    Xtr, ytr, Xte, yte = X[:3000], y[:3000], X[3000:], y[3000:]
    model = GBDTRegressor(n_estimators=80, learning_rate=0.15, max_leaves=16).fit(Xtr, ytr)
    assert r2_score(yte, model.predict(Xte)) > 0.9


def test_gbdt_training_loss_decreases():
    X, y = make_regression(n=1000, seed=7)
    model = GBDTRegressor(n_estimators=30, learning_rate=0.2, max_leaves=8).fit(X, y)
    losses = model.train_losses_
    assert losses[-1] < losses[0] * 0.5
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_gbdt_early_stopping():
    X, y = make_regression(n=2000, seed=8, noise=0.5)
    model = GBDTRegressor(
        n_estimators=200, learning_rate=0.3, max_leaves=32, early_stopping_rounds=5
    )
    model.fit(X[:1500], y[:1500], eval_set=(X[1500:], y[1500:]))
    assert len(model.trees_) < 200


def test_gbdt_feature_importance_identifies_signal():
    rng = np.random.default_rng(9)
    X = rng.random((2000, 4))
    y = 5.0 * X[:, 2] + 0.01 * rng.normal(size=2000)  # only feature 2 matters
    model = GBDTRegressor(n_estimators=20, learning_rate=0.3, max_leaves=8).fit(X, y)
    imp = model.feature_importances()
    assert np.argmax(imp) == 2
    assert imp[2] > 0.9
    assert imp.sum() == pytest.approx(1.0)


def test_gbdt_level_growth_works():
    X, y = make_regression(n=1500, seed=10)
    model = GBDTRegressor(n_estimators=50, learning_rate=0.2, growth="level", max_depth=4)
    model.fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.9


def test_gbdt_validation():
    with pytest.raises(ValueError):
        GBDTRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GBDTRegressor(learning_rate=0)
    with pytest.raises(RuntimeError):
        GBDTRegressor().predict(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GBDTRegressor().fit(np.zeros((0, 2)), np.zeros(0))


def test_gbdt_deterministic():
    X, y = make_regression(n=500, seed=11)
    p1 = GBDTRegressor(n_estimators=10, max_leaves=8).fit(X, y).predict(X)
    p2 = GBDTRegressor(n_estimators=10, max_leaves=8).fit(X, y).predict(X)
    np.testing.assert_array_equal(p1, p2)


# ---------------------------------------------------------------------- mlp


def test_mlp_learns_linear_function():
    rng = np.random.default_rng(12)
    X = rng.random((1500, 4))
    y = X @ np.array([1.0, -2.0, 3.0, 0.5]) + 0.7
    model = MLPRegressor(hidden=(32, 32, 16, 8), epochs=60, seed=0).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.95


def test_mlp_has_four_hidden_layers_by_default():
    m = MLPRegressor()
    assert len(m.hidden) == 4


def test_mlp_loss_decreases():
    X, y = make_regression(n=800, seed=13)
    model = MLPRegressor(epochs=30, seed=1).fit(X, y)
    assert model.train_losses_[-1] < model.train_losses_[0]


def test_mlp_validation():
    with pytest.raises(ValueError):
        MLPRegressor(hidden=())
    with pytest.raises(RuntimeError):
        MLPRegressor().predict(np.zeros((2, 2)))


# -------------------------------------------------------------------- ridge


def test_ridge_exact_on_linear_data():
    rng = np.random.default_rng(14)
    X = rng.random((500, 3))
    w = np.array([2.0, -1.0, 0.5])
    y = X @ w + 3.0
    model = RidgeRegressor(alpha=1e-9).fit(X, y)
    np.testing.assert_allclose(model.coef_, w, atol=1e-6)
    assert model.intercept_ == pytest.approx(3.0, abs=1e-6)


def test_ridge_shrinks_with_alpha():
    rng = np.random.default_rng(15)
    X = rng.random((200, 2))
    y = 10 * X[:, 0] + rng.normal(size=200)
    small = RidgeRegressor(alpha=0.01).fit(X, y)
    big = RidgeRegressor(alpha=1e4).fit(X, y)
    assert abs(big.coef_[0]) < abs(small.coef_[0])


# ------------------------------------------------------------------ metrics


def test_metrics_perfect_prediction():
    y = np.array([1.0, 2.0, 3.0])
    assert rmse(y, y) == 0.0
    assert mean_absolute_error(y, y) == 0.0
    assert r2_score(y, y) == 1.0
    assert spearman_rank_correlation(y, y) == pytest.approx(1.0)


def test_spearman_monotone_transform_invariant():
    rng = np.random.default_rng(16)
    y = rng.random(100)
    assert spearman_rank_correlation(y, np.exp(5 * y)) == pytest.approx(1.0)
    assert spearman_rank_correlation(y, -y) == pytest.approx(-1.0)


def test_spearman_handles_ties():
    y_true = np.array([1.0, 1.0, 2.0, 3.0])
    y_pred = np.array([0.0, 0.0, 1.0, 2.0])
    assert spearman_rank_correlation(y_true, y_pred) == pytest.approx(1.0)


def test_top_k_overlap():
    y_true = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y_pred = np.array([0.0, 1.0, 4.0, 3.0, 2.0])
    assert top_k_overlap(y_true, y_pred, 3) == pytest.approx(1.0)
    assert top_k_overlap(y_true, y_pred, 1) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        top_k_overlap(y_true, y_pred, 0)


def test_metrics_validation():
    with pytest.raises(ValueError):
        rmse(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        r2_score(np.empty(0), np.empty(0))
