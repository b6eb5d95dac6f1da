"""Property-based tests on the ML stack (hypothesis)."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml import GBDTRegressor, RidgeRegressor
from repro.ml.metrics import _rank, spearman_rank_correlation
from repro.ml.tree import Binner, RegressionTree, unique_rows

SET = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def regression_data(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(30, 300))
    f = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    X = rng.random((n, f))
    w = rng.normal(size=f)
    y = X @ w + 0.1 * rng.normal(size=n)
    return X, y


@given(regression_data())
@SET
def test_tree_predictions_within_label_range(data):
    """A regression tree's leaves are averages: predictions stay in [min, max]."""
    X, y = data
    b = Binner(16)
    binned = b.fit_transform(X)
    t = RegressionTree(max_leaves=8, min_samples_leaf=2).fit(binned, y)
    pred = t.predict_binned(binned)
    lam = t.reg_lambda
    # shrinkage (reg_lambda) pulls leaf values toward 0, never outside the
    # label hull extended to include 0
    lo = min(y.min(), 0.0) - 1e-9
    hi = max(y.max(), 0.0) + 1e-9
    assert np.all(pred >= lo) and np.all(pred <= hi)


@given(regression_data())
@SET
def test_gbdt_training_error_no_worse_than_constant(data):
    """Boosting from the mean can only reduce training MSE."""
    X, y = data
    model = GBDTRegressor(n_estimators=10, learning_rate=0.3, max_leaves=4,
                          min_samples_leaf=2).fit(X, y)
    pred = model.predict(X)
    mse_model = float(np.mean((y - pred) ** 2))
    mse_const = float(np.mean((y - y.mean()) ** 2))
    assert mse_model <= mse_const + 1e-9


@given(regression_data())
@SET
def test_gbdt_importances_normalised(data):
    X, y = data
    model = GBDTRegressor(n_estimators=5, max_leaves=4, min_samples_leaf=2).fit(X, y)
    imp = model.feature_importances()
    assert np.all(imp >= 0)
    s = imp.sum()
    assert s == pytest.approx(1.0) or s == pytest.approx(0.0)


def _reference_predict(model, X):
    """The plain per-row forest walk: start at ``base_`` and, tree by tree in
    boosting order, add ``learning_rate * value[leaf]``."""
    out = []
    for row in model.binner_.transform(X):
        acc = model.base_
        for tree in model.trees_:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            acc += model.learning_rate * tree.value[node]
        out.append(acc)
    return np.array(out, dtype=np.float64)


@given(
    seed=st.integers(0, 10**6),
    f=st.integers(1, 6),
    growth=st.sampled_from(["leaf", "level"]),
)
@SET
def test_gbdt_predict_matches_per_row_reference(seed, f, growth):
    """``predict`` walks the forest over distinct binned rows only; every row
    must still get the per-row walk's value bit for bit."""
    rng = np.random.default_rng(seed)
    n = 60
    X = rng.random((n, f))
    # one column of n distinct values: with n <= n_bins every training row
    # bins to its own row
    X[:, 0] = rng.permutation(n)
    y = X @ rng.normal(size=f) + 0.1 * rng.normal(size=n)
    model = GBDTRegressor(
        n_estimators=8, learning_rate=0.3, max_leaves=6, max_depth=3,
        min_samples_leaf=2, growth=growth,
    ).fit(X, y)
    assert unique_rows(model.binner_.transform(X))[0].shape[0] == n
    # every corner of the training box (each column at its min or max), so
    # the duplicates include rows that differ in any one column only
    corners = np.array(list(itertools.product(*zip(X.min(axis=0), X.max(axis=0)))))
    duplicated = corners[rng.integers(0, len(corners), size=300)]
    wide = np.hstack([rng.random((n, 2)), X])
    cases = {
        "duplicated": duplicated,
        "distinct": X,
        "no rows": X[:0],
        "one row": X[:1],
        "fortran": np.asfortranarray(duplicated),
        "column view": wide[:, 2:],
    }
    for name, Xc in cases.items():
        got = model.predict(Xc)
        want = _reference_predict(model, Xc)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@given(regression_data(), st.floats(0.5, 5.0), st.floats(-3.0, 3.0))
@SET
def test_ridge_equivariance_under_target_scaling(data, a, b):
    """OLS-family estimators are affine-equivariant in the target."""
    X, y = data
    m1 = RidgeRegressor(alpha=1e-8).fit(X, y)
    m2 = RidgeRegressor(alpha=1e-8).fit(X, a * y + b)
    p1 = m1.predict(X[:10])
    p2 = m2.predict(X[:10])
    np.testing.assert_allclose(p2, a * p1 + b, rtol=1e-5, atol=1e-6)


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=60, unique=True))
@SET
def test_rank_is_a_permutation_for_unique_values(vals):
    r = _rank(np.asarray(vals))
    assert sorted(r) == list(range(1, len(vals) + 1))


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=60, unique=True))
@SET
def test_spearman_bounds(vals):
    rng = np.random.default_rng(0)
    y = np.asarray(vals)
    noise = rng.normal(size=y.size)
    rho = spearman_rank_correlation(y, y + noise)
    assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9


@given(regression_data())
@SET
def test_binner_transform_idempotent_on_training_data(data):
    X, _ = data
    b = Binner(16)
    one = b.fit_transform(X)
    two = b.transform(X)
    np.testing.assert_array_equal(one, two)
