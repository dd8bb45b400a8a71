import json

import numpy as np
import pytest

from invqsar import regression
from invqsar.regression import (
    CenteredDesign,
    CvReport,
    FitError,
    LinearPredictor,
    cross_validate_path,
    lasso_fit,
    predictor_from_json_text,
    predictor_to_json_text,
    r_squared,
)
from invqsar.schema import InputError

from oracles import kkt_residuals, lambda_max, prox_grad_lasso


def test_exact_interpolation():
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    fit = lasso_fit(x, y, 0.0)
    assert abs(fit.weights[0] - 1.0) < 1e-6
    assert abs(fit.bias) < 1e-6


def test_lambda_max_kills_weights():
    rng = np.random.default_rng(1)
    x = rng.random((30, 6))
    y = rng.random(30)
    lmax = lambda_max(x, y)
    fit = lasso_fit(x, y, lmax * 1.0001)
    assert np.all(fit.weights == 0.0)
    assert abs(fit.bias - y.mean()) < 1e-9
    # just below the threshold something becomes active
    fit2 = lasso_fit(x, y, lmax * 0.95)
    assert np.any(fit2.weights != 0.0)


def test_against_proximal_gradient_oracle():
    rng = np.random.default_rng(2)
    x = rng.random((20, 5))
    y = rng.random(20)
    fit = lasso_fit(x, y, 0.01)
    w_ref, b_ref = prox_grad_lasso(x, y, 0.01)
    assert np.abs(fit.weights - w_ref).max() < 1e-5
    assert abs(fit.bias - b_ref) < 1e-5


def test_kkt_at_solution():
    rng = np.random.default_rng(3)
    for lam in (0.001, 0.01, 0.1):
        x = rng.random((40, 8))
        y = rng.random(40)
        fit = lasso_fit(x, y, lam)
        assert kkt_residuals(x, y, fit.weights, fit.bias, lam).max() <= 1e-6


def test_objective_monotone_per_sweep():
    rng = np.random.default_rng(4)
    x = rng.random((25, 7))
    y = rng.random(25)
    fit = lasso_fit(x, y, 0.05)
    path = fit.objective_path
    for before, after in zip(path, path[1:]):
        assert after <= before + 1e-12


def test_zero_lambda_matches_least_squares():
    rng = np.random.default_rng(5)
    x = rng.random((30, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.7 + 0.01 * rng.random(30)
    fit = lasso_fit(x, y, 0.0, tol=1e-12)
    design = np.hstack([x, np.ones((30, 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.abs(fit.weights - coef[:4]).max() < 1e-6
    assert abs(fit.bias - coef[4]) < 1e-6


def test_selection_monotone_along_lambda_path():
    rng = np.random.default_rng(6)
    x = rng.random((50, 10))
    y = x @ (rng.random(10) - 0.5) + 0.1 * rng.random(50)
    lams = np.geomspace(1e-5, lambda_max(x, y) * 1.2, 10)
    counts = []
    for lam in lams:
        fit = lasso_fit(x, y, float(lam))
        counts.append(int((fit.weights != 0).sum()))
    for a, b in zip(counts, counts[1:]):
        assert b <= a


def test_constant_column_skipped():
    # constant descriptors arrive as all-zero columns after normalization
    x = np.hstack([np.zeros((20, 1)), np.linspace(0, 1, 20).reshape(-1, 1)])
    y = np.linspace(0, 1, 20)
    fit = lasso_fit(x, y, 0.0)
    assert fit.weights[0] == 0.0
    assert abs(fit.weights[1] - 1.0) < 1e-6


def test_constant_nonzero_column_gets_zero_weight():
    # an unnormalized constant column would act as a second intercept
    rng = np.random.default_rng(12)
    x = np.hstack([np.full((30, 1), 0.7), rng.random((30, 3))])
    y = x[:, 1:] @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.random(30)
    for lam in (0.0, 0.01):
        fit = lasso_fit(x, y, lam, tol=1e-12)
        assert fit.weights[0] == 0.0
        assert kkt_residuals(x, y, fit.weights, fit.bias, lam).max() <= 1e-6
    warm = lasso_fit(x, y, 0.0, w0=np.ones(4))
    assert warm.weights[0] == 0.0


def test_warm_start_from_wrong_weights():
    rng = np.random.default_rng(13)
    x = rng.random((50, 12))
    y = x @ np.where(rng.random(12) < 0.4, rng.normal(0, 1, 12), 0.0)
    y += 0.05 * rng.standard_normal(50)
    for lam in (0.001, 0.01, 0.1):
        w0 = rng.normal(0, 3, 12)
        fit = lasso_fit(x, y, lam, w0=w0)
        assert kkt_residuals(x, y, fit.weights, fit.bias, lam).max() <= 1e-6
        assert abs(float((y - x @ fit.weights - fit.bias).mean())) <= 1e-12
        path = fit.objective_path
        assert len(path) == fit.n_sweeps + 1
        for before, after in zip(path, path[1:]):
            assert after <= before + 1e-12


def _descriptor_like(seed, n=300, k=491):
    """Sparse counts, min-max normalized, with a few true weights: the
    size of the benchmark's training set."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rng.gamma(0.5, 1.0, k), (n, k)).astype(float)
    lo, hi = counts.min(axis=0), counts.max(axis=0)
    x = np.where(hi > lo, (counts - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    w = np.zeros(k)
    w[rng.choice(k, 10, replace=False)] = rng.normal(0, 1, 10)
    y = x @ w + 0.05 * rng.standard_normal(n)
    return x, (y - y.min()) / (y.max() - y.min())


def test_warm_path_takes_fewer_sweeps_than_cold_fits():
    x, y = _descriptor_like(14)
    warm_sweeps = cold_sweeps = 0
    w = None
    for lam in (0.01, 0.003, 0.001):
        warm = lasso_fit(x, y, lam, w0=w)
        cold = lasso_fit(x, y, lam)
        w = warm.weights
        warm_sweeps += warm.n_sweeps
        cold_sweeps += cold.n_sweeps
        assert np.abs(warm.weights - cold.weights).max() < 1e-5
        assert kkt_residuals(x, y, warm.weights, warm.bias, lam).max() <= 1e-6
    assert warm_sweeps < cold_sweeps


def test_rejects_bad_input():
    with pytest.raises(FitError):
        lasso_fit(np.array([[1.0]]), np.array([1.0]), 0.1)
    with pytest.raises(FitError):
        lasso_fit(np.array([[1.0], [2.0]]), np.array([1.0, np.nan]), 0.1)
    with pytest.raises(FitError):
        lasso_fit(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), -1.0)


def _toy_predictor(weights, bias=0.0, k=None):
    k = k or len(weights)
    return LinearPredictor(
        weights=tuple(weights),
        bias=bias,
        lam=0.0,
        descriptor_names=tuple(f"d{i}" for i in range(k)),
        mins=tuple([0.0] * k),
        maxs=tuple([1.0] * k),
        target_min=0.0,
        target_max=1.0,
        space_hash="abc",
    )


def test_predict_trivial():
    p = _toy_predictor([0.0, 0.0], bias=0.3)
    assert p.predict_normalized([0.9, 0.1]) == pytest.approx(0.3)
    p = _toy_predictor([1.0, 0.0])
    assert p.predict_normalized([0.7, 0.5]) == pytest.approx(0.7)


def test_predict_train_then_holdout():
    rng = np.random.default_rng(7)
    x = rng.random((60, 5))
    true_w = np.array([0.2, -0.1, 0.4, 0.0, 0.3])
    y = x @ true_w + 0.25
    fit = lasso_fit(x[:50], y[:50], 1e-9, tol=1e-12)
    pred = x[50:] @ fit.weights + fit.bias
    assert np.abs(pred - y[50:]).max() < 1e-6


def test_r_squared():
    assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0
    assert r_squared([2, 2, 2], [1, 2, 3]) == 0.0
    assert r_squared([0, 0, 2], [0, 1, 2]) == pytest.approx(0.5)
    assert r_squared([1, 2], [5, 5]) == 0.0  # zero-variance convention


def test_cv_noiseless_linear():
    rng = np.random.default_rng(8)
    x = rng.random((80, 6))
    y = x @ (rng.random(6) + 0.1) + 0.2
    report = cross_validate_path(x, y, [1e-6], executions=3, seed=0)[0]
    assert report.median_r2 >= 0.999
    assert len(report.fold_r2) == 15


def test_cv_constant_target():
    rng = np.random.default_rng(9)
    x = rng.random((40, 3))
    y = np.ones(40)
    report = cross_validate_path(x, y, [0.01], executions=2, seed=0)[0]
    assert report.median_r2 == 0.0


def test_cv_pure_noise():
    rng = np.random.default_rng(10)
    x = rng.random((100, 5))
    y = rng.standard_normal(100)
    report = cross_validate_path(x, y, [10.0], executions=3, seed=1)[0]
    assert report.median_r2 <= 0.05


def test_cv_reproducible():
    rng = np.random.default_rng(11)
    x = rng.random((50, 4))
    y = rng.random(50)
    r1 = cross_validate_path(x, y, [0.01], executions=2, seed=42)[0]
    r2 = cross_validate_path(x, y, [0.01], executions=2, seed=42)[0]
    assert r1 == r2
    r3 = cross_validate_path(x, y, [0.01], executions=2, seed=43)[0]
    assert r1.fold_r2 != r3.fold_r2


def _cold_cross_validate(x, y, lam, executions, folds, seed):
    """Per-penalty CV with a cold fit per split, drawing the folds the way
    the one-penalty-at-a-time protocol always has."""
    rng = np.random.default_rng(seed)
    scores, selected = [], []
    for _ in range(executions):
        parts = np.array_split(rng.permutation(len(y)), folds)
        for k in range(folds):
            test_idx = parts[k]
            train_idx = np.concatenate([parts[j] for j in range(folds) if j != k])
            fit = lasso_fit(x[train_idx], y[train_idx], lam, 1e-12)
            pred = x[test_idx] @ fit.weights + fit.bias
            scores.append(r_squared(pred, y[test_idx]))
            selected.append(int((fit.weights != 0.0).sum()))
    return np.array(scores), float(np.mean(selected))


@pytest.mark.parametrize("grid", [
    [0.001, 0.003, 0.01, 0.03],
    [0.03, 0.01, 0.003, 0.001],
    [0.01, 0.001, 0.01, 0.003],
])
def test_cv_path_matches_cold_fits(grid, monkeypatch):
    # both sides solve to 1e-12, so the comparison sees the folds, the
    # order and the warm starts, not the default stopping rule
    def tight_fit(x, y, lam, tol=1e-7, max_sweeps=100_000, w0=None):
        return lasso_fit(x, y, lam, 1e-12, max_sweeps, w0)

    monkeypatch.setattr(regression, "lasso_fit", tight_fit)
    rng = np.random.default_rng(15)
    x = rng.random((60, 12))
    y = x @ np.where(rng.random(12) < 0.5, rng.normal(0, 1, 12), 0.0)
    y += 0.1 * rng.standard_normal(60)
    reports = cross_validate_path(x, y, grid, executions=3, seed=5)
    assert [r.lam for r in reports] == grid
    for lam, report in zip(grid, reports):
        scores, mean_selected = _cold_cross_validate(x, y, lam, 3, 5, 5)
        assert np.abs(np.array(report.fold_r2) - scores).max() <= 1e-9
        assert abs(report.median_r2 - float(np.median(scores))) <= 1e-9
        assert report.mean_selected == mean_selected


def _same_fit(a, b) -> bool:
    """Bit-identical weights, bias, sweep count and objective path."""
    return (a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias
            and a.n_sweeps == b.n_sweeps and a.objective_path == b.objective_path)


def test_fits_on_one_centered_design_match_fits_on_the_array():
    """Fits that share one CenteredDesign, and so its Gram columns, give
    the bits of fits that each center the array themselves; with and
    without a warm start, and with a constant column."""
    x, y = _descriptor_like(17, n=120, k=40)
    x[:, 3] = 0.5
    design = CenteredDesign(x)
    w = None
    for lam in (0.01, 0.003, 0.001, 0.003):
        shared = lasso_fit(design, y, lam, w0=w)
        fresh = lasso_fit(x, y, lam, w0=w)
        assert _same_fit(shared, fresh)
        assert shared.weights[3] == 0.0
        w = shared.weights
    assert _same_fit(lasso_fit(design, y, 0.002), lasso_fit(x, y, 0.002))
    assert len(design.gram) > 0


def _array_cross_validate(x, y, lams, executions, folds, seed):
    """cross_validate_path's walk, fitting every penalty from the raw
    training split array."""
    order = sorted(range(len(lams)), key=lambda i: -lams[i])
    rng = np.random.default_rng(seed)
    scores, selected = [[] for _ in lams], [[] for _ in lams]
    for _ in range(executions):
        parts = np.array_split(rng.permutation(len(y)), folds)
        for k in range(folds):
            test_idx = parts[k]
            train_idx = np.concatenate([parts[j] for j in range(folds) if j != k])
            w = None
            for i in order:
                fit = lasso_fit(x[train_idx], y[train_idx], lams[i], w0=w)
                w = fit.weights
                pred = x[test_idx] @ w + fit.bias
                scores[i].append(r_squared(pred, y[test_idx]))
                selected[i].append(int((w != 0.0).sum()))
    return [CvReport(lam, tuple(scores[i]), float(np.median(scores[i])),
                     float(np.mean(selected[i])))
            for i, lam in enumerate(lams)]


def test_cv_path_matches_fits_from_the_split_array():
    x, y = _descriptor_like(18, n=80, k=30)
    lams = [0.003, 0.01, 0.001]
    assert (cross_validate_path(x, y, lams, executions=2, seed=7)
            == _array_cross_validate(x, y, lams, 2, 5, 7))


def test_cv_needs_an_execution():
    rng = np.random.default_rng(16)
    with pytest.raises(FitError):
        cross_validate_path(rng.random((40, 5)), rng.random(40), [0.01],
                            executions=0)


def test_predictor_json_round_trip():
    p = LinearPredictor(
        weights=(0.5, -0.25),
        bias=0.1,
        lam=0.01,
        descriptor_names=("a", "b"),
        mins=(0.0, 1.0),
        maxs=(2.0, 3.0),
        target_min=-5.0,
        target_max=5.0,
        space_hash="deadbeef",
    )
    text = predictor_to_json_text(p)
    assert predictor_from_json_text(text) == p
    assert p.standardize(0.0) == 0.5
    assert p.destandardize(0.5) == 0.0


@pytest.mark.parametrize("edit, needle", [
    (lambda doc: doc["weights"].__setitem__(1, float("nan")),
     "predictor key 'weights[1]' must be a finite number"),
    (lambda doc: doc.update(bias=True), "predictor key 'bias' must be a finite number"),
    (lambda doc: doc["descriptor_names"].__setitem__(0, 1),
     "predictor key 'descriptor_names[0]' must be a string"),
    (lambda doc: doc.update(note="x"), "predictor key 'note' is unknown"),
    (lambda doc: doc["min"].pop(), "predictor is invalid: predictor field lengths"),
], ids=["nan-weight", "bool-bias", "int-name", "unknown-key", "lengths"])
def test_predictor_faults_name_their_path(edit, needle):
    p = LinearPredictor((0.5, -0.25), 0.1, 0.01, ("a", "b"), (0.0, 1.0),
                        (2.0, 3.0), -5.0, 5.0, "deadbeef")
    doc = json.loads(predictor_to_json_text(p))
    edit(doc)
    with pytest.raises(InputError) as caught:
        predictor_from_json_text(json.dumps(doc))
    assert str(caught.value).startswith(needle)
