import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.dataio import ScalerParams, inverse_scale_array, target_scaler
from fedcast.metrics import TRAFFIC_TARGETS, evaluate_forecasts
from helpers import ks_statistic, mae, nrmse, rmse


# -------------------------------------------------------------- point metrics

def test_mae_worked_example():
    assert mae(np.array([2.0, 4.0]), np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_rmse_worked_example():
    got = rmse(np.array([2.0, 4.0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(np.sqrt(5.0))


def test_constant_error_mae_equals_rmse():
    truth = np.linspace(0.0, 9.0, 10)
    for c in (-3.0, 0.5, 2.0):
        assert mae(truth + c, truth) == pytest.approx(abs(c))
        assert rmse(truth + c, truth) == pytest.approx(abs(c))


def test_nrmse_is_rmse_over_truth_mean():
    pred = np.array([2.0, 4.0])
    truth = np.array([1.0, 1.0])
    assert nrmse(pred, truth) == pytest.approx(np.sqrt(5.0))
    truth4 = np.array([4.0, 4.0])
    assert nrmse(pred + 3.0, truth4) == pytest.approx(rmse(pred + 3.0, truth4) / 4.0)


def test_nrmse_rejects_zero_mean_truth():
    with pytest.raises(ValueError):
        nrmse(np.array([1.0, 1.0]), np.array([-1.0, 1.0]))


def test_perfect_forecast_scores_zero():
    y = np.array([3.0, 1.0, 4.0])
    assert mae(y, y) == 0.0
    assert rmse(y, y) == 0.0
    assert nrmse(y, y) == 0.0


def test_metrics_flatten_matrices():
    pred = np.array([[2.0, 4.0], [1.0, 1.0]])
    truth = np.ones((2, 2))
    assert mae(pred, truth) == pytest.approx(1.0)


def test_metric_input_validation():
    with pytest.raises(ValueError):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        rmse(np.array([]), np.array([]))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
)
def test_mae_never_exceeds_rmse(p, t):
    n = min(len(p), len(t))
    pred, truth = np.array(p[:n]), np.array(t[:n])
    assert mae(pred, truth) <= rmse(pred, truth) + 1e-9


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_metrics_are_pair_permutation_invariant(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pred = rng.normal(size=17)
    truth = rng.normal(size=17) + 5.0
    perm = rng.permutation(17)
    assert mae(pred[perm], truth[perm]) == pytest.approx(mae(pred, truth))
    assert rmse(pred[perm], truth[perm]) == pytest.approx(rmse(pred, truth))
    assert nrmse(pred[perm], truth[perm]) == pytest.approx(nrmse(pred, truth))


@settings(deadline=None, max_examples=100)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_nrmse_is_scale_invariant(factor, seed):
    # multiplying predictions and truth by the same positive factor
    # leaves the normalized error unchanged
    rng = np.random.Generator(np.random.PCG64(seed))
    pred = rng.uniform(1.0, 2.0, size=23)
    truth = rng.uniform(1.0, 2.0, size=23)
    base = nrmse(pred, truth)
    assert nrmse(factor * pred, factor * truth) == pytest.approx(base, rel=1e-9)


# ------------------------------------------------------------------------- KS

def ks_brute_force(a, b):
    # sup over all observed points of |F_a - F_b|, by counting
    a, b = np.asarray(a, float), np.asarray(b, float)
    best = 0.0
    for x in np.concatenate([a, b]):
        fa = np.sum(a <= x) / len(a)
        fb = np.sum(b <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def test_ks_identical_samples():
    x = np.array([1.0, 2.0, 3.0])
    assert ks_statistic(x, x) == 0.0
    assert ks_statistic(x, np.array([3.0, 1.0, 2.0])) == 0.0


def test_ks_disjoint_supports():
    assert ks_statistic(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0


def test_ks_shifted_example():
    got = ks_statistic(np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]))
    assert got == pytest.approx(1.0 / 3.0)


def test_ks_is_symmetric():
    rng = np.random.Generator(np.random.PCG64(7))
    a, b = rng.normal(size=30), rng.normal(1.0, 2.0, size=50)
    assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), np.array([1.0]))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=15),
    st.lists(st.floats(-100, 100), min_size=1, max_size=15),
)
def test_ks_matches_brute_force(a, b):
    got = ks_statistic(np.array(a), np.array(b))
    assert got == pytest.approx(ks_brute_force(a, b), abs=1e-12)
    assert 0.0 <= got <= 1.0


# ------------------------------------------------------------- report scoring

def unit_scaler(d=11):
    # identity mapping: min 0, max 1 for every feature
    return ScalerParams(minimum=np.zeros(d), maximum=np.ones(d))


def test_evaluate_perfect_forecast():
    truth = np.tile(np.array([0.2, 0.4, 0.6, 0.8, 1.0]), (4, 1))
    report = evaluate_forecasts(truth, truth, unit_scaler())
    assert report.avg_mae == 0.0
    assert report.avg_rmse == 0.0
    assert report.avg_nrmse == 0.0
    assert report.n_points == 4


def test_evaluate_hand_fixture():
    # two rows, identity scaler; per-target errors chosen by hand
    truth = np.array([
        [1.0, 2.0, 1.0, 1.0, 2.0],
        [3.0, 2.0, 1.0, 3.0, 2.0],
    ])
    pred = truth + np.array([
        [1.0, 0.0, -1.0, 2.0, 0.0],
        [1.0, 0.0, 1.0, 2.0, 0.0],
    ])
    report = evaluate_forecasts(pred, truth, unit_scaler())
    assert report.per_target_mae == pytest.approx((1.0, 0.0, 1.0, 2.0, 0.0))
    assert report.per_target_rmse == pytest.approx((1.0, 0.0, 1.0, 2.0, 0.0))
    # target means: 2.0 and 2.0 for the two traffic series
    assert report.per_target_nrmse[0] == pytest.approx(0.5)
    assert report.per_target_nrmse[1] == pytest.approx(0.0)
    assert report.avg_mae == pytest.approx(0.8)
    assert report.avg_rmse == pytest.approx(0.8)
    # avg_nrmse covers the two traffic targets only
    assert report.avg_nrmse == pytest.approx(0.25)


def test_evaluate_unscales_before_scoring():
    # feature j spans [0, 10*(j+1)]: scaled 0.5 means 5*(j+1) in units
    mins = np.zeros(11)
    maxs = np.array([10.0 * (j + 1) for j in range(11)])
    scaler = ScalerParams(minimum=mins, maximum=maxs)
    truth = np.full((3, 5), 0.5)
    pred = np.full((3, 5), 0.6)
    report = evaluate_forecasts(pred, truth, scaler)
    for j in range(5):
        span = 10.0 * (j + 1)
        assert report.per_target_mae[j] == pytest.approx(0.1 * span)
        assert report.per_target_nrmse[j] == pytest.approx((0.1 * span) / (0.5 * span))


def test_evaluate_averages_per_target_scores():
    rng = np.random.Generator(np.random.PCG64(11))
    truth = rng.uniform(0.2, 1.0, size=(20, 5))
    pred = truth + rng.normal(0, 0.05, size=(20, 5))
    report = evaluate_forecasts(pred, truth, unit_scaler())
    assert report.avg_mae == pytest.approx(np.mean(report.per_target_mae))
    assert report.avg_rmse == pytest.approx(np.mean(report.per_target_rmse))
    assert report.avg_nrmse == pytest.approx(np.mean(report.per_target_nrmse[:2]))
    for j in range(5):
        assert report.per_target_mae[j] == pytest.approx(
            mae(pred[:, j], truth[:, j])
        )


def test_evaluate_nan_for_zero_mean_secondary_target():
    truth = np.full((2, 5), 0.5)
    truth[:, 4] = 0.0  # zero-mean non-traffic target is tolerated
    pred = truth + 0.1
    report = evaluate_forecasts(pred, truth, unit_scaler())
    assert report.per_target_nrmse[4] is None
    assert not np.isnan(report.avg_nrmse)


def test_evaluate_rejects_zero_mean_traffic_target():
    truth = np.full((2, 5), 0.5)
    truth[:, 0] = 0.0
    with pytest.raises(ValueError, match="zero-mean truth"):
        evaluate_forecasts(truth + 0.1, truth, unit_scaler())


def reference_report(pred, truth, scaler):
    """The scores of one scalar call per target column, as a tuple of fields."""
    t_scaler = target_scaler(scaler)
    pred_units = inverse_scale_array(pred, t_scaler)
    truth_units = inverse_scale_array(truth, t_scaler)
    maes, rmses, nrmses = [], [], []
    for j in range(5):
        p, t = pred_units[:, j], truth_units[:, j]
        maes.append(mae(p, t))
        rmses.append(rmse(p, t))
        try:
            nrmses.append(nrmse(p, t))
        except ValueError:  # zero-mean truth
            nrmses.append(None)
    n_traffic = len(TRAFFIC_TARGETS)
    if None in nrmses[:n_traffic]:
        return None
    return (tuple(maes), tuple(rmses), tuple(nrmses), float(np.mean(maes)),
            float(np.mean(rmses)), float(np.mean(nrmses[:n_traffic])))


# a zero-mean traffic target refuses the whole report, so draw it rarely
rarely = st.integers(0, 9).map(lambda k: k == 0)


@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.lists(st.booleans(), min_size=5, max_size=5),
    zero_mean=st.tuples(rarely, rarely, st.booleans(), st.booleans(), st.booleans()),
)
def test_evaluate_matches_per_target_scalar_metrics_bitwise(n, seed, degenerate,
                                                             zero_mean):
    # degenerate: the feature's span is 0, so every value maps to its
    # minimum; zero_mean: the truth is 0 in original units (minimum 0, and
    # an all-zero scaled column), so its NRMSE is undefined
    rng = np.random.Generator(np.random.PCG64(seed))
    minimum = rng.uniform(-100.0, 100.0, size=11)
    span = rng.uniform(1e-3, 1e3, size=11)
    span[:5][np.array(degenerate)] = 0.0
    pred = rng.uniform(-0.5, 1.5, size=(n, 5))
    truth = rng.uniform(-0.5, 1.5, size=(n, 5))
    minimum[:5][np.array(zero_mean)] = 0.0
    truth[:, np.array(zero_mean)] = 0.0
    scaler = ScalerParams(minimum=minimum, maximum=minimum + span)
    want = reference_report(pred, truth, scaler)
    if want is None:
        with pytest.raises(ValueError, match="zero-mean truth"):
            evaluate_forecasts(pred, truth, scaler)
        return
    r = evaluate_forecasts(pred, truth, scaler)
    got = (r.per_target_mae, r.per_target_rmse, r.per_target_nrmse, r.avg_mae,
           r.avg_rmse, r.avg_nrmse)
    assert got == want
    assert r.n_points == n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_blames_non_finite_predictions_not_the_truth(bad):
    # a diverged model predicts NaN; the error names the predictions
    truth = np.full((2, 5), 0.5)
    pred = truth.copy()
    pred[1, 0] = bad
    with pytest.raises(ValueError, match="predictions are not finite"):
        evaluate_forecasts(pred, truth, unit_scaler())


def test_evaluate_input_validation():
    s = unit_scaler()
    with pytest.raises(ValueError):
        evaluate_forecasts(np.zeros((2, 5)), np.zeros((3, 5)), s)
    with pytest.raises(ValueError):
        evaluate_forecasts(np.zeros((2, 4)), np.zeros((2, 4)), s)
    with pytest.raises(ValueError):
        evaluate_forecasts(np.zeros((0, 5)), np.zeros((0, 5)), s)
