"""Shared fixtures for the test suite."""

import numpy as np

from fedcast import federation
from fedcast.dataio import FEATURES, TimeSeriesDataset, WindowedDataset
from fedcast.nn.params import Layout, ParameterVector


def make_dataset(values, client_id="c0", features=None, start="2018-01-01T00:00:00"):
    """Wrap a (n, d) array with 2-minute timestamps."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if features is None:
        features = FEATURES if values.shape[1] == len(FEATURES) else tuple(
            f"f{i}" for i in range(values.shape[1])
        )
    stamps = np.datetime64(start, "s") + np.arange(len(values)) * np.timedelta64(
        120, "s"
    )
    return TimeSeriesDataset(
        client_id=client_id, timestamps=stamps, values=values, features=tuple(features)
    )


def random_dataset(n, d=len(FEATURES), seed=0, client_id="c0"):
    rng = np.random.Generator(np.random.PCG64(seed))
    return make_dataset(rng.uniform(0.0, 10.0, size=(n, d)), client_id=client_id)


def zeros_like(layout: Layout) -> ParameterVector:
    """A parameter vector of the layout's size, all zeros."""
    return ParameterVector(np.zeros(layout.size, dtype=np.float64), layout)


def random_windows(m, window_size=10, d=len(FEATURES), seed=0, scale=1.0):
    """Random supervised windows, targets loosely tied to the last row."""
    rng = np.random.Generator(np.random.PCG64(seed))
    inputs = rng.uniform(0.0, scale, size=(m, window_size, d))
    targets = inputs[:, -1, :5] + 0.01 * rng.standard_normal((m, 5))
    return windows_of(inputs, targets)


def windows_of(inputs, targets):
    """The WindowedDataset whose window k is inputs[k] with target targets[k].

    Each window is its own series of T + 1 rows: its T input rows, then a
    row that holds its target in the first columns and zeros after them.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    m, size, d = inputs.shape
    series = np.zeros((m, size + 1, d))
    series[:, :size] = inputs
    series[:, size, : targets.shape[1]] = targets
    return WindowedDataset(
        series.reshape(m * (size + 1), d), np.arange(m) * (size + 1), size,
        n_targets=targets.shape[1],
    )


def nan_in_hidden_unit(monkeypatch, client_id, seed, unit=3):
    """Make one client's local training return NaN in one fc0.w hidden unit.

    The MLP's ReLU maps the unit's NaN pre-activation to +0.0, so its
    predictions, losses and validation scores stay finite.
    """
    real = federation.train_local
    target = federation.client_stream_seed(seed, client_id)

    def train_local(*args, **kwargs):
        report = real(*args, **kwargs)
        if kwargs["seed"] == target:
            report.params.view("fc0.w")[:, unit] = np.nan
        return report

    monkeypatch.setattr(federation, "train_local", train_local)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup_x |F_a(x) - F_b(x)|.

    Pure distribution distance, no p-value.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if len(a) == 0 or len(b) == 0:
        raise ValueError("KS statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    f_a = np.searchsorted(a, grid, side="right") / len(a)
    f_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(f_a - f_b)))


# The scalar metrics evaluate_forecasts once called per target: the bitwise
# reference for its target-major pass.

def mae(predictions: np.ndarray, truth: np.ndarray) -> float:
    """(1/n) sum |y_hat - y|."""
    predictions, truth = _paired(predictions, truth)
    return float(np.mean(np.abs(predictions - truth)))


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    """sqrt((1/n) sum (y_hat - y)^2)."""
    predictions, truth = _paired(predictions, truth)
    diff = predictions - truth
    return float(np.sqrt(np.mean(diff * diff)))


def nrmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    """RMSE / mean(truth); undefined (raises) when mean(truth) == 0."""
    predictions, truth = _paired(predictions, truth)
    denom = float(np.mean(truth))
    if denom == 0.0:
        raise ValueError("NRMSE is undefined for zero-mean ground truth")
    return rmse(predictions, truth) / denom


def _paired(predictions, truth) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if predictions.shape != truth.shape:
        raise ValueError(
            f"prediction/truth length mismatch: {predictions.shape} vs {truth.shape}"
        )
    if len(predictions) == 0:
        raise ValueError("cannot score zero points")
    return predictions, truth
