"""Shared fixtures for the test suite."""

import numpy as np

from fedcast.dataio import FEATURES, TimeSeriesDataset, WindowedDataset


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


def random_windows(m, window_size=10, d=len(FEATURES), seed=0, scale=1.0):
    """Random supervised windows, targets loosely tied to the last row."""
    rng = np.random.Generator(np.random.PCG64(seed))
    inputs = rng.uniform(0.0, scale, size=(m, window_size, d))
    targets = inputs[:, -1, :5] + 0.01 * rng.standard_normal((m, 5))
    return WindowedDataset(inputs=inputs, targets=targets)
