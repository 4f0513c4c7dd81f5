"""Forecast error metrics, in original units.

evaluate_forecasts inverse-scales predictions and truth once each, lays them
out target-major as C-contiguous (5, n) rows, and takes the MAE, the RMSE,
the truth mean and NRMSE = RMSE / mean(truth) of all five targets as one
reduction each along the rows; a contiguous row sums as a lone column would.

The first two targets are the link-traffic series (TRAFFIC_TARGETS), whose
NRMSE the headline avg_nrmse averages, so each needs a nonzero mean over the
scored windows: zero_mean_traffic_targets names those that lack it, for
evaluate_forecasts and for the runner's check before training. Another
target's NRMSE is None for zero-mean truth, written as null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from fedcast.dataio import (
    FEATURES, N_TARGETS, ScalerParams, inverse_scale_array, target_scaler,
)

TRAFFIC_TARGETS = FEATURES[:2]


def zero_mean_traffic_targets(truth: np.ndarray, scaler: ScalerParams) -> list[str]:
    """Names of the traffic targets whose original-unit mean over truth is 0.

    truth is (n, >= 2) scaled targets. Only the traffic columns are
    inverse-scaled, each to inverse_scale_array's values bit for bit.
    """
    span = scaler.maximum - scaler.minimum
    return [
        name for j, name in enumerate(TRAFFIC_TARGETS)
        if np.mean(truth[:, j] * span[j] + scaler.minimum[j]) == 0.0
    ]


@dataclass(frozen=True)
class MetricReport:
    """Original-unit scores for one model on one client's windows.

    avg_* average over all five targets; avg_nrmse averages the traffic
    targets only. A per-target NRMSE is None where the truth mean is zero.
    """

    per_target_mae: tuple[float, ...]
    per_target_rmse: tuple[float, ...]
    per_target_nrmse: tuple[Optional[float], ...]
    avg_mae: float
    avg_rmse: float
    avg_nrmse: float
    n_points: int


def evaluate_forecasts(
    predictions: np.ndarray, truth: np.ndarray, scaler: ScalerParams
) -> MetricReport:
    """Score scaled-space predictions against scaled-space truth.

    Both matrices are (n, 5); the scaler's first five features map them back
    to original units first. Predictions must be finite, and the traffic
    targets must have nonzero truth means.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape}, truth {truth.shape}"
        )
    if predictions.ndim != 2 or predictions.shape[1] != N_TARGETS:
        raise ValueError(f"expected (n, {N_TARGETS}) matrices, got {predictions.shape}")
    if len(predictions) == 0:
        raise ValueError("cannot score zero points")
    if not np.isfinite(predictions).all():
        raise ValueError("predictions are not finite: the model diverged")
    if zero_mean_traffic_targets(truth, scaler):
        raise ValueError("NRMSE is undefined: a traffic target has zero-mean truth")
    t_scaler = target_scaler(scaler)
    pred_rows, truth_rows = (
        np.ascontiguousarray(inverse_scale_array(m, t_scaler).T)
        for m in (predictions, truth)
    )
    diff = pred_rows - truth_rows
    maes = np.mean(np.abs(diff), axis=1)
    rmses = np.sqrt(np.mean(diff * diff, axis=1))
    means = np.mean(truth_rows, axis=1)
    nrmses = tuple(r / m if m != 0.0 else None
                   for r, m in zip(rmses.tolist(), means.tolist()))
    return MetricReport(
        per_target_mae=tuple(maes.tolist()),
        per_target_rmse=tuple(rmses.tolist()),
        per_target_nrmse=nrmses,
        avg_mae=float(np.mean(maes)),
        avg_rmse=float(np.mean(rmses)),
        avg_nrmse=float(np.mean(nrmses[: len(TRAFFIC_TARGETS)])),
        n_points=len(predictions),
    )
