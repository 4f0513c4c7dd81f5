"""Forecast error metrics.

MAE and RMSE follow their textbook definitions; NRMSE divides RMSE by the
mean of the ground truth, so it is only defined when that mean is nonzero.
Reported metrics live in ORIGINAL units: evaluate_forecasts inverse-scales
predictions and truth before measuring anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedcast.dataio import N_TARGETS, ScalerParams, inverse_scale_array, target_scaler


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


@dataclass(frozen=True)
class MetricReport:
    """Original-unit scores for one model on one client's windows.

    avg_* average over all five targets; avg_nrmse averages the first two
    targets only (the two link-traffic series).
    """

    per_target_mae: tuple[float, ...]
    per_target_rmse: tuple[float, ...]
    per_target_nrmse: tuple[float, ...]
    avg_mae: float
    avg_rmse: float
    avg_nrmse: float
    n_points: int


def evaluate_forecasts(
    predictions: np.ndarray, truth: np.ndarray, scaler: ScalerParams
) -> MetricReport:
    """Score scaled-space predictions against scaled-space truth.

    Both matrices are (n, 5); the scaler's first five features map them back
    to original units first. Predictions must be finite. Per-target NRMSE is
    NaN for a zero-mean target, but the two traffic targets that feed
    avg_nrmse must have nonzero means.
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
    t_scaler = target_scaler(scaler)
    pred_units = inverse_scale_array(predictions, t_scaler)
    truth_units = inverse_scale_array(truth, t_scaler)

    maes, rmses, nrmses = [], [], []
    for j in range(N_TARGETS):
        p, t = pred_units[:, j], truth_units[:, j]
        maes.append(mae(p, t))
        rmses.append(rmse(p, t))
        try:
            nrmses.append(nrmse(p, t))
        except ValueError:  # zero-mean truth
            nrmses.append(float("nan"))
    if np.isnan(nrmses[:2]).any():
        raise ValueError("NRMSE is undefined: a traffic target has zero-mean truth")
    return MetricReport(
        per_target_mae=tuple(maes),
        per_target_rmse=tuple(rmses),
        per_target_nrmse=tuple(nrmses),
        avg_mae=float(np.mean(maes)),
        avg_rmse=float(np.mean(rmses)),
        avg_nrmse=float(np.mean(nrmses[:2])),
        n_points=len(predictions),
    )
