"""Per-client trace ingestion and the preprocessing pipeline.

Each base station contributes one CSV trace: a timestamp column followed by
eleven numeric traffic features in a fixed schema order. Preprocessing runs
in a fixed order per client: missing-value cleansing, chronological 60/20/20
split, outlier flooring/capping fitted on the training split only, min-max
scaling (per-client or negotiated across clients), and sliding-window
supervision. Every function here is pure and deterministic: re-running the
pipeline on the same input yields bit-identical arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from datetime import datetime
from itertools import islice, repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

FEATURES: tuple[str, ...] = (
    "DownLink",
    "UpLink",
    "RNTI Count",
    "RB Up",
    "RB Down",
    "RB Up Var",
    "RB Down Var",
    "MCS Up",
    "MCS Down",
    "MCS Up Var",
    "MCS Down Var",
)
N_FEATURES = len(FEATURES)
# The first five features are the forecast targets.
N_TARGETS = 5
TRAIN_FRACTION = 0.6
VALIDATION_FRACTION = 0.2


class DataError(ValueError):
    """Base class for malformed input data."""


class SchemaError(DataError):
    """Header or column layout does not match the expected feature schema."""


class TimeOrderError(DataError):
    """Timestamps are not strictly increasing."""


class TooShortError(DataError):
    """Series has too few rows for the requested operation."""


class DimensionError(DataError):
    """Feature dimension of an argument does not match fitted parameters."""


@dataclass(frozen=True)
class TimeSeriesDataset:
    """A single client's multivariate series.

    values is (n, d) float64; timestamps is (n,) datetime64[s], strictly
    increasing and aligned row-for-row with values.
    """

    client_id: str
    timestamps: np.ndarray
    values: np.ndarray
    features: tuple[str, ...] = FEATURES

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise DimensionError("values must be 2-D (rows x features)")
        if self.values.shape[1] != len(self.features):
            raise DimensionError(
                f"values has {self.values.shape[1]} columns, "
                f"schema has {len(self.features)}"
            )
        if len(self.timestamps) != len(self.values):
            raise DataError("timestamps and values row counts differ")
        if len(self.timestamps) > 1:
            deltas = np.diff(self.timestamps)
            if not (deltas > np.timedelta64(0, "s")).all():
                raise TimeOrderError(
                    f"{self.client_id}: timestamps must be strictly increasing"
                )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SplitDataset:
    """Chronological train/validation/test partition of one client's series."""

    train: TimeSeriesDataset
    validation: TimeSeriesDataset
    test: TimeSeriesDataset


@dataclass(frozen=True)
class FloodCapParams:
    """Per-feature (d,) clamp bounds: percentile cut points of a training split."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min-max bounds."""

    minimum: np.ndarray
    maximum: np.ndarray


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised windows: inputs (m, T, d) and next-step targets (m, 5)."""

    inputs: np.ndarray
    targets: np.ndarray

    @property
    def count(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class ClientWindows:
    """Fully preprocessed, windowed splits for one client."""

    client_id: str
    train: WindowedDataset
    validation: WindowedDataset
    test: WindowedDataset
    scaler: ScalerParams


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the per-client pipeline.

    per_client_percentiles overrides the (lower, upper) flooring/capping
    percentiles for individual clients, e.g. {"poblesec": (5.0, 95.0)}.
    scaling_scope: "local" scales each client by its own train min/max,
    "global" negotiates elementwise bounds across all clients first.
    """

    window_size: int = 10
    use_flood_cap: bool = True
    lower_percentile: float = 10.0
    upper_percentile: float = 90.0
    per_client_percentiles: Mapping[str, tuple[float, float]] = field(
        default_factory=dict
    )
    scaling_scope: str = "global"

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.scaling_scope not in ("local", "global"):
            raise ValueError(f"unknown scaling_scope {self.scaling_scope!r}")
        _check_percentiles(self.lower_percentile, self.upper_percentile)
        if self.per_client_percentiles and not self.use_flood_cap:
            raise ValueError(
                "per_client_percentiles has no effect with use_flood_cap false"
            )
        for cid, (lo, hi) in self.per_client_percentiles.items():
            try:
                _check_percentiles(lo, hi)
            except ValueError as exc:
                raise ValueError(f"{cid}: {exc}") from exc


def _check_percentiles(lower: float, upper: float) -> None:
    if not (0.0 < lower < upper < 100.0):
        raise ValueError(
            f"percentiles must satisfy 0 < lower < upper < 100, "
            f"got ({lower}, {upper})"
        )


def load_csv(path: str | Path) -> TimeSeriesDataset:
    """Read one client trace; the client id is the file stem.

    Trace CSV format: a header row whose columns after the first (the
    timestamp column, any name) equal FEATURES exactly, then one row per
    observation: a timestamp, then the eleven feature values. save_csv
    writes timestamps as YYYY-MM-DDTHH:MM:SS; any form that
    datetime.fromisoformat reads is accepted. Lines end in LF or CRLF, and
    blank lines are skipped. Cells that are blank or not a number become NaN
    and are handled later by clean_missing.

    A file in the form save_csv writes is parsed a block of rows at a time,
    each block's cells in one pass; any other file is read row by row, with
    the same results and the same errors.
    """
    path = Path(path)
    block = _read_block(path)
    timestamps, values = block if block is not None else _read_rows(path)
    return TimeSeriesDataset(client_id=path.stem, timestamps=timestamps, values=values)


# Rows converted per block: bounds the transient str objects of a parse.
_BLOCK_ROWS = 64
# Byte form of a canonical timestamp: "0" marks a digit, other bytes are fixed.
_STAMP_FORM = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_STAMP_DIGIT = _STAMP_FORM == ord("0")
_FIRST_STAMP = np.datetime64("0001-01-01T00:00:00", "s")  # datetime's year 1


def _read_block(path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """(timestamps, values) of a trace parsed a block of rows at a time, or None.

    None means the file holds something this parse does not model: text
    that does not decode, a quote, a lone CR, a NUL (which csv.reader
    rejects before Python 3.11), a field longer than csv.field_size_limit(),
    a header other than FEATURES, a row without N_FEATURES + 1 columns, or a
    timestamp that is not canonical. _read_rows then reads the file as the
    csv module does.
    """
    stamps: list[str] = []
    blocks = [np.empty((0, N_FEATURES))]
    try:
        with open(path, newline="") as fh:
            header = _block_lines(fh.readline())
            if header is None or header[0].split(",")[1:] != list(FEATURES):
                return None
            while chunk := list(islice(fh, _BLOCK_ROWS)):
                lines = _block_lines("".join(chunk))
                if lines is None:
                    return None
                rows = [line for line in lines if line]
                if set(map(str.count, rows, repeat(","))) - {N_FEATURES}:
                    return None
                if not rows:
                    continue
                cells = ",".join(rows).split(",")
                stamps += cells[:: N_FEATURES + 1]
                del cells[:: N_FEATURES + 1]
                blocks.append(_block_values(cells))
    except UnicodeDecodeError:
        return None
    timestamps = _canonical_timestamps(stamps)
    if timestamps is None:
        return None
    return timestamps, np.concatenate(blocks)


def _block_lines(text: str) -> list[str] | None:
    """text split at its LF or CRLF line endings, or None."""
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\x00" in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _block_values(cells: list[str]) -> np.ndarray:
    """(rows, N_FEATURES) values of a block's numeric cells."""
    try:
        # float(cell) equals _parse_cell(cell) wherever it does not raise
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = np.array([
            _parse_row(cells[i : i + N_FEATURES])
            for i in range(0, len(cells), N_FEATURES)
        ])
    return values.reshape(-1, N_FEATURES)


def _canonical_timestamps(stamps: list[str]) -> np.ndarray | None:
    """stamps as datetime64[s] if each is an ASCII YYYY-MM-DDTHH:MM:SS that
    np.datetime_as_string writes back unchanged, else None.

    The byte form keeps zone designators, which np.datetime64 parses with a
    warning, away from the parser; year 0 parses but datetime rejects it.
    """
    if set(map(len, stamps)) - {len(_STAMP_FORM)} or not "".join(stamps).isascii():
        return None
    form = np.array(stamps, dtype=np.bytes_).view(np.uint8)
    form = form.reshape(-1, len(_STAMP_FORM))
    digits = form[:, _STAMP_DIGIT]
    if not (
        (form[:, ~_STAMP_DIGIT] == _STAMP_FORM[~_STAMP_DIGIT]).all()
        and ((digits >= ord("0")) & (digits <= ord("9"))).all()
    ):
        return None
    try:
        timestamps = np.array(stamps, dtype="datetime64[s]")
    except ValueError:  # a month, day, hour, minute or second out of range
        return None
    if not (timestamps >= _FIRST_STAMP).all():
        return None
    if np.datetime_as_string(timestamps, unit="s").tolist() != stamps:
        return None
    return timestamps


def _read_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps, values) of a trace read row by row with csv.reader."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row")
            if tuple(header[1:]) != FEATURES:
                raise SchemaError(
                    f"{path}: feature columns {header[1:]} do not match the "
                    f"expected schema {list(FEATURES)}"
                )
            stamps: list[datetime] = []
            rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != N_FEATURES + 1:
                    raise SchemaError(
                        f"{path}:{lineno}: expected {N_FEATURES + 1} columns, "
                        f"got {len(row)}"
                    )
                try:
                    stamps.append(datetime.fromisoformat(row[0]))
                except ValueError as exc:
                    raise SchemaError(
                        f"{path}:{lineno}: bad timestamp {row[0]!r}"
                    ) from exc
                rows.append([_parse_cell(cell) for cell in row[1:]])
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file: {exc}") from exc
    values = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.empty((0, N_FEATURES), dtype=np.float64)
    )
    return np.array(stamps, dtype="datetime64[s]"), values


def _parse_row(cells: list[str]) -> list[float]:
    try:
        return list(map(float, cells))
    except ValueError:
        return [_parse_cell(cell) for cell in cells]


def _parse_cell(cell: str) -> float:
    cell = cell.strip()
    if not cell:
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def save_csv(dataset: TimeSeriesDataset, path: str | Path) -> None:
    """Write a trace in the same layout load_csv reads."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time",) + tuple(dataset.features))
        for stamp, row in zip(dataset.timestamps, dataset.values):
            iso = np.datetime_as_string(stamp, unit="s")
            writer.writerow([iso] + [repr(float(v)) for v in row])


def clean_missing(dataset: TimeSeriesDataset) -> TimeSeriesDataset:
    """Replace NaN/inf cells with 0.0; finite values pass through unchanged."""
    values = np.where(np.isfinite(dataset.values), dataset.values, 0.0)
    return replace(dataset, values=values)


def split_chronological(dataset: TimeSeriesDataset) -> SplitDataset:
    """Partition into floor(0.6 n) train, floor(0.2 n) validation, rest test.

    Order is preserved; the three segments concatenate back to the source.
    """
    n = len(dataset)
    if n < 5:
        raise TooShortError(
            f"{dataset.client_id}: need at least 5 rows to split, have {n}"
        )
    n_train = int(np.floor(TRAIN_FRACTION * n))
    n_val = int(np.floor(VALIDATION_FRACTION * n))

    def segment(lo: int, hi: int) -> TimeSeriesDataset:
        return replace(
            dataset,
            timestamps=dataset.timestamps[lo:hi],
            values=dataset.values[lo:hi].copy(),
        )

    return SplitDataset(
        train=segment(0, n_train),
        validation=segment(n_train, n_train + n_val),
        test=segment(n_train + n_val, n),
    )


def fit_flood_cap(
    train: TimeSeriesDataset, lower_percentile: float, upper_percentile: float
) -> FloodCapParams:
    """Fit per-feature clamp bounds from a TRAINING split.

    Percentiles use sorted linear interpolation (numpy default). Fitting on
    anything but the training segment leaks the future into the bounds, so
    callers hand this the train split only.
    """
    _check_percentiles(lower_percentile, upper_percentile)
    if len(train) == 0:
        raise TooShortError(f"{train.client_id}: cannot fit percentiles on 0 rows")
    cuts = np.percentile(
        train.values, [lower_percentile, upper_percentile], axis=0
    )
    return FloodCapParams(lower=cuts[0], upper=cuts[1])


def apply_flood_cap(
    dataset: TimeSeriesDataset, params: FloodCapParams
) -> TimeSeriesDataset:
    """Clamp every feature into [lower, upper]. Idempotent."""
    if dataset.values.shape[1] != len(params.lower):
        raise DimensionError(
            f"dataset has {dataset.values.shape[1]} features, "
            f"clamp bounds have {len(params.lower)}"
        )
    values = np.clip(dataset.values, params.lower, params.upper)
    return replace(dataset, values=values)


def fit_scaler(train: TimeSeriesDataset) -> ScalerParams:
    """Per-feature min/max from a training split (local scope)."""
    if len(train) == 0:
        raise TooShortError(f"{train.client_id}: cannot fit a scaler on 0 rows")
    return ScalerParams(minimum=train.values.min(axis=0),
                        maximum=train.values.max(axis=0))


def negotiate_global_scaler(scalers: Sequence[ScalerParams]) -> ScalerParams:
    """Elementwise min of minima / max of maxima across clients.

    This is the only cross-client exchange in preprocessing: each client
    shares its locally fitted bounds, never raw data.
    """
    if not scalers:
        raise DataError("cannot negotiate a scaler from zero clients")
    d = len(scalers[0].minimum)
    for sc in scalers:
        if len(sc.minimum) != d or len(sc.maximum) != d:
            raise DimensionError("scaler dimensions differ across clients")
        if (sc.minimum > sc.maximum).any():
            raise DataError("scaler has min > max for some feature")
    minimum = np.min([sc.minimum for sc in scalers], axis=0)
    maximum = np.max([sc.maximum for sc in scalers], axis=0)
    return ScalerParams(minimum=minimum, maximum=maximum)


def scale(dataset: TimeSeriesDataset, scaler: ScalerParams) -> TimeSeriesDataset:
    """Min-max scale each feature; degenerate features (min == max) map to 0.

    Values outside the fitted range (validation/test rows can exceed the
    train bounds) land outside [0, 1]; that is intended.
    """
    values = scale_array(dataset.values, scaler)
    return replace(dataset, values=values)


def scale_array(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    if values.shape[1] != len(scaler.minimum):
        raise DimensionError(
            f"array has {values.shape[1]} features, scaler has {len(scaler.minimum)}"
        )
    span = scaler.maximum - scaler.minimum
    safe = np.where(span > 0, span, 1.0)
    scaled = (values - scaler.minimum) / safe
    return np.where(span > 0, scaled, 0.0)


def inverse_scale_array(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    """Undo scale_array. Degenerate features return the fitted minimum."""
    if values.shape[1] != len(scaler.minimum):
        raise DimensionError(
            f"array has {values.shape[1]} features, scaler has {len(scaler.minimum)}"
        )
    span = scaler.maximum - scaler.minimum
    return values * span + scaler.minimum


def target_scaler(scaler: ScalerParams) -> ScalerParams:
    """Restrict fitted bounds to the five target features."""
    return ScalerParams(minimum=scaler.minimum[:N_TARGETS],
                        maximum=scaler.maximum[:N_TARGETS])


def make_windows(dataset: TimeSeriesDataset, window_size: int) -> WindowedDataset:
    """Sliding supervision: window k = rows [k, k+T), target = row k+T's
    first five features. A segment of n rows yields max(0, n - T) pairs;
    windows never cross segment boundaries because each segment is windowed
    separately.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    values = dataset.values
    n, d = values.shape
    m = max(0, n - window_size)
    if m == 0:
        return WindowedDataset(
            inputs=np.empty((0, window_size, d), dtype=np.float64),
            targets=np.empty((0, N_TARGETS), dtype=np.float64),
        )
    slid = np.lib.stride_tricks.sliding_window_view(values, window_size, axis=0)
    inputs = slid[:m].transpose(0, 2, 1).copy()
    targets = values[window_size:, :N_TARGETS].copy()
    return WindowedDataset(inputs=inputs, targets=targets)


def concat_windows(parts: Sequence[WindowedDataset]) -> WindowedDataset:
    """Pool windows from several clients (centralized setting)."""
    if not parts:
        raise DataError("nothing to concatenate")
    sizes = {p.inputs.shape[1] for p in parts}
    if len(sizes) != 1:
        raise DataError(f"window sizes differ: {sorted(sizes)}")
    return WindowedDataset(
        inputs=np.concatenate([p.inputs for p in parts], axis=0),
        targets=np.concatenate([p.targets for p in parts], axis=0),
    )


def preprocess_clients(
    datasets: Sequence[TimeSeriesDataset], config: PreprocessConfig
) -> list[ClientWindows]:
    """Run the full pipeline over a cohort of clients.

    Stage order per client: clean -> split -> flood/cap (fit on train, apply
    to train only) -> scale -> window. With scaling_scope="global" the
    per-client train-fitted bounds are negotiated elementwise across the
    cohort before any scaling happens; with "local" each client uses its own.
    """
    if not datasets:
        raise DataError("no clients to preprocess")
    ids = [ds.client_id for ds in datasets]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate client ids: {ids}")
    unknown = sorted(set(config.per_client_percentiles) - set(ids))
    if unknown:
        raise DataError(
            f"preprocessing.per_client_percentiles names clients not in the "
            f"cohort: {unknown}"
        )

    splits: list[SplitDataset] = []
    local_scalers: list[ScalerParams] = []
    for ds in datasets:
        split = split_chronological(clean_missing(ds))
        if config.use_flood_cap:
            lo, hi = config.per_client_percentiles.get(
                ds.client_id,
                (config.lower_percentile, config.upper_percentile),
            )
            fc = fit_flood_cap(split.train, lo, hi)
            split = SplitDataset(
                train=apply_flood_cap(split.train, fc),
                validation=split.validation,
                test=split.test,
            )
        splits.append(split)
        local_scalers.append(fit_scaler(split.train))

    if config.scaling_scope == "global":
        shared = negotiate_global_scaler(local_scalers)
        scalers = [shared] * len(datasets)
    else:
        scalers = local_scalers

    out: list[ClientWindows] = []
    for ds, split, scaler in zip(datasets, splits, scalers):
        out.append(
            ClientWindows(
                client_id=ds.client_id,
                train=make_windows(scale(split.train, scaler), config.window_size),
                validation=make_windows(
                    scale(split.validation, scaler), config.window_size
                ),
                test=make_windows(scale(split.test, scaler), config.window_size),
                scaler=scaler,
            )
        )
    return out
