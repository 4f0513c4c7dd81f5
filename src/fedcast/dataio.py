"""Per-client trace ingestion and the preprocessing pipeline.

Each base station contributes one CSV trace: a timestamp column followed by
eleven numeric traffic features in a fixed schema order. Preprocessing runs
in a fixed order per client: missing-value cleansing, chronological 60/20/20
split, outlier flooring/capping fitted on the training split only, min-max
scaling (per-client or negotiated across clients), and sliding-window
supervision. Past ingest, each client works in one buffer that the stages
split into views, cap and scale in place; re-running the pipeline on the
same input yields bit-identical arrays.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from fedcast.schema import at_least, check, knob, one_of, read_if

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
    """A single client's multivariate series, as ingested or generated.

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
    """Supervised windows over one (n, d) series, addressed by start row.

    Window k is rows starts[k] .. starts[k] + window_size - 1 of series, and
    its target is the first n_targets features of the row after it. One
    client's starts are 0 .. n - window_size - 1; a pooled set concatenates
    client series and offsets each client's starts, so that no window
    crosses from one client into the next. No window is stored: inputs
    (m, T, d) and targets (m, n_targets) are read-only views of series when
    the starts are consecutive, and gathered copies otherwise; batch
    gathers the windows at any positions.
    """

    series: np.ndarray
    starts: np.ndarray
    window_size: int
    n_targets: int = N_TARGETS

    def __post_init__(self) -> None:
        series = self.series.view()
        series.flags.writeable = False
        object.__setattr__(self, "series", series)
        starts = np.asarray(self.starts, dtype=np.intp)
        object.__setattr__(self, "starts", starts)
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if series.ndim != 2 or starts.ndim != 1:
            raise DimensionError("series must be 2-D and starts 1-D")
        if starts.size and not (
            0 <= starts.min() and starts.max() + self.window_size < len(series)
        ):
            raise DataError("a window or its target row falls outside the series")

    @property
    def count(self) -> int:
        return len(self.starts)

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def inputs(self) -> np.ndarray:
        return self._select(self._windows)

    @property
    def targets(self) -> np.ndarray:
        return self._select(self.series[self.window_size :, : self.n_targets])

    def batch(self, index) -> tuple[np.ndarray, np.ndarray]:
        """Inputs and targets of the windows at positions index, gathered."""
        rows = self.starts[index]
        targets = self.series[rows + self.window_size, : self.n_targets]
        return self._windows[rows], targets

    @functools.cached_property
    def _windows(self) -> np.ndarray:
        """Every window of the series: window k is rows k..k+T-1."""
        (n, d), (row, col) = self.series.shape, self.series.strides
        size = self.window_size
        return np.lib.stride_tricks.as_strided(
            self.series, (max(0, n - size + 1), size, d), (row, row, col),
            writeable=False,
        )

    def _select(self, rows: np.ndarray) -> np.ndarray:
        """rows[starts]: a slice of rows when the starts run consecutively."""
        starts = self.starts
        if starts.size and starts[-1] - starts[0] == starts.size - 1 and (
            np.diff(starts) == 1
        ).all():
            return rows[starts[0] : starts[-1] + 1]
        return rows[starts]


@dataclass(frozen=True)
class ClientWindows:
    """Fully preprocessed, windowed splits for one client."""

    client_id: str
    train: WindowedDataset
    validation: WindowedDataset
    test: WindowedDataset
    scaler: ScalerParams


_WITH_FLOOD_CAP = read_if("use_flood_cap", bool)


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the per-client pipeline.

    per_client_percentiles overrides the (lower, upper) flooring/capping
    percentiles for individual clients, e.g. {"poblesec": (5.0, 95.0)}.
    scaling_scope: "local" scales each client by its own train min/max,
    "global" negotiates elementwise bounds across all clients first.
    """

    window_size: int = knob(10, at_least(1))
    use_flood_cap: bool = True
    lower_percentile: float = knob(10.0, reads=_WITH_FLOOD_CAP)
    upper_percentile: float = knob(90.0, reads=_WITH_FLOOD_CAP)
    per_client_percentiles: Mapping[str, tuple[float, float]] = knob(
        default_factory=dict, reads=_WITH_FLOOD_CAP
    )
    scaling_scope: str = knob("global", one_of(("local", "global")))

    def __post_init__(self) -> None:
        check(self)
        _check_percentiles(self.lower_percentile, self.upper_percentile)
        for cid, (lo, hi) in self.per_client_percentiles.items():
            try:
                _check_percentiles(lo, hi)
            except ValueError as exc:
                raise ValueError(f"per_client_percentiles {cid!r}: {exc}") from exc


def _check_percentiles(lower: float, upper: float) -> None:
    """0 < lower < upper < 100; the message starts with the field at fault.

    An upper bound in (0, 100) below the lower one is reported at the lower.
    """
    if not 0.0 < upper < 100.0:
        raise ValueError(f"upper_percentile must be in (0, 100), got {upper}")
    if not 0.0 < lower < upper:
        raise ValueError(
            f"lower_percentile must be in (0, upper_percentile = {upper}), "
            f"got {lower}"
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

    One csv.reader loop reads the file and checks each row as the reader
    yields it, so the first bad row raises SchemaError with its line number.
    Text that does not decode, or a field longer than csv.field_size_limit(),
    raises SchemaError where the reader meets it, header line included. The
    cells gathered are converted every _BLOCK_ROWS rows in one pass.
    """
    path = Path(path)
    stamps: list[str] = []
    cells: list[str] = []
    blocks: list[np.ndarray] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, expected a header row")
            if tuple(header[1:]) != FEATURES:
                raise SchemaError(
                    f"{path}: feature columns {header[1:]} do not match the "
                    f"expected schema {list(FEATURES)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != N_FEATURES + 1:
                    raise SchemaError(
                        f"{path}:{lineno}: expected {N_FEATURES + 1} columns, "
                        f"got {len(row)}"
                    )
                try:
                    datetime.fromisoformat(row[0])
                except ValueError as exc:
                    raise SchemaError(
                        f"{path}:{lineno}: bad timestamp {row[0]!r}"
                    ) from exc
                stamps.append(row[0])
                cells += row[1:]
                if len(cells) == _BLOCK_ROWS * N_FEATURES:
                    blocks.append(_block_values(cells))
                    cells = []
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not a text file: {exc}") from exc
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    blocks.append(_block_values(cells))
    return TimeSeriesDataset(
        client_id=path.stem,
        timestamps=_datetime64(stamps),
        values=np.concatenate(blocks),
    )


# Rows converted per block: bounds the transient str objects of a parse.
_BLOCK_ROWS = 64


def _block_values(cells: list[str]) -> np.ndarray:
    """Feature cells of whole rows as an (n, N_FEATURES) array of _parse_cell."""
    try:
        # float(cell) equals _parse_cell(cell) wherever it does not raise
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = np.fromiter(map(_parse_cell, cells), np.float64, len(cells))
    return values.reshape(-1, N_FEATURES)


def _datetime64(stamps: list[str]) -> np.ndarray:
    """Stamps that datetime.fromisoformat reads, as datetime64[s].

    Stamps with save_csv's separators are cast as strings in one call, and
    the cast is kept if it writes them back unchanged. Any other form, such
    as one with a zone designator (which np.datetime64 warns about), is
    converted from the datetimes that fromisoformat reads.
    """
    if {(len(s), s[4:17:3]) for s in stamps} <= {(19, "--T::")}:
        try:
            timestamps = np.array(stamps, dtype="datetime64[s]")
            if np.datetime_as_string(timestamps, unit="s").tolist() == stamps:
                return timestamps
        except ValueError:  # a stamp that datetime reads and NumPy does not
            pass
    return np.array(list(map(datetime.fromisoformat, stamps)), dtype="datetime64[s]")


def _parse_cell(cell: str) -> float:
    cell = cell.strip()
    if not cell:
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def save_csv(dataset: TimeSeriesDataset, path: str | Path) -> None:
    """Write a trace in the same layout load_csv reads.

    path is replaced only once the whole trace is written, so an interrupted
    write leaves the previous file, not a truncated one.
    """
    path = Path(path)
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time",) + tuple(dataset.features))
        for stamp, row in zip(dataset.timestamps, dataset.values):
            iso = np.datetime_as_string(stamp, unit="s")
            writer.writerow([iso] + [repr(float(v)) for v in row])


@contextlib.contextmanager
def _atomic_open(path: Path, mode: str = "w", **kwargs):
    """open(path, mode) that replaces path only once the block completes.

    The content goes to a temporary file in the same directory, which
    os.replace then moves over path. A block that raises leaves path as it
    was and removes the temporary file.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def clean_missing(values: np.ndarray) -> np.ndarray:
    """A copy of values with NaN/inf cells set to 0.0; finite cells unchanged."""
    return np.where(np.isfinite(values), values, 0.0)


def split_chronological(values: np.ndarray) -> list[np.ndarray]:
    """Row views of floor(0.6 n) train, floor(0.2 n) validation, rest test.

    Order is preserved and the three views tile values, so a stage that
    writes to one of them writes to values.
    """
    n = len(values)
    if n < 5:
        raise TooShortError(f"need at least 5 rows to split, have {n}")
    n_train = int(np.floor(TRAIN_FRACTION * n))
    n_val = int(np.floor(VALIDATION_FRACTION * n))
    return np.split(values, [n_train, n_train + n_val])


def fit_flood_cap(
    train: np.ndarray, lower_percentile: float, upper_percentile: float
) -> FloodCapParams:
    """Fit per-feature clamp bounds from the (n, d) rows of a TRAINING split.

    Percentiles use sorted linear interpolation (numpy default). Fitting on
    anything but the training segment leaks the future into the bounds, so
    callers hand this the train split only.
    """
    _check_percentiles(lower_percentile, upper_percentile)
    if len(train) == 0:
        raise TooShortError("cannot fit percentiles on 0 rows")
    cuts = np.percentile(train, [lower_percentile, upper_percentile], axis=0)
    return FloodCapParams(lower=cuts[0], upper=cuts[1])


def _check_features(values: np.ndarray, bounds: np.ndarray) -> None:
    if values.shape[1] != len(bounds):
        raise DimensionError(
            f"array has {values.shape[1]} features, the bounds have {len(bounds)}"
        )


def apply_flood_cap(values: np.ndarray, params: FloodCapParams) -> None:
    """Clamp every feature of values into [lower, upper] in place. Idempotent."""
    _check_features(values, params.lower)
    np.clip(values, params.lower, params.upper, out=values)


def fit_scaler(train: np.ndarray) -> ScalerParams:
    """Per-feature min/max of the (n, d) rows of a training split (local scope)."""
    if len(train) == 0:
        raise TooShortError("cannot fit a scaler on 0 rows")
    return ScalerParams(minimum=train.min(axis=0), maximum=train.max(axis=0))


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


def scale_array(values: np.ndarray, scaler: ScalerParams) -> None:
    """Min-max scale each feature in place; degenerate ones (min == max) map to 0.

    Values outside the fitted range (validation/test rows can exceed the
    train bounds) land outside [0, 1]; that is intended.
    """
    _check_features(values, scaler.minimum)
    span = scaler.maximum - scaler.minimum
    values -= scaler.minimum
    values /= np.where(span > 0, span, 1.0)
    values[:, ~(span > 0)] = 0.0


def inverse_scale_array(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    """Undo scale_array. Degenerate features return the fitted minimum."""
    _check_features(values, scaler.minimum)
    span = scaler.maximum - scaler.minimum
    return values * span + scaler.minimum


def target_scaler(scaler: ScalerParams) -> ScalerParams:
    """Restrict fitted bounds to the five target features."""
    return ScalerParams(minimum=scaler.minimum[:N_TARGETS],
                        maximum=scaler.maximum[:N_TARGETS])


def make_windows(values: np.ndarray, window_size: int) -> WindowedDataset:
    """Sliding supervision over (n, d) rows: window k = rows [k, k+T),
    target = row k+T's first five features. A segment of n rows yields
    max(0, n - T) pairs; windows never cross segment boundaries because
    each segment is windowed separately.

    The result keeps values as its series, not a copy, so inputs and
    targets are read-only views of it: window k is rows k..k+T-1, which are
    contiguous there, so the windows cost the series once rather than T
    times. Fancy indexing (a shuffled batch) or np.ascontiguousarray gives a
    private copy.
    """
    m = max(0, len(values) - window_size)
    return WindowedDataset(values, np.arange(m), window_size)


def concat_windows(parts: Sequence[WindowedDataset]) -> WindowedDataset:
    """Pool windows from several clients (centralized setting).

    The pooled series is the parts' series end to end, and each part's
    starts are offset by the rows before it, so every series is kept once
    and no window is copied. A single part is returned as it is.
    """
    if not parts:
        raise DataError("nothing to concatenate")
    sizes = {p.window_size for p in parts}
    if len(sizes) != 1:
        raise DataError(f"window sizes differ: {sorted(sizes)}")
    if len(parts) == 1:
        return parts[0]
    offsets = np.cumsum([0] + [len(p.series) for p in parts[:-1]])
    return replace(
        parts[0],
        series=np.concatenate([p.series for p in parts]),
        starts=np.concatenate([p.starts + o for p, o in zip(parts, offsets)]),
    )


def preprocess_clients(
    datasets: Sequence[TimeSeriesDataset], config: PreprocessConfig
) -> list[ClientWindows]:
    """Run the full pipeline over a cohort of clients.

    Stage order per client: clean -> split -> flood/cap (fit on train, apply
    to train only) -> scale -> window. With scaling_scope="global" the
    per-client train-fitted bounds are negotiated elementwise across the
    cohort before any scaling happens; with "local" each client uses its own.
    A client's splits are views of the one buffer clean_missing copies it to.
    The clients come back in client-id order, whatever order they are listed
    in, so sampling, pooling and every per-client loop see one order.
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
    datasets = sorted(datasets, key=lambda ds: ds.client_id)

    splits: list[tuple[np.ndarray, list[np.ndarray]]] = []
    scalers: list[ScalerParams] = []
    for ds in datasets:
        values = clean_missing(ds.values)
        try:
            parts = split_chronological(values)
        except TooShortError as exc:
            raise TooShortError(f"{ds.client_id}: {exc}") from None
        if config.use_flood_cap:
            lo, hi = config.per_client_percentiles.get(
                ds.client_id,
                (config.lower_percentile, config.upper_percentile),
            )
            apply_flood_cap(parts[0], fit_flood_cap(parts[0], lo, hi))
        splits.append((values, parts))
        scalers.append(fit_scaler(parts[0]))

    if config.scaling_scope == "global":
        scalers = [negotiate_global_scaler(scalers)] * len(datasets)

    clients = []
    for ds, (values, parts), scaler in zip(datasets, splits, scalers):
        scale_array(values, scaler)
        clients.append(ClientWindows(
            ds.client_id,
            *(make_windows(part, config.window_size) for part in parts),
            scaler=scaler,
        ))
    return clients
