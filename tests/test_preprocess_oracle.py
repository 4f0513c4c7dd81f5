"""preprocess_clients against the dataset-per-stage chain it must match.

`oracle_preprocess` is preprocess_clients as it was when every stage took
and returned a TimeSeriesDataset: clean_missing, split_chronological (three
copied segments), apply_flood_cap and scale each built a new dataset, and
make_windows windowed each scaled segment. The pipeline now works in one
buffer per client, splits it into views and caps and scales in place; every
cohort must give the same exception type and message under both, or
bit-equal series, equal starts and bit-equal scaler bounds.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.dataio import (
    N_FEATURES,
    TRAIN_FRACTION,
    VALIDATION_FRACTION,
    ClientWindows,
    DataError,
    DimensionError,
    FloodCapParams,
    PreprocessConfig,
    ScalerParams,
    TimeSeriesDataset,
    TooShortError,
    WindowedDataset,
    _check_percentiles,
    preprocess_clients,
)
from helpers import make_dataset


@dataclass(frozen=True)
class OracleSplit:
    train: TimeSeriesDataset
    validation: TimeSeriesDataset
    test: TimeSeriesDataset


def oracle_clean_missing(dataset: TimeSeriesDataset) -> TimeSeriesDataset:
    values = np.where(np.isfinite(dataset.values), dataset.values, 0.0)
    return replace(dataset, values=values)


def oracle_split_chronological(dataset: TimeSeriesDataset) -> OracleSplit:
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

    return OracleSplit(
        train=segment(0, n_train),
        validation=segment(n_train, n_train + n_val),
        test=segment(n_train + n_val, n),
    )


def oracle_fit_flood_cap(
    train: TimeSeriesDataset, lower_percentile: float, upper_percentile: float
) -> FloodCapParams:
    _check_percentiles(lower_percentile, upper_percentile)
    if len(train) == 0:
        raise TooShortError(f"{train.client_id}: cannot fit percentiles on 0 rows")
    cuts = np.percentile(
        train.values, [lower_percentile, upper_percentile], axis=0
    )
    return FloodCapParams(lower=cuts[0], upper=cuts[1])


def oracle_apply_flood_cap(
    dataset: TimeSeriesDataset, params: FloodCapParams
) -> TimeSeriesDataset:
    if dataset.values.shape[1] != len(params.lower):
        raise DimensionError(
            f"dataset has {dataset.values.shape[1]} features, "
            f"clamp bounds have {len(params.lower)}"
        )
    values = np.clip(dataset.values, params.lower, params.upper)
    return replace(dataset, values=values)


def oracle_fit_scaler(train: TimeSeriesDataset) -> ScalerParams:
    if len(train) == 0:
        raise TooShortError(f"{train.client_id}: cannot fit a scaler on 0 rows")
    return ScalerParams(minimum=train.values.min(axis=0),
                        maximum=train.values.max(axis=0))


def oracle_negotiate_global_scaler(scalers: Sequence[ScalerParams]) -> ScalerParams:
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


def oracle_scale(dataset: TimeSeriesDataset, scaler: ScalerParams) -> TimeSeriesDataset:
    values = oracle_scale_array(dataset.values, scaler)
    return replace(dataset, values=values)


def oracle_scale_array(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    if values.shape[1] != len(scaler.minimum):
        raise DimensionError(
            f"array has {values.shape[1]} features, scaler has {len(scaler.minimum)}"
        )
    span = scaler.maximum - scaler.minimum
    safe = np.where(span > 0, span, 1.0)
    scaled = (values - scaler.minimum) / safe
    return np.where(span > 0, scaled, 0.0)


def oracle_make_windows(dataset: TimeSeriesDataset, window_size: int) -> WindowedDataset:
    m = max(0, len(dataset) - window_size)
    return WindowedDataset(dataset.values, np.arange(m), window_size)


def oracle_preprocess(
    datasets: Sequence[TimeSeriesDataset], config: PreprocessConfig
) -> list[ClientWindows]:
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

    splits: list[tuple[TimeSeriesDataset, ...]] = []
    scalers: list[ScalerParams] = []
    for ds in datasets:
        split = oracle_split_chronological(oracle_clean_missing(ds))
        train = split.train
        if config.use_flood_cap:
            lo, hi = config.per_client_percentiles.get(
                ds.client_id,
                (config.lower_percentile, config.upper_percentile),
            )
            train = oracle_apply_flood_cap(train, oracle_fit_flood_cap(train, lo, hi))
        splits.append((train, split.validation, split.test))
        scalers.append(oracle_fit_scaler(train))

    if config.scaling_scope == "global":
        scalers = [oracle_negotiate_global_scaler(scalers)] * len(datasets)

    return [
        ClientWindows(
            ds.client_id,
            *(oracle_make_windows(oracle_scale(part, scaler), config.window_size)
              for part in parts),
            scaler=scaler,
        )
        for ds, parts, scaler in zip(datasets, splits, scalers)
    ]


def outcome(preprocess, datasets, config):
    """What preprocess gives: its exception, or its arrays as exact bits."""
    try:
        clients = preprocess(datasets, config)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return [
        (
            cw.client_id,
            [
                (w.series.shape, w.series.view(np.int64).tolist(),
                 w.starts.tolist(), w.window_size, w.n_targets)
                for w in (cw.train, cw.validation, cw.test)
            ],
            cw.scaler.minimum.view(np.int64).tolist(),
            cw.scaler.maximum.view(np.int64).tolist(),
        )
        for cw in clients
    ]


@st.composite
def client_values(draw, min_rows=5, max_rows=200):
    """(n, 11) log-normal values with constant columns, then spikes, NaN and
    ±inf cells."""
    n = draw(st.integers(min_rows, max_rows))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    values = rng.lognormal(0.0, 1.0, size=(n, N_FEATURES))
    for col in draw(st.sets(st.integers(0, N_FEATURES - 1), max_size=3)):
        values[:, col] = draw(st.sampled_from([0.0, 2.5, -1.0]))
    # after the constant columns, so that a column can be constant in the
    # (capped) train rows alone
    if n:
        for _ in range(draw(st.integers(0, 8))):
            cell = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e6, -5.0]))
            values[rng.integers(n), rng.integers(N_FEATURES)] = cell
    return values


@st.composite
def configs(draw, client_ids):
    use_flood_cap = draw(st.booleans())
    percentiles = st.tuples(st.floats(1.0, 49.0), st.floats(51.0, 99.0))
    # the percentiles are read only with flooring and capping on, and must
    # keep their defaults with it off
    overrides, (lower, upper) = {}, (10.0, 90.0)
    if use_flood_cap:
        for cid in draw(st.sets(st.sampled_from(client_ids))):
            overrides[cid] = draw(percentiles)
        lower, upper = draw(st.one_of(st.just((10.0, 90.0)), percentiles))
    return PreprocessConfig(
        window_size=draw(st.integers(1, 12)),
        use_flood_cap=use_flood_cap,
        lower_percentile=lower,
        upper_percentile=upper,
        per_client_percentiles=overrides,
        scaling_scope=draw(st.sampled_from(["local", "global"])),
    )


@st.composite
def cohorts(draw):
    values = draw(st.lists(client_values(), min_size=1, max_size=4))
    datasets = [make_dataset(v, client_id=f"bs{i:03d}") for i, v in enumerate(values)]
    return datasets, draw(configs([ds.client_id for ds in datasets]))


@settings(deadline=None, max_examples=150)
@given(cohorts())
def test_pipeline_matches_dataset_per_stage_chain(cohort):
    datasets, config = cohort
    expected = outcome(oracle_preprocess, datasets, config)
    assert expected[0] != "raised"
    assert outcome(preprocess_clients, datasets, config) == expected


@settings(deadline=None, max_examples=40)
@given(
    st.lists(client_values(), min_size=0, max_size=3),
    client_values(min_rows=0, max_rows=4),
    st.data(),
)
def test_too_short_client_raises_as_the_chain_does(values, short, data):
    values.insert(data.draw(st.integers(0, len(values))), short)
    datasets = [make_dataset(v, client_id=f"bs{i:03d}") for i, v in enumerate(values)]
    config = data.draw(configs([ds.client_id for ds in datasets]))
    expected = outcome(oracle_preprocess, datasets, config)
    assert expected[:2] == ("raised", TooShortError)
    assert outcome(preprocess_clients, datasets, config) == expected
