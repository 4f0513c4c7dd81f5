import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.dataio import (
    FEATURES,
    DataError,
    DimensionError,
    PreprocessConfig,
    SchemaError,
    ScalerParams,
    TimeOrderError,
    TimeSeriesDataset,
    TooShortError,
    apply_flood_cap,
    clean_missing,
    concat_windows,
    fit_flood_cap,
    fit_scaler,
    inverse_scale_array,
    load_csv,
    make_windows,
    negotiate_global_scaler,
    preprocess_clients,
    save_csv,
    scale_array,
    split_chronological,
    target_scaler,
)
from helpers import make_dataset, random_dataset


# ---------------------------------------------------------------- dataset type

def test_dataset_requires_strictly_increasing_timestamps():
    stamps = np.array(
        ["2018-01-01T00:00:00", "2018-01-01T00:02:00", "2018-01-01T00:02:00"],
        dtype="datetime64[s]",
    )
    with pytest.raises(TimeOrderError):
        TimeSeriesDataset("x", stamps, np.zeros((3, 11)))


def test_dataset_rejects_wrong_feature_count():
    with pytest.raises(DimensionError):
        make_dataset(np.zeros((4, 3)), features=FEATURES)


# ---------------------------------------------------------------------- csv io

def write_csv(path, rows, header=None):
    header = header or ("time",) + FEATURES
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_csv_three_row_fixture_verbatim(tmp_path):
    rows = [
        ["2018-03-25T00:00:00"] + [str(float(i)) for i in range(11)],
        ["2018-03-25T00:02:00"] + [str(float(i + 1)) for i in range(11)],
        ["2018-03-25T00:04:00"] + [str(float(i * 2)) for i in range(11)],
    ]
    f = tmp_path / "elborn.csv"
    write_csv(f, rows)
    ds = load_csv(f)
    assert ds.client_id == "elborn"
    assert len(ds) == 3
    expected = np.array([[float(c) for c in r[1:]] for r in rows])
    assert np.array_equal(ds.values, expected)
    assert ds.timestamps[0] == np.datetime64("2018-03-25T00:00:00")


def test_load_csv_header_only_is_empty(tmp_path):
    f = tmp_path / "empty.csv"
    write_csv(f, [])
    ds = load_csv(f)
    assert len(ds) == 0
    assert ds.values.shape == (0, 11)


def test_load_csv_header_mismatch(tmp_path):
    f = tmp_path / "bad.csv"
    write_csv(f, [], header=("time", "a", "b"))
    with pytest.raises(SchemaError):
        load_csv(f)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_non_monotone_timestamps(tmp_path):
    rows = [
        ["2018-03-25T00:02:00"] + ["1"] * 11,
        ["2018-03-25T00:00:00"] + ["1"] * 11,
    ]
    f = tmp_path / "rewind.csv"
    write_csv(f, rows)
    with pytest.raises(TimeOrderError):
        load_csv(f)


def test_load_csv_unparsable_cells_become_nan(tmp_path):
    row = ["2018-03-25T00:00:00", "", "oops"] + ["3.5"] * 9
    f = tmp_path / "holes.csv"
    write_csv(f, [row])
    ds = load_csv(f)
    assert np.isnan(ds.values[0, 0])
    assert np.isnan(ds.values[0, 1])
    assert ds.values[0, 2] == 3.5


def test_save_load_round_trip_bit_exact(tmp_path):
    ds = random_dataset(50, seed=3, client_id="rt")
    save_csv(ds, tmp_path / "rt.csv")
    back = load_csv(tmp_path / "rt.csv")
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.timestamps, ds.timestamps)


def test_trace_write_that_fails_midway_keeps_the_previous_trace(tmp_path):
    path = tmp_path / "bs001.csv"
    save_csv(random_dataset(300, seed=1, client_id="bs001"), path)
    before = path.read_bytes()
    # a cell that cannot be written, past the first few KB of rows
    ds = random_dataset(300, seed=2, client_id="bs001")
    values = ds.values.astype(object)
    values[250, 3] = "cut"
    with pytest.raises(ValueError):
        save_csv(TimeSeriesDataset(ds.client_id, ds.timestamps, values), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bs001.csv"]


# --------------------------------------------------------------- clean_missing

def test_clean_missing_identity_when_clean():
    values = random_dataset(10, seed=1).values
    out = clean_missing(values)
    assert np.array_equal(out, values)
    assert not np.shares_memory(out, values)


def test_clean_missing_zeroes_nan_and_inf():
    values = np.ones((6, 11))
    values[5, 1] = np.nan  # empty UpLink cell
    values[2, 7] = np.inf
    out = clean_missing(values)
    assert out[5, 1] == 0.0
    assert out[2, 7] == 0.0
    mask = np.ones_like(values, dtype=bool)
    mask[5, 1] = mask[2, 7] = False
    assert np.array_equal(out[mask], values[mask])
    assert np.isnan(values[5, 1])  # the input is not written


# ----------------------------------------------------------------------- split

@pytest.mark.parametrize(
    "n,expected",
    [(10, (6, 2, 2)), (5421, (3252, 1084, 1085)), (7, (4, 1, 2)), (5, (3, 1, 1))],
)
def test_split_sizes(n, expected):
    train, validation, test = split_chronological(random_dataset(n, seed=n).values)
    assert (len(train), len(validation), len(test)) == expected


def test_split_too_short():
    with pytest.raises(TooShortError, match="need at least 5 rows to split, have 4"):
        split_chronological(random_dataset(4).values)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=5, max_value=400))
def test_split_partitions_in_order(n):
    values = random_dataset(n, seed=n).values
    parts = split_chronological(values)
    assert np.array_equal(np.concatenate(parts), values)
    assert all(part.base is values for part in parts)  # views, not copies
    assert len(parts[0]) == int(np.floor(0.6 * n))
    assert len(parts[1]) == int(np.floor(0.2 * n))


# ------------------------------------------------------------------- flood/cap

def ramp(n=100):
    """Every feature column is 1, 2, ..., n."""
    return np.tile(np.arange(1.0, n + 1.0)[:, None], (1, 11))


def test_fit_flood_cap_constant_column():
    fc = fit_flood_cap(np.full((20, 11), 7.0), 10.0, 90.0)
    assert np.all(fc.lower == 7.0)
    assert np.all(fc.upper == 7.0)


def test_fit_flood_cap_linear_interpolation_oracle():
    # column 1..100 at (10, 90): sort-based linear interpolation puts the
    # cut points at 10.9 and 90.1
    fc = fit_flood_cap(ramp(), 10.0, 90.0)
    assert fc.lower[0] == pytest.approx(10.9, abs=1e-12)
    assert fc.upper[0] == pytest.approx(90.1, abs=1e-12)


def percentile_oracle(column, pct):
    # independent sort-based linear interpolation between order statistics
    xs = np.sort(column)
    rank = (len(xs) - 1) * pct / 100.0
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def test_fit_flood_cap_matches_independent_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    for trial in range(20):
        col = rng.uniform(-50, 50, size=rng.integers(2, 40))
        lo_p, hi_p = sorted(rng.uniform(1, 99, size=2))
        if lo_p == hi_p:
            continue
        fc = fit_flood_cap(np.tile(col[:, None], (1, 11)), lo_p, hi_p)
        assert fc.lower[3] == pytest.approx(percentile_oracle(col, lo_p), rel=1e-12)
        assert fc.upper[3] == pytest.approx(percentile_oracle(col, hi_p), rel=1e-12)


def test_fit_flood_cap_invalid_percentiles():
    with pytest.raises(ValueError):
        fit_flood_cap(random_dataset(10).values, 90.0, 10.0)
    with pytest.raises(TooShortError):
        fit_flood_cap(np.empty((0, 11)), 10.0, 90.0)


def test_apply_flood_cap_clamps():
    fc = fit_flood_cap(ramp(), 10.0, 90.0)
    probe = np.array([[500.0] * 11, [-3.0] * 11])
    assert apply_flood_cap(probe, fc) is None
    assert np.array_equal(probe[0], fc.upper)
    assert np.array_equal(probe[1], fc.lower)
    assert probe[0, 0] == pytest.approx(90.1, abs=1e-12)
    assert probe[1, 0] == pytest.approx(10.9, abs=1e-12)


def test_apply_flood_cap_identity_within_cuts():
    values = np.full((5, 11), 50.0)
    apply_flood_cap(values, fit_flood_cap(ramp(), 10, 90))
    assert np.array_equal(values, np.full((5, 11), 50.0))


def test_apply_flood_cap_idempotent():
    once = random_dataset(60, seed=9).values
    fc = fit_flood_cap(once, 10.0, 90.0)
    apply_flood_cap(once, fc)
    twice = once.copy()
    apply_flood_cap(twice, fc)
    assert np.array_equal(once, twice)


def test_apply_flood_cap_dimension_mismatch():
    fc = fit_flood_cap(np.zeros((5, 3)) + 1.0, 10.0, 90.0)
    with pytest.raises(DimensionError):
        apply_flood_cap(random_dataset(10).values, fc)


# --------------------------------------------------------------------- scaling

def test_negotiate_single_client_keeps_its_bounds():
    sc = fit_scaler(random_dataset(20, seed=2).values)
    merged = negotiate_global_scaler([sc])
    assert np.array_equal(merged.minimum, sc.minimum)
    assert np.array_equal(merged.maximum, sc.maximum)


def test_negotiate_elementwise_min_max():
    a = ScalerParams(np.array([0.0]), np.array([10.0]))
    b = ScalerParams(np.array([5.0]), np.array([20.0]))
    merged = negotiate_global_scaler([a, b])
    assert merged.minimum[0] == 0.0
    assert merged.maximum[0] == 20.0


def test_negotiate_rejects_inverted_bounds_and_empty():
    good = ScalerParams(np.array([0.0]), np.array([1.0]))
    bad = ScalerParams(np.array([2.0]), np.array([1.0]))
    with pytest.raises(DataError):
        negotiate_global_scaler([good, bad])
    with pytest.raises(DataError):
        negotiate_global_scaler([])
    with pytest.raises(DimensionError):
        negotiate_global_scaler([good, ScalerParams(np.zeros(2), np.ones(2))])


@settings(deadline=None, max_examples=30)
@given(st.permutations(list(range(4))))
def test_negotiate_permutation_invariant(order):
    rng = np.random.Generator(np.random.PCG64(11))
    scalers = []
    for _ in range(4):
        lo = rng.uniform(-5, 0, size=3)
        scalers.append(ScalerParams(lo, lo + rng.uniform(0, 5, size=3)))
    base = negotiate_global_scaler(scalers)
    shuffled = negotiate_global_scaler([scalers[i] for i in order])
    assert np.array_equal(base.minimum, shuffled.minimum)
    assert np.array_equal(base.maximum, shuffled.maximum)


def test_scale_endpoints_and_midpoint():
    sc = ScalerParams(np.array([0.0]), np.array([20.0]))
    vals = np.array([[0.0], [20.0], [10.0]])
    assert scale_array(vals, sc) is None
    assert vals[0, 0] == 0.0
    assert vals[1, 0] == 1.0
    assert vals[2, 0] == 0.5


def test_scale_degenerate_feature_maps_to_zero():
    sc = ScalerParams(np.array([4.0, 0.0]), np.array([4.0, 2.0]))
    vals = np.array([[4.0, 1.0], [9.0, 2.0]])
    scale_array(vals, sc)
    assert np.array_equal(vals, [[0.0, 0.5], [0.0, 1.0]])
    assert not np.signbit(vals[:, 0]).any()


def test_scale_inverse_round_trip():
    rng = np.random.Generator(np.random.PCG64(5))
    vals = rng.uniform(-3, 3, size=(40, 11))
    lo = vals.min(axis=0)
    sc = ScalerParams(lo, vals.max(axis=0))
    scaled = vals.copy()
    scale_array(scaled, sc)
    back = inverse_scale_array(scaled, sc)
    assert np.max(np.abs(back - vals)) < 1e-9


def test_scale_dimension_mismatch():
    sc = ScalerParams(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionError):
        scale_array(np.zeros((2, 11)), sc)
    with pytest.raises(DimensionError):
        inverse_scale_array(np.zeros((2, 11)), sc)


def test_target_scaler_keeps_first_five():
    sc = ScalerParams(np.arange(11.0), np.arange(11.0) + 1.0)
    t = target_scaler(sc)
    assert np.array_equal(t.minimum, np.arange(5.0))
    assert np.array_equal(t.maximum, np.arange(5.0) + 1.0)


# ------------------------------------------------------------------- windowing

def rows(n, seed=0):
    return random_dataset(n, seed=seed).values


def test_make_windows_counts_and_shapes():
    w = make_windows(rows(100, seed=4), 10)
    assert w.count == 90
    assert w.inputs.shape == (90, 10, 11)
    assert w.targets.shape == (90, 5)


def test_make_windows_boundary_empty():
    w = make_windows(rows(10, seed=4), 10)
    assert w.count == 0
    assert w.inputs.shape == (0, 10, 11)


def test_make_windows_single_pair_indexing():
    values = rows(11, seed=6)
    w = make_windows(values, 10)
    assert w.count == 1
    assert np.array_equal(w.inputs[0], values[0:10])
    assert np.array_equal(w.targets[0], values[10, :5])


def test_make_windows_count_exhaustive():
    for n in range(0, 51):
        values = rows(n, seed=n)
        for T in range(1, 13):
            assert make_windows(values, T).count == max(0, n - T)


def test_make_windows_content_oracle():
    values = rows(30, seed=8)
    w = make_windows(values, 7)
    for k in range(w.count):
        assert np.array_equal(w.inputs[k], values[k : k + 7])
        assert np.array_equal(w.targets[k], values[k + 7, :5])


def test_make_windows_inputs_are_a_read_only_view_of_the_series():
    # window k is rows k..k+T-1 of the series itself, so T windows of a row
    # cost the row once, and no caller can write through one window into
    # its neighbours
    values = rows(40, seed=9)
    w = make_windows(values, 10)
    assert np.shares_memory(w.inputs, values)
    assert not w.inputs.flags.writeable
    with pytest.raises(ValueError):
        w.inputs[0, 0, 0] = 1.0


def test_make_windows_targets_are_a_read_only_view_of_the_series():
    values = rows(40, seed=9)
    w = make_windows(values, 10)
    assert np.shares_memory(w.targets, values)
    assert np.array_equal(w.targets, values[10:, :5])
    assert not w.targets.flags.writeable


def test_pooled_windows_are_the_parts_windows_over_one_series():
    parts = [make_windows(rows(n, seed=n), 10) for n in (30, 12, 10, 25)]
    pooled = concat_windows(parts)
    assert pooled.series.shape == (30 + 12 + 10 + 25, 11)
    assert np.array_equal(pooled.inputs, np.concatenate([p.inputs for p in parts]))
    assert np.array_equal(pooled.targets, np.concatenate([p.targets for p in parts]))
    # a batch gathered through the starts is the same windows in that order
    idx = np.array([36, 0, 21, 19, 22, 5])
    inputs, targets = pooled.batch(idx)
    assert np.array_equal(inputs, pooled.inputs[idx])
    assert np.array_equal(targets, pooled.targets[idx])
    # one client pooled alone is that client's set, not a copy
    assert concat_windows(parts[:1]) is parts[0]


def test_concat_windows_pools_counts():
    a = make_windows(rows(30, seed=1), 10)
    b = make_windows(rows(25, seed=2), 10)
    pooled = concat_windows([a, b])
    assert pooled.count == a.count + b.count
    assert np.array_equal(pooled.inputs[: a.count], a.inputs)
    with pytest.raises(DataError):
        concat_windows([])
    with pytest.raises(DataError):
        concat_windows([a, make_windows(rows(25, seed=2), 9)])


# -------------------------------------------------------------------- pipeline

def cohort(seed=0, n=60):
    return [
        random_dataset(n, seed=seed, client_id="a"),
        random_dataset(n + 15, seed=seed + 1, client_id="b"),
    ]


def test_pipeline_deterministic():
    config = PreprocessConfig(window_size=5)
    one = preprocess_clients(cohort(), config)
    two = preprocess_clients(cohort(), config)
    for x, y in zip(one, two):
        assert np.array_equal(x.train.inputs, y.train.inputs)
        assert np.array_equal(x.test.targets, y.test.targets)
        assert np.array_equal(x.scaler.minimum, y.scaler.minimum)


def test_pipeline_scaled_train_in_unit_interval():
    out = preprocess_clients(cohort(), PreprocessConfig(window_size=5))
    for cw in out:
        assert cw.train.inputs.min() >= 0.0
        assert cw.train.inputs.max() <= 1.0


def test_pipeline_validation_may_exceed_unit_interval():
    # a spike placed in the validation rows survives flooring/capping (fit
    # and applied on train only) and scales beyond 1
    values = np.abs(np.random.Generator(np.random.PCG64(3)).normal(1, 0.1, (60, 11)))
    values[40] = 50.0  # row 40 falls in the validation split (36..47)
    ds = make_dataset(values, client_id="spiky")
    out = preprocess_clients([ds], PreprocessConfig(window_size=5))
    assert out[0].validation.inputs.max() > 1.0


def test_pipeline_global_scaler_shared_and_local_not():
    config_g = PreprocessConfig(window_size=5, scaling_scope="global")
    config_l = PreprocessConfig(window_size=5, scaling_scope="local")
    out_g = preprocess_clients(cohort(), config_g)
    out_l = preprocess_clients(cohort(), config_l)
    assert np.array_equal(out_g[0].scaler.minimum, out_g[1].scaler.minimum)
    assert not np.array_equal(out_l[0].scaler.minimum, out_l[1].scaler.minimum)


def test_pipeline_per_client_percentile_override():
    data = cohort()
    base = preprocess_clients(data, PreprocessConfig(window_size=5))
    tweaked = preprocess_clients(
        data,
        PreprocessConfig(window_size=5, per_client_percentiles={"a": (1.0, 99.0)}),
    )
    # client a's train bounds widen, which shifts the negotiated scaler
    assert not np.array_equal(base[0].train.inputs, tweaked[0].train.inputs)


def traced_preprocess(n_rows, n_clients=2, window_size=10):
    """preprocess_clients on random clients of n_rows rows each, traced.

    Returns the result, the bytes it keeps and the call's peak, both over
    the bytes of the scaled series (n_clients * n_rows rows).
    """
    data = [random_dataset(n_rows, seed=i, client_id=f"c{i}") for i in range(n_clients)]
    config = PreprocessConfig(window_size=window_size)
    preprocess_clients(cohort(), config)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        out = preprocess_clients(data, config)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    series_bytes = n_clients * n_rows * len(FEATURES) * 8
    return out, kept / series_bytes, peak / series_bytes


def test_pipeline_windows_cost_one_scaled_series():
    # what the result keeps is each client's scaled series once, its three
    # splits being views of it, plus one start row per window (1.10 series
    # measured); a copy per window would keep window_size series (11.7
    # measured at window_size 10)
    out, kept, _ = traced_preprocess(5000)
    assert sum(cw.train.count for cw in out) > 0.5 * 2 * 5000
    assert kept <= 1.25


def test_pipeline_peak_is_about_one_scaled_series():
    # each client works in the one buffer clean_missing makes, so the peak
    # above the input is that buffer plus one client's transients (1.33
    # series measured); a copy per stage would peak at 2.57
    _, _, peak = traced_preprocess(5000)
    assert peak <= 1.5


@pytest.mark.parametrize("scaling_scope", ["local", "global"])
def test_pipeline_leaves_its_input_unchanged(scaling_scope):
    data = cohort()
    data[0].values[3, 2] = np.nan
    data[1].values[50, 0] = -np.inf
    before = [ds.values.tobytes() for ds in data]
    for use_flood_cap in (True, False):
        preprocess_clients(data, PreprocessConfig(
            window_size=5, use_flood_cap=use_flood_cap, scaling_scope=scaling_scope,
        ))
        assert [ds.values.tobytes() for ds in data] == before


def test_pipeline_rejects_duplicate_ids():
    ds = random_dataset(60, seed=1, client_id="dup")
    with pytest.raises(DataError):
        preprocess_clients([ds, ds], PreprocessConfig())
    with pytest.raises(DataError):
        preprocess_clients([], PreprocessConfig())


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(window_size=0)
    with pytest.raises(ValueError):
        PreprocessConfig(scaling_scope="other")
    with pytest.raises(ValueError):
        PreprocessConfig(lower_percentile=90.0, upper_percentile=10.0)
    with pytest.raises(ValueError):
        PreprocessConfig(per_client_percentiles={"x": (0.0, 50.0)})
