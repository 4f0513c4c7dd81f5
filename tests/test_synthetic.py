import numpy as np
import pytest

from fedcast.dataio import FEATURES
from fedcast.synthetic import (
    FEATURE_BASELINES,
    OBSERVATIONS_PER_DAY,
    SyntheticClientSpec,
    SyntheticSpec,
    generate_client,
    generate_synthetic,
)
from helpers import ks_statistic


def spec_for(cid="bs000", **kw):
    return SyntheticClientSpec(client_id=cid, **kw)


def test_trace_shape_and_cadence():
    ds = generate_client(spec_for(days=3), seed=0, index=0)
    assert ds.values.shape == (3 * OBSERVATIONS_PER_DAY, 11)
    assert ds.features == FEATURES
    gaps = np.diff(ds.timestamps).astype("timedelta64[s]").astype(int)
    assert np.all(gaps == 120)  # one sample every two minutes
    assert str(ds.timestamps[0]) == "2018-01-01T00:00:00"


def test_observations_per_day_constant():
    assert OBSERVATIONS_PER_DAY == 720
    ds = generate_client(spec_for(days=1), seed=0, index=0)
    assert len(ds.values) == 720
    # a full day's worth of 2-minute steps spans exactly 24 hours
    span = (ds.timestamps[-1] - ds.timestamps[0]).astype("timedelta64[s]")
    assert span == np.timedelta64(86400 - 120, "s")


def test_traces_are_deterministic():
    spec = spec_for(days=2, spike_probability=0.02)
    a = generate_client(spec, seed=9, index=3)
    b = generate_client(spec, seed=9, index=3)
    assert np.array_equal(a.values, b.values)
    c = generate_client(spec, seed=10, index=3)
    d = generate_client(spec, seed=9, index=4)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)


def test_values_nonnegative_and_finite():
    # heavy noise would drive raw values negative; the trace clips at zero
    ds = generate_client(spec_for(noise_scale=1.0, spike_probability=0.05),
                         seed=1, index=0)
    assert np.all(np.isfinite(ds.values))
    assert np.min(ds.values) >= 0.0
    assert np.any(ds.values == 0.0)


def test_noiseless_trace_matches_formula():
    phase = 0.7
    spec = spec_for(days=2, base_level=1.5, daily_amplitude=0.3,
                    weekly_amplitude=0.1, noise_scale=0.0, phase=phase)
    ds = generate_client(spec, seed=0, index=0)
    t = np.arange(2 * OBSERVATIONS_PER_DAY, dtype=np.float64)
    daily = np.sin(2 * np.pi * t / 720 + phase)
    weekly = np.sin(2 * np.pi * t / 5040 + 0.5 * phase)
    profile = 1.0 + 0.3 * daily + 0.1 * weekly
    want = np.maximum(profile[:, None] * (np.array(FEATURE_BASELINES) * 1.5), 0.0)
    assert np.allclose(ds.values, want, rtol=1e-12)


def test_feature_levels_follow_baselines():
    ds = generate_client(spec_for(days=7, noise_scale=0.01), seed=2, index=0)
    means = ds.values.mean(axis=0)
    for j, base in enumerate(FEATURE_BASELINES):
        assert means[j] == pytest.approx(base, rel=0.1)


def test_base_level_shifts_distribution():
    lo = generate_client(spec_for(days=4, base_level=1.0), seed=3, index=0)
    hi = generate_client(spec_for("bs001", days=4, base_level=3.0), seed=3, index=1)
    # downlink volumes from different levels are far apart distributionally
    assert ks_statistic(lo.values[:, 0], hi.values[:, 0]) > 0.2


def test_spikes_fatten_the_tail():
    calm = generate_client(spec_for(days=4, spike_probability=0.0), seed=4, index=0)
    spiky = generate_client(
        spec_for(days=4, spike_probability=0.05, spike_magnitude=10.0),
        seed=4, index=0,
    )
    assert spiky.values[:, 0].max() > 2.0 * calm.values[:, 0].max()
    # spikes multiply whole rows, so all features spike together
    q = np.quantile(calm.values[:, 1], 0.999)
    spike_rows = spiky.values[:, 1] > q * 2
    assert spike_rows.sum() > 0


def test_phase_shifts_peak_position():
    a = generate_client(spec_for(days=1, noise_scale=0.0, weekly_amplitude=0.0),
                        seed=0, index=0)
    b = generate_client(
        spec_for("bs001", days=1, noise_scale=0.0, weekly_amplitude=0.0,
                 phase=np.pi), seed=0, index=0,
    )
    assert abs(int(np.argmax(a.values[:, 0])) - int(np.argmax(b.values[:, 0]))) >= 300


def test_cohort_generation_matches_per_client_streams():
    spec = SyntheticSpec.sampled(4, day_range=(2, 3), seed=6)
    cohort = generate_synthetic(spec)
    assert [ds.client_id for ds in cohort] == [f"bs{i:03d}" for i in range(4)]
    for i, (cs, ds) in enumerate(zip(spec.clients, cohort)):
        alone = generate_client(cs, spec.seed, i)
        assert np.array_equal(ds.values, alone.values)
        assert len(ds.values) == cs.days * OBSERVATIONS_PER_DAY


def test_sampled_cohort_is_heterogeneous():
    spec = SyntheticSpec.sampled(12, day_range=(2, 5), seed=0)
    days = {c.days for c in spec.clients}
    levels = [c.base_level for c in spec.clients]
    starts = {c.start for c in spec.clients}
    assert len(days) > 1  # quantity skew
    assert max(levels) / min(levels) > 1.5  # attribute skew
    assert len(starts) == 12  # temporal skew via staggered weeks
    assert all(2 <= c.days <= 5 for c in spec.clients)
    assert spec.clients[1].start == "2018-01-08T00:00:00"


def test_sampled_cohort_deterministic():
    a = SyntheticSpec.sampled(5, seed=3)
    b = SyntheticSpec.sampled(5, seed=3)
    assert a == b
    assert SyntheticSpec.sampled(5, seed=4) != a


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for(days=0)
    with pytest.raises(ValueError):
        spec_for(base_level=0.0)
    with pytest.raises(ValueError):
        spec_for(spike_probability=1.0)
    with pytest.raises(ValueError):
        spec_for(noise_scale=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(clients=(spec_for(), spec_for()))
    with pytest.raises(ValueError):
        SyntheticSpec.sampled(0)
    with pytest.raises(ValueError):
        SyntheticSpec.sampled(3, day_range=(4, 2))
