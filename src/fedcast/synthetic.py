"""Synthetic base-station traffic traces.

Each client emits 720 observations per day (one every two minutes) over the
11-feature schema: a per-feature baseline modulated by daily and weekly
sinusoids, Gaussian noise, and rare multiplicative row spikes. Client
profiles differ in level, phase, day count, and spike behavior, which gives
a cohort quantity skew, attribute skew, and temporal skew. Generation is a
pure function of the spec: same spec, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedcast.dataio import FEATURES, N_FEATURES, TimeSeriesDataset

OBSERVATIONS_PER_DAY = 720
STEP_SECONDS = 86400 // OBSERVATIONS_PER_DAY

# Rough per-feature magnitudes: link traffic in bytes, then counts,
# resource blocks, their variances, modulation indices, their variances.
FEATURE_BASELINES: tuple[float, ...] = (
    2.0e6, 8.0e5, 40.0, 30.0, 50.0, 5.0, 6.0, 12.0, 14.0, 0.5, 0.4,
)


@dataclass(frozen=True)
class SyntheticClientSpec:
    """Generator profile for one client."""

    client_id: str
    days: int = 2
    base_level: float = 1.0
    daily_amplitude: float = 0.4
    weekly_amplitude: float = 0.15
    noise_scale: float = 0.05
    spike_probability: float = 0.0
    spike_magnitude: float = 10.0
    phase: float = 0.0
    start: str = "2018-01-01T00:00:00"

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError(f"{self.client_id}: days must be >= 1")
        if self.base_level <= 0:
            raise ValueError(f"{self.client_id}: base_level must be positive")
        if not (0.0 <= self.spike_probability < 1.0):
            raise ValueError(f"{self.client_id}: spike_probability in [0, 1)")
        if not self.spike_magnitude >= 1.0:
            # a spike multiplies a row by a factor drawn from [1, magnitude)
            raise ValueError(
                f"spike_magnitude must be >= 1, got {self.spike_magnitude} "
                f"({self.client_id})"
            )
        if (self.spike_probability == 0.0
                and self.spike_magnitude != SyntheticClientSpec.spike_magnitude):
            raise ValueError(
                f"spike_magnitude {self.spike_magnitude} has no effect with "
                f"spike_probability 0 ({self.client_id})"
            )
        if self.noise_scale < 0:
            raise ValueError(f"{self.client_id}: noise_scale must be >= 0")


@dataclass(frozen=True)
class SyntheticSpec:
    clients: tuple[SyntheticClientSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("clients must list at least one client")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate client ids: {ids}")

    @staticmethod
    def sampled(
        n_clients: int,
        day_range: tuple[int, int] = (2, 4),
        seed: int = 0,
        spike_probability: float = 0.01,
    ) -> "SyntheticSpec":
        """Draw a heterogeneous cohort: varied days, levels, and phases."""
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        lo, hi = day_range
        if not (1 <= lo <= hi):
            raise ValueError("day_range must satisfy 1 <= lo <= hi")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        clients = []
        for i in range(n_clients):
            clients.append(
                SyntheticClientSpec(
                    client_id=f"bs{i:03d}",
                    days=int(rng.integers(lo, hi + 1)),
                    base_level=float(rng.uniform(0.5, 4.0)),
                    daily_amplitude=float(rng.uniform(0.25, 0.5)),
                    weekly_amplitude=float(rng.uniform(0.05, 0.2)),
                    noise_scale=float(rng.uniform(0.03, 0.08)),
                    spike_probability=spike_probability,
                    phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                    # Stagger start dates so cohorts also skew temporally.
                    start=np.datetime_as_string(
                        np.datetime64("2018-01-01T00:00:00")
                        + np.timedelta64(int(i) * 7, "D"),
                        unit="s",
                    ),
                )
            )
        return SyntheticSpec(clients=tuple(clients), seed=seed)


def generate_client(spec: SyntheticClientSpec, seed: int, index: int) -> TimeSeriesDataset:
    """One client's trace; the stream is SeedSequence([seed, index])."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    n = spec.days * OBSERVATIONS_PER_DAY
    t = np.arange(n, dtype=np.float64)
    daily = np.sin(2.0 * np.pi * t / OBSERVATIONS_PER_DAY + spec.phase)
    weekly = np.sin(2.0 * np.pi * t / (7 * OBSERVATIONS_PER_DAY) + 0.5 * spec.phase)
    profile = 1.0 + spec.daily_amplitude * daily + spec.weekly_amplitude * weekly

    base = np.asarray(FEATURE_BASELINES) * spec.base_level
    values = profile[:, None] * base[None, :]
    values = values + rng.normal(0.0, spec.noise_scale, size=(n, N_FEATURES)) * base
    if spec.spike_probability > 0.0:
        spikes = rng.random(n) < spec.spike_probability
        boost = 1.0 + (spec.spike_magnitude - 1.0) * rng.random((n, N_FEATURES))
        values = np.where(spikes[:, None], values * boost, values)
    values = np.maximum(values, 0.0)

    start = np.datetime64(spec.start, "s")
    timestamps = start + np.arange(n) * np.timedelta64(STEP_SECONDS, "s")
    return TimeSeriesDataset(
        client_id=spec.client_id,
        timestamps=timestamps,
        values=values,
        features=FEATURES,
    )


def generate_synthetic(spec: SyntheticSpec) -> list[TimeSeriesDataset]:
    """All clients' traces, one independent substream each."""
    return [
        generate_client(client, spec.seed, i)
        for i, client in enumerate(spec.clients)
    ]
