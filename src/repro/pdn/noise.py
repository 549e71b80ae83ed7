"""Noise models for the simulated voltage measurements.

Three components, matching what on-chip sensors actually see:

* white thermal/quantization noise on every sample;
* slow supply drift (regulator ripple + temperature), modelled as a
  bounded random walk — this is why the covert-channel receiver must
  train its threshold per packet;
* activity noise from unrelated logic, modelled as shot-like bursts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import RngLike, make_rng
from repro.errors import ConfigurationError


@dataclass
class NoiseModel:
    """Additive voltage-noise generator.

    Parameters
    ----------
    white_rms:
        Standard deviation of per-sample white noise [V].
    drift_rms:
        Step size of the bounded random-walk drift [V per sample];
        the walk is softly clamped to ``+-10 * drift_rms``.
    burst_rate:
        Expected fraction of samples hit by an activity burst.
    burst_amplitude:
        Droop amplitude of one burst [V].
    """

    white_rms: float = 1.6e-3
    drift_rms: float = 8e-6
    burst_rate: float = 0.0
    burst_amplitude: float = 5e-3

    def __post_init__(self) -> None:
        if self.white_rms < 0 or self.drift_rms < 0:
            raise ConfigurationError("noise amplitudes must be non-negative")
        if not 0 <= self.burst_rate < 1:
            raise ConfigurationError("burst_rate must be in [0, 1)")

    def cache_token(self) -> dict:
        """Deterministic fingerprint for :mod:`repro.traces.blockstore`
        keys (all four amplitudes; the model has no hidden state)."""
        from dataclasses import asdict

        return asdict(self)

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Generate ``n`` correlated noise samples [V]."""
        rng = make_rng(rng)
        noise = rng.normal(0.0, self.white_rms, size=n) if self.white_rms else np.zeros(n)
        if self.drift_rms:
            steps = rng.normal(0.0, self.drift_rms, size=n)
            drift = np.cumsum(steps)
            bound = 10.0 * self.drift_rms * np.sqrt(max(n, 1))
            drift = np.clip(drift, -bound, bound)
            noise = noise + drift
        if self.burst_rate:
            hits = rng.random(n) < self.burst_rate
            noise = noise - hits * self.burst_amplitude
        return noise

    @classmethod
    def quiet(cls) -> "NoiseModel":
        """A noiseless model, for deterministic unit tests."""
        return cls(white_rms=0.0, drift_rms=0.0, burst_rate=0.0)
