"""Clock and register-capture models.

A sensor's capture register samples a signal that is still settling.
Whether a given output bit is captured at its settled value depends on
the sign of its slack (capture phase minus settling time); bits whose
slack falls inside the flip-flop's metastability window resolve
randomly.  We model the capture probability as a logistic function of
slack with the metastability window as its width — smooth, vectorizes,
and reduces to a hard threshold as the window goes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.config import RngLike, make_rng
from repro.errors import ConfigurationError

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ClockSpec:
    """A clock domain.

    Attributes
    ----------
    frequency:
        Clock frequency [Hz].
    """

    frequency: float

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ConfigurationError("clock frequency must be positive")

    @property
    def period(self) -> float:
        """Clock period [s]."""
        return 1.0 / self.frequency

    def samples_in(self, duration: float) -> int:
        """Number of rising edges inside a duration (floor)."""
        if duration < 0:
            raise ConfigurationError("duration must be non-negative")
        return int(np.floor(duration * self.frequency))


def capture_probability(
    settle_time: ArrayLike,
    capture_phase: ArrayLike,
    metastability_window: float,
) -> np.ndarray:
    """Probability that a register captures the settled value.

    ``settle_time`` and ``capture_phase`` broadcast against each other;
    the result is the logistic of the slack ``capture_phase -
    settle_time`` with width ``metastability_window``.  A zero window
    yields a hard 0/1 threshold.
    """
    slack = np.asarray(capture_phase, dtype=float) - np.asarray(settle_time, dtype=float)
    if metastability_window < 0:
        raise ConfigurationError("metastability window must be non-negative")
    if metastability_window == 0:
        return (slack >= 0).astype(float)
    # Clip the argument: np.exp overflows loudly for |x| > ~700 and the
    # probability is saturated far earlier anyway.
    arg = np.clip(slack / metastability_window, -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(-arg))


def capture_bits(
    settle_times: np.ndarray,
    capture_phase: ArrayLike,
    metastability_window: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Sample actual captured-settled indicators (0/1) for a bank of
    bits.

    ``settle_times`` has shape ``(..., n_bits)``; ``capture_phase``
    broadcasts against its leading axes.  Returns an integer array of
    the same broadcast shape.
    """
    rng = make_rng(rng)
    p = capture_probability(settle_times, capture_phase, metastability_window)
    return (rng.random(np.shape(p)) < p).astype(np.int64)
