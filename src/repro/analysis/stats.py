"""Statistics used throughout the evaluation.

The paper quantifies sensor quality with the Pearson correlation
coefficient (linearity of readout vs. activity) and the linear
regression coefficient (readout change per activity unit) — Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two 1-D samples."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise ConfigurationError("pearson needs two equal-length samples, n >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0:
        raise ConfigurationError("pearson undefined for constant samples")
    return float((xc * yc).sum() / denom)


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary-least-squares line fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_value: float

    @property
    def r_squared(self) -> float:
        """Coefficient of determination."""
        return self.r_value**2


def linear_regression(x, y) -> RegressionResult:
    """OLS fit of ``y`` on ``x`` with the correlation attached — the
    pair of numbers Fig. 3 reports per sensor."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise ConfigurationError("regression needs two equal-length samples, n >= 2")
    slope, intercept = np.polyfit(x, y, 1)
    return RegressionResult(float(slope), float(intercept), pearson(x, y))
