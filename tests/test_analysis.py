"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import linear_regression, pearson
from repro.errors import ConfigurationError


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -2 * x) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        r = pearson(rng.normal(0, 1, 5000), rng.normal(0, 1, 5000))
        assert abs(r) < 0.05

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(0, 1, 100), rng.normal(0, 1, 100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson([1, 2], [1, 2, 3])

    def test_constant_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson([1, 1, 1], [1, 2, 3])


class TestRegression:
    def test_recovers_line(self):
        x = np.linspace(0, 8, 9)
        fit = linear_regression(x, -3.45 * x + 40)
        assert fit.slope == pytest.approx(-3.45)
        assert fit.intercept == pytest.approx(40)
        assert fit.r_value == pytest.approx(-1.0)

    def test_r_squared(self):
        x = np.arange(10.0)
        fit = linear_regression(x, 2 * x)
        assert fit.r_value**2 == pytest.approx(1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_regression([1.0], [2.0])

