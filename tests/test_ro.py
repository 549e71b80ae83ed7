"""Tests for the ring-oscillator counter sensor."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_CONSTANTS
from repro.errors import ConfigurationError
from repro.sensors.ro import RingOscillatorSensor


@pytest.fixture(scope="module")
def ro(basys3_device):
    return RingOscillatorSensor(device=basys3_device)


class TestConstruction:
    def test_even_loop_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            RingOscillatorSensor(device=basys3_device, n_inverters=2)

    def test_nonpositive_window_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            RingOscillatorSensor(device=basys3_device, window=0.0)

    def test_contains_combinational_loop(self, ro):
        loops = ro.netlist().combinational_loops()
        assert len(loops) >= 1

    def test_longer_loop_is_slower(self, basys3_device):
        short = RingOscillatorSensor(device=basys3_device, n_inverters=1)
        long = RingOscillatorSensor(device=basys3_device, n_inverters=5)
        assert long.frequency(1.0)[0] < short.frequency(1.0)[0]


class TestBehaviour:
    def test_frequency_drops_with_droop(self, ro):
        f = ro.frequency(np.array([1.0, 0.95]))
        assert f[0] > f[1]

    def test_expected_readout_counts_window(self, ro):
        f = ro.frequency(1.0)[0]
        r = ro.expected_readout(np.array([1.0]))[0]
        assert r == pytest.approx(f * ro.window, rel=1e-9)

    def test_counter_saturates(self, basys3_device):
        tiny = RingOscillatorSensor(
            device=basys3_device, counter_bits=4, window=1e-3
        )
        r = tiny.expected_readout(np.array([1.0]))[0]
        assert r == 15

    def test_sample_quantization(self, ro, rng):
        samples = ro.sample_readouts(np.full(500, 1.0), rng=rng)
        expected = ro.expected_readout(np.array([1.0]))[0]
        assert np.all(np.abs(samples - expected) <= 1.0)

    def test_bit_probabilities_not_meaningful(self, ro):
        with pytest.raises(NotImplementedError):
            ro.bit_probabilities(np.array([1.0]))

    def test_readout_std_is_quantization(self, ro):
        assert ro.readout_std(np.array([1.0]))[0] == pytest.approx(1 / np.sqrt(12))

    def test_scalar_shape_passthrough(self, ro, rng):
        r = ro.sample_readouts(1.0, rng=rng)
        assert r.shape == ()


class TestCacheToken:
    def test_token_needs_no_moments_table(self, basys3_device):
        # bit_probabilities raises for a counter, so the base class's
        # moments-table digest cannot serve as the token.
        sensor = RingOscillatorSensor(device=basys3_device)
        sensor.position = (10.0, 20.0)
        token = sensor.cache_token()
        assert token["type"] == "RingOscillatorSensor"
        assert token["position"] == [10.0, 20.0]
        assert "moments_digest" not in token

    @pytest.mark.parametrize(
        "change",
        [
            {"n_inverters": 3},
            {"window": 2e-6},
            {"counter_bits": 12},
            {"constants": dataclasses.replace(DEFAULT_CONSTANTS, alpha=1.4)},
        ],
    )
    def test_every_readout_parameter_moves_the_token(self, basys3_device, change):
        def token(**kwargs):
            sensor = RingOscillatorSensor(device=basys3_device, **kwargs)
            sensor.position = (10.0, 20.0)
            return sensor.cache_token()

        assert token() == token()
        assert token(**change) != token()

    def test_position_moves_the_token(self, basys3_device):
        a = RingOscillatorSensor(device=basys3_device)
        b = RingOscillatorSensor(device=basys3_device)
        a.position, b.position = (10.0, 20.0), (11.0, 20.0)
        assert a.cache_token() != b.cache_token()
