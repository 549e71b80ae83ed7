"""Tests for the voltage-dependent timing models."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants
from repro.errors import ConfigurationError, NetlistError
from repro.fpga.netlist import Cell, Netlist
from repro.fpga.primitives import DSP48E1, FDRE, IDELAYE2, LUT
from repro.timing.delay import delay_scale, delay_sensitivity, scaled_delay
from repro.timing.paths import (
    PATH_DELAYS,
    ROUTING_DELAY_BASE,
    cell_through_delay,
    combinational_path_delay,
    dsp_chain_delay,
)
from repro.timing.sampling import (
    ClockSpec,
    capture_bits,
    capture_probability,
)


class TestDelayScale:
    def test_unity_at_nominal(self):
        assert delay_scale(DEFAULT_CONSTANTS.v_nominal) == pytest.approx(1.0)

    def test_droop_slows(self):
        assert delay_scale(0.95) > 1.0

    def test_overvolt_speeds_up(self):
        assert delay_scale(1.05) < 1.0

    def test_monotone_decreasing_in_v(self):
        v = np.linspace(0.8, 1.1, 50)
        s = delay_scale(v)
        assert np.all(np.diff(s) < 0)

    def test_alpha_power_law(self):
        c = PhysicalConstants(alpha=2.0)
        assert delay_scale(0.5, c) == pytest.approx(4.0)

    def test_vectorized(self):
        s = delay_scale(np.array([1.0, 0.9]))
        assert s.shape == (2,)

    def test_scalar_in_scalar_out(self):
        assert isinstance(delay_scale(0.98), float)

    def test_nonpositive_voltage_rejected(self):
        with pytest.raises(ConfigurationError):
            delay_scale(0.0)
        with pytest.raises(ConfigurationError):
            delay_scale(np.array([1.0, -0.1]))


class TestScaledDelay:
    def test_scales_nominal(self):
        assert scaled_delay(1e-9, 1.0) == pytest.approx(1e-9)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_delay(-1e-9, 1.0)

    def test_sensitivity_negative_and_proportional(self):
        s1 = delay_sensitivity(1e-9)
        s2 = delay_sensitivity(2e-9)
        assert s1 < 0
        assert s2 == pytest.approx(2 * s1)


class TestPathDelays:
    def test_lut_delay(self):
        cell = Cell("l", LUT.inverter("l"))
        assert cell_through_delay(cell) == PATH_DELAYS["LUT"]

    def test_dsp_delay_sums_stages(self):
        cell = Cell("d", DSP48E1.leakydsp_config("d"))
        total = cell_through_delay(cell)
        assert total == pytest.approx(sum(d for _n, d in cell.primitive.stage_delays()))

    def test_idelay_uses_programmed_taps(self):
        prim = IDELAYE2("i")
        prim.load_tap(4)
        assert cell_through_delay(Cell("i", prim)) == pytest.approx(prim.delay())

    def test_ff_no_comb_delay(self):
        assert cell_through_delay(Cell("f", FDRE("f"))) == 0.0

    def test_unknown_primitive_rejected(self):
        class Weird:
            TYPE = "WEIRD"

        with pytest.raises(NetlistError):
            cell_through_delay(Cell("w", Weird()))

    def test_path_includes_routing(self):
        cells = [Cell(f"l{i}", LUT.inverter(f"l{i}")) for i in range(3)]
        total = combinational_path_delay(cells)
        expected = 3 * PATH_DELAYS["LUT"] + 2 * ROUTING_DELAY_BASE
        assert total == pytest.approx(expected)

    def test_empty_path_is_zero(self):
        assert combinational_path_delay([]) == 0.0

    def test_dsp_chain_delay_sums_blocks(self):
        nl = Netlist("t")
        for i in range(3):
            nl.add_cell(DSP48E1.leakydsp_config(f"d{i}"))
        total = dsp_chain_delay(nl)
        one = cell_through_delay(Cell("d", DSP48E1.leakydsp_config("d")))
        assert total == pytest.approx(3 * one + 2 * ROUTING_DELAY_BASE)

    def test_dsp_chain_without_dsps_rejected(self):
        with pytest.raises(NetlistError):
            dsp_chain_delay(Netlist("empty"))


class TestClockSpec:
    def test_period(self):
        assert ClockSpec(100e6).period == pytest.approx(10e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            ClockSpec(0.0)

    def test_samples_in(self):
        assert ClockSpec(100e6).samples_in(95e-9) == 9

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ClockSpec(1e6).samples_in(-1.0)


class TestCaptureProbability:
    def test_half_at_zero_slack(self):
        p = capture_probability(1e-9, 1e-9, 10e-12)
        assert p == pytest.approx(0.5)

    def test_saturates_with_slack(self):
        assert capture_probability(0.0, 1e-9, 10e-12) == pytest.approx(1.0)
        assert capture_probability(1e-9, 0.0, 10e-12) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_phase(self):
        phases = np.linspace(0, 2e-9, 30)
        p = capture_probability(1e-9, phases, 20e-12)
        assert np.all(np.diff(p) >= 0)

    def test_zero_window_hard_threshold(self):
        assert capture_probability(1e-9, 2e-9, 0.0) == 1.0
        assert capture_probability(2e-9, 1e-9, 0.0) == 0.0

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            capture_probability(0.0, 0.0, -1e-12)

    def test_broadcasting(self):
        taus = np.zeros((5, 8))
        p = capture_probability(taus, 1e-9, 1e-12)
        assert p.shape == (5, 8)

    def test_no_overflow_for_extreme_slack(self):
        p = capture_probability(0.0, 1.0, 1e-15)
        assert np.isfinite(p)


class TestCaptureBits:
    def test_shapes(self, rng):
        taus = np.full((10, 4), 1e-9)
        bits = capture_bits(taus, 2e-9, 1e-12, rng=rng)
        assert bits.shape == (10, 4)

    def test_sure_capture(self, rng):
        bits = capture_bits(np.zeros(100), 1e-9, 1e-12, rng=rng)
        assert bits.sum() == 100

    def test_sure_miss(self, rng):
        bits = capture_bits(np.full(100, 2e-9), 1e-9, 1e-12, rng=rng)
        assert bits.sum() == 0

    def test_metastable_mix(self):
        bits = capture_bits(np.full(20000, 1e-9), 1e-9, 10e-12, rng=0)
        assert bits.mean() == pytest.approx(0.5, abs=0.02)
