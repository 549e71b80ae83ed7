"""Tests for the LeakyDSP sensor: structure, functional model, readout
behaviour and the tap interface."""

import math

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import norm

from repro.config import DEFAULT_CONSTANTS, make_rng
from repro.core.leaky_dsp import PROCESS_JITTER_FRACTION, LeakyDSP, ndtri
from repro.errors import ConfigurationError
from repro.fpga.device import SiteType, zu3eg
from repro.fpga.placement import Placer
from repro.timing.sampling import ClockSpec


@pytest.fixture(scope="module")
def sensor(basys3_device):
    return LeakyDSP(device=basys3_device, seed=1)


class TestConstruction:
    def test_default_three_blocks(self, sensor):
        assert sensor.n_blocks == 3
        assert sensor.output_width == 48

    def test_chain_delay_scales_with_blocks(self, basys3_device):
        d1 = LeakyDSP(device=basys3_device, n_blocks=1, seed=0).chain_delay
        d3 = LeakyDSP(device=basys3_device, n_blocks=3, seed=0).chain_delay
        assert d3 > 2.9 * d1

    def test_zero_blocks_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            LeakyDSP(device=basys3_device, n_blocks=0)

    def test_too_many_blocks_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            LeakyDSP(device=basys3_device, n_blocks=basys3_device.num_dsps + 1)

    def test_capture_offset_within_half_period(self, sensor):
        margin = sensor.capture_offset - sensor.chain_delay
        assert abs(margin) <= sensor.clock.period / 2 + 1e-12

    def test_same_seed_same_silicon(self, basys3_device):
        a = LeakyDSP(device=basys3_device, seed=5)
        b = LeakyDSP(device=basys3_device, seed=5)
        np.testing.assert_array_equal(a._bit_offsets, b._bit_offsets)

    def test_different_seed_different_silicon(self, basys3_device):
        a = LeakyDSP(device=basys3_device, seed=5)
        b = LeakyDSP(device=basys3_device, seed=6)
        assert not np.array_equal(a._bit_offsets, b._bit_offsets)


class TestBitOffsetRamp:
    """The settle-time ramp is the in-repo Cephes ``ndtri`` of the bit
    quantiles, so building a sensor never imports scipy; it must stay
    bit-identical to ``scipy.special.ndtri`` and to the ``norm.ppf``
    ramp it replaced."""

    #: ``ndtri((i + 0.5) / 48).hex()`` for the 48-bit output word, so a
    #: change in scipy cannot move the reference unnoticed.
    RAMP_48_HEX = (
        "-0x1.27ce906d93d37p+1",
        "-0x1.dcdbfee3cb022p+0",
        "-0x1.9ffebc8ff58c2p+0",
        "-0x1.74540e8152092p+0",
        "-0x1.51692983b0b7ep+0",
        "-0x1.33d794de6f3fep+0",
        "-0x1.19e4ac0a9a5dep+0",
        "-0x1.028eb73a355dap+0",
        "-0x1.da6322dea1219p-1",
        "-0x1.b2bb6ce19a2acp-1",
        "-0x1.8d87273010eefp-1",
        "-0x1.6a503ffea3ff4p-1",
        "-0x1.48bc44c1acb9dp-1",
        "-0x1.288402c1e614fp-1",
        "-0x1.096e15240267fp-1",
        "-0x1.d69670003d81ap-2",
        "-0x1.9be770ed7b920p-2",
        "-0x1.628b3c1baa202p-2",
        "-0x1.2a469faa416bap-2",
        "-0x1.e5ca3830dff7fp-3",
        "-0x1.786e999c500b6p-3",
        "-0x1.0c23455adce64p-3",
        "-0x1.412d5fc4a071ap-4",
        "-0x1.abd8b51f6b8f3p-6",
        "0x1.abd8b51f6b8cbp-6",
        "0x1.412d5fc4a071ap-4",
        "0x1.0c23455adce69p-3",
        "0x1.786e999c500b1p-3",
        "0x1.e5ca3830dff7fp-3",
        "0x1.2a469faa416bdp-2",
        "0x1.628b3c1baa1ffp-2",
        "0x1.9be770ed7b920p-2",
        "0x1.d69670003d81dp-2",
        "0x1.096e15240267ep-1",
        "0x1.288402c1e614fp-1",
        "0x1.48bc44c1acb9fp-1",
        "0x1.6a503ffea3ff4p-1",
        "0x1.8d87273010eefp-1",
        "0x1.b2bb6ce19a2acp-1",
        "0x1.da6322dea1219p-1",
        "0x1.028eb73a355dap+0",
        "0x1.19e4ac0a9a5dep+0",
        "0x1.33d794de6f3fep+0",
        "0x1.51692983b0b7ep+0",
        "0x1.74540e8152092p+0",
        "0x1.9ffebc8ff58c0p+0",
        "0x1.dcdbfee3cb022p+0",
        "0x1.27ce906d93d39p+1",
    )

    @staticmethod
    def _ramp(n):
        return np.array([ndtri(q) for q in ((np.arange(n) + 0.5) / n).tolist()])

    def test_ndtri_matches_norm_ppf_for_every_width(self, sensor):
        widths = sorted(set(range(1, 257)) | {sensor.output_width})
        for n in widths:
            quantiles = (np.arange(n) + 0.5) / n
            ramp = self._ramp(n)
            np.testing.assert_array_equal(
                ramp, scipy_ndtri(quantiles), err_msg=f"width {n}"
            )
            np.testing.assert_array_equal(
                ramp, norm.ppf(quantiles), err_msg=f"width {n}"
            )

    def test_ndtri_matches_pinned_48_bit_ramp(self, sensor):
        assert sensor.output_width == len(self.RAMP_48_HEX)
        assert [x.hex() for x in self._ramp(48).tolist()] == list(self.RAMP_48_HEX)

    def test_ndtri_matches_scipy_on_all_three_branches(self):
        # The central rational fit, and the two ``sqrt(-2 log y)`` fits
        # for y down to exp(-32) and below it, on both tails.
        tail = np.logspace(-300, np.log10(0.135), 3000)
        y = np.concatenate(
            [[0.0, 1.0], tail, 1.0 - tail[tail > 1e-16], np.linspace(0.13, 0.87, 3001)]
        )
        got = np.array([ndtri(v) for v in y.tolist()])
        np.testing.assert_array_equal(got, scipy_ndtri(y))
        assert all(math.isnan(ndtri(v)) for v in (-0.5, 1.5, math.nan))

    @pytest.mark.parametrize("n_blocks", [1, 3, 5])
    def test_offsets_match_norm_ppf_ramp(self, basys3_device, n_blocks):
        sensor = LeakyDSP(device=basys3_device, n_blocks=n_blocks, seed=5)
        n = sensor.output_width
        c = sensor.constants
        sigma = c.dsp_bit_spread * c.dsp_block_delay
        rng = make_rng(5)
        expected = sigma * norm.ppf((np.arange(n) + 0.5) / n) + rng.normal(
            0.0, PROCESS_JITTER_FRACTION * sigma, size=n
        )
        np.testing.assert_array_equal(sensor._bit_offsets, expected)


class TestNetlistStructure:
    def test_block_count(self, sensor):
        nl = sensor.netlist()
        assert len(nl.cells_of_type("DSP48E1")) == 3

    def test_only_last_block_registered(self, sensor):
        dsps = sorted(sensor.netlist().cells_of_type("DSP48E1"), key=lambda c: c.name)
        assert [c.primitive.attributes["PREG"] for c in dsps] == [0, 0, 1]

    def test_two_idelays(self, sensor):
        assert len(sensor.netlist().cells_of_type("IDELAYE2")) == 2

    def test_no_fabric_logic(self, sensor):
        counts = sensor.netlist().count_by_type()
        assert "LUT" not in counts
        assert "FDRE" not in counts
        assert "CARRY4" not in counts

    def test_no_combinational_loop(self, sensor):
        assert sensor.netlist().combinational_loops() == []

    def test_cascade_connectivity(self, sensor):
        g = sensor.netlist().graph()
        dsps = sorted(c.name for c in sensor.netlist().cells_of_type("DSP48E1"))
        assert g.has_edge(dsps[0], dsps[1])
        assert g.has_edge(dsps[1], dsps[2])

    def test_ultrascale_variant_uses_e2(self, zu3eg_device):
        sensor = LeakyDSP(device=zu3eg_device, seed=0)
        nl = sensor.netlist()
        assert len(nl.cells_of_type("DSP48E2")) == 3
        assert len(nl.cells_of_type("IDELAYE3")) == 2


class TestFunctionalModel:
    def test_identity_function(self, sensor):
        assert sensor.functional_check()

    def test_identity_on_ultrascale(self, zu3eg_device):
        assert LeakyDSP(device=zu3eg_device, seed=0).functional_check()


class TestReadoutBehaviour:
    def test_probabilities_shape(self, sensor):
        p = sensor.bit_probabilities(np.array([1.0, 0.98]))
        assert p.shape == (2, 48)
        assert np.all((0 <= p) & (p <= 1))

    def test_readout_monotone_in_voltage(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(20, 0)  # roughly centered
        v = np.linspace(0.9, 1.02, 40)
        r = s.expected_readout(v)
        assert np.all(np.diff(r) >= -1e-9)

    def test_droop_lowers_readout(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(20, 0)
        hi, lo = s.expected_readout(np.array([1.0, 0.97]))
        assert hi > lo + 3

    def test_sensitivity_positive_when_centred(self, basys3_device):
        # Readout rises with supply voltage (droop -> fewer settled
        # bits), which is why readout correlates negatively with
        # victim activity in Fig. 3.
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(20, 0)
        assert s.sensitivity() > 0

    def test_phase_margin_moves_with_taps(self, basys3_device):
        # The capture margin (clock phase minus chain settle time) shows
        # in the readout: clock taps widen it and settle more bits, A
        # taps narrow it and settle fewer.
        s = LeakyDSP(device=basys3_device, seed=2)
        v = np.array([1.0])
        s.set_taps(20, 0)
        r0 = s.expected_readout(v)[0]
        s.set_taps(20, 5)
        assert s.expected_readout(v)[0] > r0
        s.set_taps(25, 0)
        assert s.expected_readout(v)[0] < r0

    def test_tap_plan_monotone_phase(self, sensor):
        plan = sensor.tap_plan()
        phases = []
        for a, c in plan:
            phases.append(c * sensor._idelay_clk.tap_delay - a * sensor._idelay_a.tap_delay)
        assert all(b >= a for a, b in zip(phases, phases[1:]))

    def test_tap_plan_respects_max_steps(self, sensor):
        assert len(sensor.tap_plan(max_steps=16)) <= 17

    def test_taps_property_roundtrip(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(3, 7)
        assert s.taps == (3, 7)


class TestPlacementIntegration:
    def test_place_assigns_dsp_sites(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=3)
        placement = s.place(Placer(basys3_device))
        for cell in s.netlist().cells_of_type("DSP48E1"):
            assert placement.site_of(cell.name).site_type is SiteType.DSP
        assert s.position is not None

    def test_unplaced_position_raises(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=3)
        with pytest.raises(ConfigurationError):
            s.require_position()
