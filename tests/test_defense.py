"""Tests for the bitstream checker and the active fence."""

import numpy as np
import pytest

from repro.core.leaky_dsp import LeakyDSP
from repro.defense.checker import BitstreamChecker
from repro.defense.fence import ActiveFence
from repro.errors import ConfigurationError
from repro.fpga.bitstream import generate_bitstream
from repro.fpga.device import xc7a35t
from repro.fpga.placement import Placer
from repro.pdn.coupling import CouplingModel
from repro.pdn.noise import NoiseModel
from repro.sensors.ro import RingOscillatorSensor
from repro.sensors.tdc import TDC


def _bitstream_for(sensor_factory):
    device = xc7a35t()
    sensor = sensor_factory(device)
    placement = sensor.place(Placer(device))
    return generate_bitstream(sensor.netlist(), placement)


@pytest.fixture(scope="module")
def ro_bitstream():
    return _bitstream_for(lambda d: RingOscillatorSensor(device=d, name="ro"))


@pytest.fixture(scope="module")
def tdc_bitstream():
    return _bitstream_for(lambda d: TDC(device=d, seed=1, name="tdc"))


@pytest.fixture(scope="module")
def leakydsp_bitstream():
    return _bitstream_for(lambda d: LeakyDSP(device=d, seed=1, name="leaky"))


class TestTodayRules:
    def test_ro_rejected_for_comb_loop(self, ro_bitstream):
        findings = BitstreamChecker().check(ro_bitstream)
        assert any(f.rule == "comb-loop" for f in findings)

    def test_tdc_rejected_for_carry_sampler(self, tdc_bitstream):
        findings = BitstreamChecker().check(tdc_bitstream)
        assert any(f.rule == "carry-sampler" for f in findings)

    def test_leakydsp_accepted(self, leakydsp_bitstream):
        assert BitstreamChecker().accepts(leakydsp_bitstream)

    def test_findings_name_cells(self, ro_bitstream):
        findings = BitstreamChecker().check(ro_bitstream)
        loop = next(f for f in findings if f.rule == "comb-loop")
        assert any("inv" in c for c in loop.cells)

    def test_short_carry_chain_tolerated(self, basys3_device):
        """A 4-stage carry chain (ordinary adder) must not trip the TDC
        rule."""
        from repro.fpga.netlist import Netlist
        from repro.fpga.primitives import CARRY4, FDRE

        nl = Netlist("adder")
        nl.add_port("cin", "in")
        nl.add_cell(CARRY4("c0"))
        nl.add_cell(FDRE("f0"))
        nl.connect("n0", ("cin", "O"), [("c0", "CYINIT")])
        nl.connect("n1", ("c0", "CO3"), [("f0", "D")])
        placement = Placer(basys3_device).place(nl)
        bs = generate_bitstream(nl, placement)
        assert BitstreamChecker().accepts(bs)


class TestDspRules:
    def test_leakydsp_rejected_with_dsp_rules(self, leakydsp_bitstream):
        findings = BitstreamChecker(dsp_rules=True).check(leakydsp_bitstream)
        assert any(f.rule == "dsp-async" for f in findings)

    def test_benign_pipelined_dsp_accepted(self, basys3_device):
        """A normally pipelined DSP cascade (a FIR tap) passes even the
        DSP-aware rules — the rule keys on full register bypass."""
        from repro.fpga.netlist import Netlist
        from repro.fpga.primitives import DSP48E1

        nl = Netlist("fir")
        nl.add_port("x", "in")
        a = DSP48E1("tap0", AREG=1, BREG=1, MREG=1, PREG=1, OPMODE=0b0000101)
        b = DSP48E1("tap1", AREG=1, BREG=1, MREG=1, PREG=1, OPMODE=0b0010101)
        nl.add_cell(a)
        nl.add_cell(b)
        nl.connect("n0", ("x", "O"), [("tap0", "A"), ("tap1", "A")])
        nl.connect("n1", ("tap0", "P"), [("tap1", "PCIN")])
        placement = Placer(basys3_device).place(nl)
        bs = generate_bitstream(nl, placement)
        assert BitstreamChecker(dsp_rules=True).accepts(bs)

    def test_isolated_comb_dsp_accepted(self, basys3_device):
        """One combinational DSP with no cascade is common benign usage
        and stays legal even under DSP rules."""
        from repro.fpga.netlist import Netlist
        from repro.fpga.primitives import DSP48E1, FDRE

        nl = Netlist("mult")
        nl.add_port("x", "in")
        dsp = DSP48E1("m", OPMODE=0b0000101, USE_MULT="MULTIPLY")
        nl.add_cell(dsp)
        nl.add_cell(FDRE("f"))
        nl.connect("n0", ("x", "O"), [("m", "A")])
        nl.connect("n1", ("m", "P"), [("f", "D")])
        placement = Placer(basys3_device).place(nl)
        bs = generate_bitstream(nl, placement)
        assert BitstreamChecker(dsp_rules=True).accepts(bs)

    def test_ruleset_off_by_default(self):
        assert BitstreamChecker().dsp_rules is False


class TestActiveFence:
    @pytest.fixture(scope="class")
    def coupling(self, basys3_device):
        return CouplingModel(basys3_device)

    def test_noise_positive(self, coupling):
        fence = ActiveFence(coupling, center=(10, 25), n_instances=1000)
        assert fence.noise_at((30, 25)) > 0

    def test_noise_scales_with_size(self, coupling):
        small = ActiveFence(coupling, center=(10, 25), n_instances=500)
        big = ActiveFence(coupling, center=(10, 25), n_instances=4000)
        pos = (30, 25)
        assert big.noise_at(pos) > small.noise_at(pos)

    def test_harden_increases_white_noise(self, coupling):
        fence = ActiveFence(coupling, center=(10, 25), n_instances=2000)
        base = NoiseModel(white_rms=1e-3, drift_rms=0.0)
        hardened = fence.harden(base, (30, 25))
        assert hardened.white_rms > base.white_rms
        # RMS addition, not linear.
        expected = np.hypot(base.white_rms, fence.noise_at((30, 25)))
        assert hardened.white_rms == pytest.approx(expected)

    def test_sites_on_ring(self, coupling):
        fence = ActiveFence(coupling, center=(20, 70), radius=5.0, n_instances=100)
        for site in fence.sites:
            r = np.hypot(site.x - 20, site.y - 70)
            assert r == pytest.approx(5.0, abs=0.1)

    def test_ring_clipped_to_die(self, coupling):
        fence = ActiveFence(coupling, center=(0, 0), radius=10.0, n_instances=64)
        for site in fence.sites:
            assert site.x >= 0 and site.y >= 0

    def test_validation(self, coupling):
        with pytest.raises(ConfigurationError):
            ActiveFence(coupling, center=(0, 0), radius=0.0)
        with pytest.raises(ConfigurationError):
            ActiveFence(coupling, center=(0, 0), duty_std=0.9)
