"""Tests for static timing analysis."""

import pytest

from repro.core.leaky_dsp import LeakyDSP
from repro.fpga.device import xc7a35t
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placer
from repro.fpga.primitives import DSP48E1, FDRE, LUT
from repro.fpga.routing import Router
from repro.sensors.ro import RingOscillatorSensor
from repro.sensors.tdc import TDC
from repro.timing.paths import PATH_DELAYS, ROUTING_DELAY_BASE
from repro.timing.sampling import ClockSpec
from repro.timing.sta import SETUP_TIME, TimingAnalyzer


def _pipeline_netlist(n_luts: int) -> Netlist:
    """FF -> n LUTs -> FF."""
    nl = Netlist("pipe")
    nl.add_cell(FDRE("src"))
    nl.add_cell(FDRE("dst"))
    prev = ("src", "Q")
    for i in range(n_luts):
        nl.add_cell(LUT.inverter(f"l{i}"))
        nl.connect(f"n{i}", prev, [(f"l{i}", "I0")])
        prev = (f"l{i}", "O")
    nl.connect("n_end", prev, [("dst", "D")])
    return nl


class TestAnalyzer:
    def test_single_lut_path_delay(self):
        nl = _pipeline_netlist(1)
        report = TimingAnalyzer(nl).analyze(ClockSpec(100e6))
        path = report.paths[0]
        expected = 2 * ROUTING_DELAY_BASE + PATH_DELAYS["LUT"]
        assert path.delay == pytest.approx(expected)
        assert path.start == "src"
        assert path.end == "dst"

    def test_slack_formula(self):
        nl = _pipeline_netlist(1)
        clock = ClockSpec(100e6)
        report = TimingAnalyzer(nl).analyze(clock)
        p = report.paths[0]
        assert p.slack == pytest.approx(clock.period - SETUP_TIME - p.delay)

    def test_fast_clock_fails_long_pipe(self):
        nl = _pipeline_netlist(40)  # ~6.6 ns of LUT+wire delay
        ok = TimingAnalyzer(nl).analyze(ClockSpec(50e6))
        bad = TimingAnalyzer(nl).analyze(ClockSpec(500e6))
        assert ok.passes
        assert not bad.passes
        assert bad.failing_paths

    def test_longest_path_wins(self):
        """Two parallel paths: STA must report the slower one."""
        nl = Netlist("par")
        nl.add_cell(FDRE("src"))
        nl.add_cell(FDRE("dst"))
        nl.add_cell(LUT.inverter("short"))
        for i in range(5):
            nl.add_cell(LUT.inverter(f"long{i}"))
        nl.connect("n_s", ("src", "Q"), [("short", "I0"), ("long0", "I0")])
        for i in range(4):
            nl.connect(f"n_l{i}", (f"long{i}", "O"), [(f"long{i+1}", "I0")])
        nl.connect("n_j", ("long4", "O"), [("dst", "D")])
        nl.connect("n_k", ("short", "O"), [("dst", "D2")])
        report = TimingAnalyzer(nl).analyze(ClockSpec(100e6))
        expected_long = 6 * ROUTING_DELAY_BASE + 5 * PATH_DELAYS["LUT"]
        assert report.paths[0].delay == pytest.approx(expected_long)

    def test_comb_loop_reported(self):
        ro = RingOscillatorSensor(name="ro")
        report = TimingAnalyzer(ro.netlist()).analyze(ClockSpec(100e6))
        assert report.loops
        assert not report.passes

    def test_registered_dsp_is_endpoint(self):
        nl = Netlist("d")
        nl.add_cell(FDRE("src"))
        nl.add_cell(DSP48E1.leakydsp_config("dsp", last=True))
        nl.connect("n0", ("src", "Q"), [("dsp", "A")])
        report = TimingAnalyzer(nl).analyze(ClockSpec(100e6))
        assert report.paths[0].end == "dsp"

    def test_empty_design_passes(self):
        report = TimingAnalyzer(Netlist("empty")).analyze(ClockSpec(100e6))
        assert report.passes
        assert report.worst_slack == float("inf")


class TestSensorTiming:
    def test_leakydsp_violates_honest_clock(self):
        sensor = LeakyDSP(seed=1)
        report = TimingAnalyzer(sensor.netlist()).analyze(ClockSpec(300e6))
        assert not report.passes
        assert report.worst_slack < -3e-9

    def test_leakydsp_passes_declared_slow_clock(self):
        """The paper's bypass: declare a slow clock, pass the check."""
        sensor = LeakyDSP(seed=1)
        report = TimingAnalyzer(sensor.netlist()).analyze(ClockSpec(20e6))
        assert report.passes

    def test_routed_leakydsp_violates_honest_clock(self):
        """With placement and routing, STA reads each connection's
        routed wire delay instead of the base estimate; the routed
        sensor still fails the honest clock, by more."""
        device = xc7a35t()
        netlist = LeakyDSP(device=device, seed=1).netlist()
        placement = Placer(device).place(netlist)
        routing = Router(device).route(netlist, placement)
        assert routing.total_wirelength() > 0
        clock = ClockSpec(300e6)
        routed = TimingAnalyzer(netlist, placement, routing).analyze(clock)
        estimated = TimingAnalyzer(netlist).analyze(clock)
        assert not routed.passes
        assert routed.worst_slack < estimated.worst_slack

    def test_tdc_violates_honest_clock(self):
        sensor = TDC(seed=1)
        report = TimingAnalyzer(sensor.netlist()).analyze(ClockSpec(300e6))
        assert not report.passes
