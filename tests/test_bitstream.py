"""Tests for pseudo-bitstream generation and serialization."""

import pytest

from repro.errors import NetlistError
from repro.fpga.bitstream import generate_bitstream
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placer
from repro.fpga.primitives import DSP48E1, FDRE, LUT


@pytest.fixture()
def small_design(basys3_device):
    nl = Netlist("demo")
    nl.add_port("clk", "in")
    nl.add_cell(DSP48E1.leakydsp_config("dsp", last=True))
    nl.add_cell(LUT.inverter("inv"))
    nl.add_cell(FDRE("ff"))
    nl.connect("n0", ("clk", "O"), [("inv", "I0")])
    nl.connect("n1", ("inv", "O"), [("dsp", "A")])
    nl.connect("n2", ("dsp", "P"), [("ff", "D")])
    nl.connect("n3", ("ff", "Q"), [("ff", "D2")])
    placement = Placer(basys3_device).place(nl)
    return nl, placement


class TestGeneration:
    def test_one_frame_per_cell(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        assert len(bs.frames) == len(nl.cells)

    def test_one_route_per_net(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        assert len(bs.routes) == len(nl.nets)

    def test_frames_carry_attributes(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        frame = bs.frame_for_cell("dsp")
        assert frame.attribute("PREG") == 1
        assert frame.attribute("USE_MULT") == "MULTIPLY"

    def test_lut_init_serialized(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        frame = bs.frame_for_cell("inv")
        assert frame.attribute("INIT") == 0b01
        assert frame.attribute("K") == 1

    def test_frame_positions_match_placement(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        site = placement.site_of("dsp")
        frame = bs.frame_for_cell("dsp")
        assert (frame.site_x, frame.site_y) == (site.x, site.y)

    def test_frames_of_type(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        cell_types = [frame.cell_type for frame in bs.frames]
        assert cell_types.count("DSP48E1") == 1
        assert cell_types.count("LUT") == 1

    def test_unknown_cell_frame_raises(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        with pytest.raises(NetlistError):
            bs.frame_for_cell("ghost")

    def test_unplaced_netlist_rejected(self, basys3_device):
        nl = Netlist("demo")
        nl.add_port("clk", "in")
        nl.add_cell(LUT.inverter("inv"))
        nl.connect("n0", ("clk", "O"), [("inv", "I0")])
        from repro.fpga.placement import Placement
        from repro.errors import PlacementError

        with pytest.raises(PlacementError):
            generate_bitstream(nl, Placement(basys3_device))

    def test_attribute_default(self, small_design):
        nl, placement = small_design
        bs = generate_bitstream(nl, placement)
        assert bs.frame_for_cell("dsp").attribute("NOPE", "fallback") == "fallback"
