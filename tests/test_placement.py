"""Tests for Pblocks, the greedy placer, capacity packing and
multi-tenant occupancy sharing."""

import pytest

from repro.errors import PlacementError
from repro.fpga.device import SiteType
from repro.fpga.netlist import Netlist
from repro.fpga.placement import (
    Pblock,
    Placement,
    SLICE_CAPACITY,
    site_type_for_cell,
)
from repro.fpga.primitives import CARRY4, DSP48E1, FDRE, IDELAYE2, LUT


def _netlist_of(*primitives) -> Netlist:
    nl = Netlist("t")
    for p in primitives:
        nl.add_cell(p)
    return nl


class TestPblock:
    def test_from_region(self, basys3_device):
        region = basys3_device.region_by_name("X0Y0")
        pb = Pblock.from_region(region)
        assert (pb.x0, pb.y0, pb.x1, pb.y1) == (
            region.x0, region.y0, region.x1, region.y1,
        )

    def test_whole_device(self, basys3_device):
        pb = Pblock.whole_device(basys3_device)
        assert pb.x1 == basys3_device.width - 1

    def test_contains(self, basys3_device):
        pb = Pblock("p", 0, 0, 10, 10)
        inside = basys3_device.site("SLICE_X0Y5")
        assert pb.contains(inside)

    def test_degenerate_rejected(self):
        with pytest.raises(PlacementError):
            Pblock("p", 5, 5, 4, 5)

    def test_center(self):
        assert Pblock("p", 0, 0, 10, 20).center == (5.0, 10.0)


class TestSiteTypeMapping:
    def test_dsp(self):
        nl = _netlist_of(DSP48E1.leakydsp_config("d"))
        assert site_type_for_cell(nl.cells["d"]) is SiteType.DSP

    def test_slice_primitives(self):
        nl = _netlist_of(LUT.inverter("l"), FDRE("f"), CARRY4("c"))
        for name in ("l", "f", "c"):
            assert site_type_for_cell(nl.cells[name]) is SiteType.SLICE

    def test_idelay(self):
        nl = _netlist_of(IDELAYE2("i"))
        assert site_type_for_cell(nl.cells["i"]) is SiteType.IDELAY


class TestPlacer:
    def test_places_all_cells(self, placer):
        nl = _netlist_of(*(LUT.inverter(f"l{i}") for i in range(10)))
        placement = placer.place(nl)
        assert len(placement) == 10

    def test_respects_pblock(self, placer, basys3_device):
        pb = Pblock("p", 0, 0, 12, 20)
        nl = _netlist_of(*(LUT.inverter(f"l{i}") for i in range(20)))
        placement = placer.place(nl, pblock=pb)
        for cell in nl.cells:
            site = placement.site_of(cell)
            assert pb.contains(site)

    def test_packs_luts_to_slice_capacity(self, placer):
        n = SLICE_CAPACITY["LUT"] * 3
        nl = _netlist_of(*(LUT.inverter(f"l{i}") for i in range(n)))
        placement = placer.place(nl)
        used_sites = {placement.site_of(c).name for c in nl.cells}
        assert len(used_sites) == 3

    def test_luts_and_ffs_share_slices(self, placer):
        nl = _netlist_of(
            *(LUT.inverter(f"l{i}") for i in range(4)),
            *(FDRE(f"f{i}") for i in range(8)),
        )
        placement = placer.place(nl)
        used = {placement.site_of(c).name for c in nl.cells}
        assert len(used) == 1  # 4 LUT + 8 FF fit one slice

    def test_one_dsp_per_site(self, placer):
        nl = _netlist_of(
            DSP48E1.leakydsp_config("d0"), DSP48E1.leakydsp_config("d1")
        )
        placement = placer.place(nl)
        assert placement.site_of("d0").name != placement.site_of("d1").name

    def test_dsp_only_on_dsp_sites(self, placer):
        nl = _netlist_of(DSP48E1.leakydsp_config("d"))
        placement = placer.place(nl)
        assert placement.site_of("d").site_type is SiteType.DSP

    def test_nearest_to_anchor(self, placer, basys3_device):
        nl = _netlist_of(LUT.inverter("l"))
        placement = placer.place(nl, anchor=(1.0, 1.0))
        site = placement.site_of("l")
        assert site.x <= 5 and site.y <= 5

    def test_overfull_pblock_raises(self, placer):
        pb = Pblock("tiny", 1, 0, 1, 0)  # one slice column tile
        nl = _netlist_of(*(LUT.inverter(f"l{i}") for i in range(5)))
        with pytest.raises(PlacementError):
            placer.place(nl, pblock=pb)

    def test_no_dsp_site_in_pblock_raises(self, placer):
        pb = Pblock("no_dsp", 1, 0, 3, 10)
        nl = _netlist_of(DSP48E1.leakydsp_config("d"))
        with pytest.raises(PlacementError):
            placer.place(nl, pblock=pb)

    def test_occupancy_shared_across_calls(self, placer):
        nl1 = _netlist_of(DSP48E1.leakydsp_config("a"))
        nl2 = Netlist("t2")
        nl2.add_cell(DSP48E1.leakydsp_config("b"))
        p1 = placer.place(nl1, anchor=(8, 0))
        p2 = placer.place(nl2, anchor=(8, 0))
        assert p1.site_of("a").name != p2.site_of("b").name

    def test_exhausting_dsps_raises(self, placer, basys3_device):
        n = basys3_device.num_dsps
        nl = _netlist_of(*(DSP48E1.leakydsp_config(f"d{i}") for i in range(n)))
        placer.place(nl)
        extra = Netlist("extra")
        extra.add_cell(DSP48E1.leakydsp_config("one_more"))
        with pytest.raises(PlacementError):
            placer.place(extra)


class TestPlacement:
    def test_unplaced_cell_raises(self, basys3_device):
        placement = Placement(basys3_device)
        with pytest.raises(PlacementError):
            placement.site_of("ghost")

    def test_centroid(self, placer):
        nl = _netlist_of(*(LUT.inverter(f"l{i}") for i in range(8)))
        placement = placer.place(nl, anchor=(20, 70))
        cx, cy = placement.centroid()
        assert abs(cx - 20) < 5 and abs(cy - 70) < 5

    def test_empty_centroid_raises(self, basys3_device):
        with pytest.raises(PlacementError):
            Placement(basys3_device).centroid()
