"""Tests for the FPGA device grid models."""

import pytest

from repro.errors import ConfigurationError
from repro.fpga.device import (
    DeviceModel,
    LUTS_PER_SLICE,
    Site,
    SiteType,
)


class TestXc7a35t:
    def test_dsp_count_matches_part(self, basys3_device):
        assert basys3_device.num_dsps == 90

    def test_slice_count_approximates_part(self, basys3_device):
        # Real XC7A35T: 5,200 slices.
        assert abs(basys3_device.num_slices - 5200) < 300

    def test_lut_and_ff_ratios(self, basys3_device):
        assert basys3_device.num_luts == basys3_device.num_slices * LUTS_PER_SLICE

    def test_six_clock_regions(self, basys3_device):
        regions = basys3_device.clock_regions
        assert len(regions) == 6
        assert {r.name for r in regions} == {
            "X0Y0", "X1Y0", "X0Y1", "X1Y1", "X0Y2", "X1Y2",
        }

    def test_dsp_family(self, basys3_device):
        assert basys3_device.dsp_family == "DSP48E1"
        assert basys3_device.idelay_family == "IDELAYE2"

    def test_regions_tile_the_die(self, basys3_device):
        total = 0
        for region in basys3_device.clock_regions:
            total += (region.x1 - region.x0 + 1) * (region.y1 - region.y0 + 1)
        assert total == basys3_device.width * basys3_device.height


class TestZu3eg:
    def test_dsp_count_matches_part(self, zu3eg_device):
        assert zu3eg_device.num_dsps == 360

    def test_eight_clock_regions(self, zu3eg_device):
        assert len(zu3eg_device.clock_regions) == 8

    def test_ultrascale_families(self, zu3eg_device):
        assert zu3eg_device.dsp_family == "DSP48E2"
        assert zu3eg_device.idelay_family == "IDELAYE3"

    def test_larger_than_artix(self, basys3_device, zu3eg_device):
        assert zu3eg_device.num_slices > basys3_device.num_slices


class TestRegions:
    def test_region_of_maps_coordinates(self, basys3_device):
        assert basys3_device.region_of(0, 0).name == "X0Y0"
        assert basys3_device.region_of(41, 149).name == "X1Y2"
        assert basys3_device.region_of(21, 50).name == "X1Y1"

    def test_region_of_outside_raises(self, basys3_device):
        with pytest.raises(ConfigurationError):
            basys3_device.region_of(999, 0)

    def test_region_by_name(self, basys3_device):
        region = basys3_device.region_by_name("X1Y1")
        assert region.col == 1 and region.row == 1

    def test_region_by_unknown_name_raises(self, basys3_device):
        with pytest.raises(ConfigurationError):
            basys3_device.region_by_name("X9Y9")

    def test_region_contains_and_center(self, basys3_device):
        region = basys3_device.region_by_name("X0Y0")
        cx, cy = region.center
        assert region.contains(int(cx), int(cy))
        assert not region.contains(region.x1 + 1, region.y0)


class TestSites:
    def test_site_lookup_by_name(self, basys3_device):
        site = basys3_device.site("DSP48_X0Y0")
        assert site.site_type is SiteType.DSP

    def test_unknown_site_raises(self, basys3_device):
        with pytest.raises(ConfigurationError):
            basys3_device.site("DSP48_X9Y999")

    def test_dsp_sites_in_columns(self, basys3_device):
        xs = {s.x for s in basys3_device.sites_of_type(SiteType.DSP)}
        assert xs == set(basys3_device.dsp_columns)

    def test_slice_sites_not_in_special_columns(self, basys3_device):
        special = set(basys3_device.dsp_columns) | set(
            basys3_device.bram_columns
        ) | set(basys3_device.io_columns)
        for site in basys3_device.sites_of_type(SiteType.SLICE):
            assert site.x not in special

    def test_idelay_sites_at_edges(self, basys3_device):
        xs = {s.x for s in basys3_device.sites_of_type(SiteType.IDELAY)}
        assert xs == {0, basys3_device.width - 1}

    def test_site_names_unique(self, basys3_device):
        names = [s.name for s in basys3_device.sites.values()]
        assert len(names) == len(set(names))

    def test_site_position_property(self):
        site = Site("S", SiteType.SLICE, 3, 4)
        assert site.position == (3, 4)

    def test_contains(self, basys3_device):
        assert basys3_device.contains(0, 0)
        assert not basys3_device.contains(-1, 0)
        assert not basys3_device.contains(0, basys3_device.height)

    def test_center(self, basys3_device):
        cx, cy = basys3_device.center
        assert 0 < cx < basys3_device.width
        assert 0 < cy < basys3_device.height


class TestDeviceValidation:
    def test_uneven_region_split_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceModel("bad", 41, 150, 2, 3, dsp_columns=(8,), dsp_row_pitch=5)

    def test_negative_extent_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceModel("bad", 0, 150, 2, 3, dsp_columns=(), dsp_row_pitch=5)

    def test_dsp_column_outside_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceModel("bad", 42, 150, 2, 3, dsp_columns=(99,), dsp_row_pitch=5)

    def test_unknown_dsp_family_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceModel(
                "bad", 42, 150, 2, 3, dsp_columns=(8,), dsp_row_pitch=5,
                dsp_family="DSP99",
            )

    def test_unknown_idelay_family_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceModel(
                "bad", 42, 150, 2, 3, dsp_columns=(8,), dsp_row_pitch=5,
                idelay_family="IDELAY9",
            )
