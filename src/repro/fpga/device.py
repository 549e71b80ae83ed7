"""Device models for the two FPGA parts used in the paper.

The paper runs its characterization and AES attacks on a Digilent Basys3
board (Xilinx Artix-7 XC7A35T) and its covert channel on an ALINX
AXU3EGB board (Zynq UltraScale+ ZU3EG).  This module models both parts
as two-dimensional grids of *sites*:

* ``SLICE`` sites carry 4 LUTs, 8 flip-flops and one CARRY4 each
  (7-series slice organisation; we keep the same organisation for the
  UltraScale+ part — the attack never depends on the difference).
* ``DSP`` sites each hold one DSP48E1 (7-series) or DSP48E2
  (UltraScale+) block.  DSP sites are arranged in dedicated columns,
  exactly like real parts, which is what makes DSP-only Pblocks and the
  paper's "DSP blocks are partitioned into separate virtual areas"
  tenancy model representable.
* ``IO``/``IDELAY`` sites at the die edges host IDELAYE2/E3 primitives.

The grid is divided into clock regions (named ``X{col}Y{row}`` like
Vivado does).  The XC7A35T has six clock regions — the same six regions
the paper uses as sensor placements in Fig. 4.

Geometry is chosen so that total resource counts approximate the real
parts (XC7A35T: 5,200 slices / 20,800 LUTs / 41,600 FFs / 90 DSPs;
ZU3EG: ~11,040 slice-equivalents / 360 DSPs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: LUTs per slice site (7-series SLICEL/SLICEM organisation).
LUTS_PER_SLICE = 4
#: Flip-flops per slice site.
FFS_PER_SLICE = 8


class SiteType(enum.Enum):
    """Kinds of placement sites the device grid contains."""

    SLICE = "SLICE"
    DSP = "DSP"
    BRAM = "BRAM"
    IO = "IO"
    IDELAY = "IDELAY"


@dataclass(frozen=True)
class Site:
    """One placement site on the device grid.

    Attributes
    ----------
    name:
        Vivado-style site name, e.g. ``SLICE_X12Y48`` or ``DSP48_X1Y7``.
    site_type:
        The :class:`SiteType` of this site.
    x, y:
        Global grid coordinates (tile units).  All distances in the PDN
        model are computed in these units.
    """

    name: str
    site_type: SiteType
    x: int
    y: int

    @property
    def position(self) -> Tuple[int, int]:
        """``(x, y)`` tuple of the site's grid coordinates."""
        return (self.x, self.y)


@dataclass(frozen=True)
class ClockRegion:
    """A rectangular clock region of the device, named like Vivado
    (``X0Y0`` is the bottom-left region)."""

    name: str
    col: int
    row: int
    x0: int
    y0: int
    x1: int
    y1: int

    def contains(self, x: int, y: int) -> bool:
        """Whether grid coordinate ``(x, y)`` lies inside this region."""
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    @property
    def center(self) -> Tuple[float, float]:
        """Geometric centre of the region in grid coordinates."""
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


class DeviceModel:
    """A parameterized FPGA device grid.

    Parameters
    ----------
    name:
        Part name, e.g. ``"xc7a35t"``.
    width, height:
        Grid extent in tile units.
    region_cols, region_rows:
        Number of clock-region columns and rows; the grid is split
        evenly between them.
    dsp_columns:
        X coordinates of the dedicated DSP columns.
    dsp_row_pitch:
        One DSP site every ``dsp_row_pitch`` rows within a DSP column.
    dsp_family:
        ``"DSP48E1"`` or ``"DSP48E2"`` — which primitive the DSP sites
        accept.
    idelay_family:
        ``"IDELAYE2"`` or ``"IDELAYE3"``.
    bram_columns:
        X coordinates of block-RAM columns (occupy sites but are
        otherwise inert in this model).
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        region_cols: int,
        region_rows: int,
        dsp_columns: Sequence[int],
        dsp_row_pitch: int,
        dsp_family: str = "DSP48E1",
        idelay_family: str = "IDELAYE2",
        bram_columns: Sequence[int] = (),
    ) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError("device grid must have positive extent")
        if height % region_rows != 0 or width % region_cols != 0:
            raise ConfigurationError(
                "grid extent must divide evenly into clock regions "
                f"(got {width}x{height} for {region_cols}x{region_rows} regions)"
            )
        if dsp_family not in ("DSP48E1", "DSP48E2"):
            raise ConfigurationError(f"unknown DSP family {dsp_family!r}")
        if idelay_family not in ("IDELAYE2", "IDELAYE3"):
            raise ConfigurationError(f"unknown IDELAY family {idelay_family!r}")
        for x in dsp_columns:
            if not 0 <= x < width:
                raise ConfigurationError(f"DSP column x={x} outside grid")

        self.name = name
        self.width = width
        self.height = height
        self.region_cols = region_cols
        self.region_rows = region_rows
        self.dsp_columns = tuple(sorted(dsp_columns))
        self.dsp_row_pitch = dsp_row_pitch
        self.dsp_family = dsp_family
        self.idelay_family = idelay_family
        self.bram_columns = tuple(sorted(bram_columns))
        # IO columns sit at both die edges; IDELAYs live there too.
        self.io_columns = (0, width - 1)

        self._sites: Optional[Dict[str, Site]] = None
        self._regions = self._build_regions()

    # ------------------------------------------------------------------
    # Clock regions
    # ------------------------------------------------------------------
    def _build_regions(self) -> List[ClockRegion]:
        rw = self.width // self.region_cols
        rh = self.height // self.region_rows
        regions = []
        for row in range(self.region_rows):
            for col in range(self.region_cols):
                regions.append(
                    ClockRegion(
                        name=f"X{col}Y{row}",
                        col=col,
                        row=row,
                        x0=col * rw,
                        y0=row * rh,
                        x1=(col + 1) * rw - 1,
                        y1=(row + 1) * rh - 1,
                    )
                )
        return regions

    @property
    def clock_regions(self) -> List[ClockRegion]:
        """All clock regions, bottom-left first, row-major."""
        return list(self._regions)

    def region_of(self, x: int, y: int) -> ClockRegion:
        """The clock region containing grid coordinate ``(x, y)``."""
        for region in self._regions:
            if region.contains(x, y):
                return region
        raise ConfigurationError(f"({x}, {y}) outside the {self.name} grid")

    def region_by_name(self, name: str) -> ClockRegion:
        """Look a clock region up by its ``X{col}Y{row}`` name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise ConfigurationError(f"no clock region named {name!r} on {self.name}")

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def _column_kind(self, x: int) -> SiteType:
        if x in self.io_columns:
            return SiteType.IO
        if x in self.dsp_columns:
            return SiteType.DSP
        if x in self.bram_columns:
            return SiteType.BRAM
        return SiteType.SLICE

    def _build_sites(self) -> Dict[str, Site]:
        sites: Dict[str, Site] = {}
        slice_index: Dict[int, int] = {}
        dsp_counters: Dict[int, int] = {}
        bram_counters: Dict[int, int] = {}
        slice_col_of: Dict[int, int] = {}
        next_slice_col = 0
        for x in range(self.width):
            kind = self._column_kind(x)
            if kind is SiteType.SLICE:
                slice_col_of[x] = next_slice_col
                next_slice_col += 1
        dsp_col_of = {x: i for i, x in enumerate(self.dsp_columns)}
        bram_col_of = {x: i for i, x in enumerate(self.bram_columns)}

        for x in range(self.width):
            kind = self._column_kind(x)
            for y in range(self.height):
                if kind is SiteType.SLICE:
                    name = f"SLICE_X{slice_col_of[x]}Y{y}"
                    sites[name] = Site(name, SiteType.SLICE, x, y)
                elif kind is SiteType.DSP:
                    if y % self.dsp_row_pitch == 0:
                        col = dsp_col_of[x]
                        idx = dsp_counters.get(x, 0)
                        dsp_counters[x] = idx + 1
                        name = f"DSP48_X{col}Y{idx}"
                        sites[name] = Site(name, SiteType.DSP, x, y)
                elif kind is SiteType.BRAM:
                    if y % 5 == 0:
                        col = bram_col_of[x]
                        idx = bram_counters.get(x, 0)
                        bram_counters[x] = idx + 1
                        name = f"RAMB36_X{col}Y{idx}"
                        sites[name] = Site(name, SiteType.BRAM, x, y)
                elif kind is SiteType.IO:
                    side = "L" if x == 0 else "R"
                    name = f"IOB_{side}Y{y}"
                    sites[name] = Site(name, SiteType.IO, x, y)
                    # One IDELAY per IO row, co-located with the pad.
                    dname = f"IDELAY_{side}Y{y}"
                    sites[dname] = Site(dname, SiteType.IDELAY, x, y)
        del slice_index
        return sites

    @property
    def sites(self) -> Dict[str, Site]:
        """All sites on the device, keyed by name (built lazily)."""
        if self._sites is None:
            self._sites = self._build_sites()
        return self._sites

    def sites_of_type(self, site_type: SiteType) -> List[Site]:
        """All sites of one :class:`SiteType`, in name order."""
        return sorted(
            (s for s in self.sites.values() if s.site_type is site_type),
            key=lambda s: (s.x, s.y),
        )

    def site(self, name: str) -> Site:
        """Look a site up by name."""
        try:
            return self.sites[name]
        except KeyError:
            raise ConfigurationError(f"no site named {name!r} on {self.name}") from None

    # ------------------------------------------------------------------
    # Resource counts
    # ------------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        """Total SLICE sites."""
        return len(self.sites_of_type(SiteType.SLICE))

    @property
    def num_luts(self) -> int:
        """Total LUTs (4 per slice)."""
        return self.num_slices * LUTS_PER_SLICE

    @property
    def num_dsps(self) -> int:
        """Total DSP sites."""
        return len(self.sites_of_type(SiteType.DSP))

    @property
    def center(self) -> Tuple[float, float]:
        """Geometric centre of the die in grid coordinates."""
        return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)

    def contains(self, x: int, y: int) -> bool:
        """Whether ``(x, y)`` lies on the die."""
        return 0 <= x < self.width and 0 <= y < self.height

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeviceModel({self.name!r}, {self.width}x{self.height}, "
            f"{self.num_slices} slices, {self.num_dsps} DSPs)"
        )


def xc7a35t() -> DeviceModel:
    """The Artix-7 XC7A35T as found on the Digilent Basys3 board.

    Six clock regions (2 columns x 3 rows, named X0Y0..X1Y2) — these are
    the six sensor placement regions of Fig. 4.  Three DSP columns with
    30 DSP48E1 sites each (one every 5 rows over 150 rows) give the
    part's 90 DSP blocks.  35 slice columns x 150 rows = 5,250 slices
    ~ the real part's 5,200 (20,800 LUTs / 41,600 FFs).
    """
    return DeviceModel(
        name="xc7a35t",
        width=42,
        height=150,
        region_cols=2,
        region_rows=3,
        dsp_columns=(8, 20, 34),
        dsp_row_pitch=5,
        dsp_family="DSP48E1",
        idelay_family="IDELAYE2",
        bram_columns=(14, 28),
    )


def zu3eg() -> DeviceModel:
    """The Zynq UltraScale+ ZU3EG as found on the ALINX AXU3EGB board.

    Eight clock regions (2 columns x 4 rows).  Six DSP columns of 60
    DSP48E2 sites each give the part's 360 DSP blocks.
    """
    return DeviceModel(
        name="zu3eg",
        width=64,
        height=240,
        region_cols=2,
        region_rows=4,
        dsp_columns=(6, 16, 26, 38, 48, 58),
        dsp_row_pitch=4,
        dsp_family="DSP48E2",
        idelay_family="IDELAYE3",
        bram_columns=(12, 32, 52),
    )
