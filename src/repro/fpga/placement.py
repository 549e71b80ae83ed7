"""Placement: Pblocks, site occupancy and a greedy legal placer.

The paper constrains sensor and victim circuits into rectangular
Pblocks (Fig. 4's six regions, Fig. 5's eight placements) and otherwise
lets Vivado place freely.  We reproduce that: a :class:`Pblock` is a
rectangle on the device grid (optionally derived from a clock region)
and :class:`Placer` assigns every cell of a netlist to a legal site
inside its Pblock, packing slices to their real capacity (4 LUTs, 8 FFs
and 1 CARRY4 per slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PlacementError
from repro.fpga.device import (
    ClockRegion,
    DeviceModel,
    FFS_PER_SLICE,
    LUTS_PER_SLICE,
    Site,
    SiteType,
)
from repro.fpga.netlist import Cell, Netlist
from repro.fpga.primitives import CARRY4, DSP48E1, FDRE, IDELAYE2, LUT

#: Per-slice capacity for each packable resource kind.
SLICE_CAPACITY = {"LUT": LUTS_PER_SLICE, "FDRE": FFS_PER_SLICE, "CARRY4": 1}


def site_type_for_cell(cell: Cell) -> SiteType:
    """Which :class:`SiteType` a cell's primitive must be placed on."""
    prim = cell.primitive
    if isinstance(prim, DSP48E1):  # covers DSP48E2 subclass
        return SiteType.DSP
    if isinstance(prim, IDELAYE2):  # covers IDELAYE3 subclass
        return SiteType.IDELAY
    if isinstance(prim, (LUT, FDRE, CARRY4)):
        return SiteType.SLICE
    raise PlacementError(f"no site type known for primitive {prim.TYPE!r}")


@dataclass(frozen=True)
class Pblock:
    """A rectangular placement constraint on the device grid."""

    name: str
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise PlacementError(
                f"Pblock {self.name!r}: degenerate rectangle "
                f"({self.x0},{self.y0})..({self.x1},{self.y1})"
            )

    @classmethod
    def from_region(cls, region: ClockRegion, name: Optional[str] = None) -> "Pblock":
        """A Pblock exactly covering one clock region."""
        return cls(name or f"pblock_{region.name}", region.x0, region.y0, region.x1, region.y1)

    @classmethod
    def whole_device(cls, device: DeviceModel, name: str = "pblock_all") -> "Pblock":
        """A Pblock covering the whole die (i.e. unconstrained)."""
        return cls(name, 0, 0, device.width - 1, device.height - 1)

    def contains(self, site: Site) -> bool:
        """Whether a site lies inside this Pblock."""
        return self.x0 <= site.x <= self.x1 and self.y0 <= site.y <= self.y1

    @property
    def center(self) -> Tuple[float, float]:
        """Geometric centre of the Pblock."""
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


@dataclass
class Placement:
    """Result of placing a netlist: cell name -> site."""

    device: DeviceModel
    assignment: Dict[str, Site] = field(default_factory=dict)

    def site_of(self, cell_name: str) -> Site:
        """The site a cell was placed on."""
        try:
            return self.assignment[cell_name]
        except KeyError:
            raise PlacementError(f"cell {cell_name!r} is unplaced") from None

    def centroid(self) -> Tuple[float, float]:
        """Mean position of all placed cells (the point the PDN model
        treats as the circuit's location)."""
        if not self.assignment:
            raise PlacementError("empty placement has no centroid")
        xs = [s.x for s in self.assignment.values()]
        ys = [s.y for s in self.assignment.values()]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    def __len__(self) -> int:
        return len(self.assignment)


class _Occupancy:
    """Tracks per-site resource usage across placement calls."""

    def __init__(self) -> None:
        self._used: Dict[str, Dict[str, int]] = {}

    def fits(self, site: Site, kind: str) -> bool:
        used = self._used.get(site.name, {})
        if site.site_type is SiteType.SLICE:
            cap = SLICE_CAPACITY.get(kind, 0)
            return used.get(kind, 0) < cap
        # DSP / IDELAY / IO sites hold exactly one cell.
        return sum(used.values()) == 0

    def take(self, site: Site, kind: str) -> None:
        self._used.setdefault(site.name, {})
        self._used[site.name][kind] = self._used[site.name].get(kind, 0) + 1

    def used_sites(self) -> int:
        return len(self._used)


class Placer:
    """Greedy legal placer.

    Cells are placed one at a time onto the free compatible site nearest
    the Pblock centre (or a caller-supplied anchor), which reproduces
    the compact clustered placements Vivado produces for small Pblocked
    designs.  Occupancy is shared across calls so that several tenants'
    netlists can be placed onto one device without overlap — the
    multi-tenant scenario of the paper.
    """

    def __init__(self, device: DeviceModel) -> None:
        self.device = device
        self._occupancy = _Occupancy()
        self._sites_by_type: Dict[SiteType, List[Site]] = {}

    def _candidate_sites(self, site_type: SiteType) -> List[Site]:
        if site_type not in self._sites_by_type:
            self._sites_by_type[site_type] = self.device.sites_of_type(site_type)
        return self._sites_by_type[site_type]

    def place(
        self,
        netlist: Netlist,
        pblock: Optional[Pblock] = None,
        anchor: Optional[Tuple[float, float]] = None,
    ) -> Placement:
        """Place every cell of ``netlist`` inside ``pblock``.

        Raises :class:`PlacementError` when the Pblock cannot fit the
        netlist (the paper's resource-budget constraint: a tenant's
        virtual region has finitely many DSP columns).
        """
        pblock = pblock or Pblock.whole_device(self.device)
        ax, ay = anchor or pblock.center
        placement = Placement(self.device)

        def distance(site: Site) -> float:
            return (site.x - ax) ** 2 + (site.y - ay) ** 2

        # Candidate sites inside the Pblock, nearest-first, computed once
        # per site type.  A per-resource-kind pointer scans each list:
        # once a site is full for a kind it never frees up, so the scan
        # is linear overall instead of quadratic in design size.
        sorted_candidates: Dict[SiteType, List[Site]] = {}
        pointers: Dict[Tuple[SiteType, str], int] = {}

        def candidates_for(stype: SiteType) -> List[Site]:
            if stype not in sorted_candidates:
                sorted_candidates[stype] = sorted(
                    (s for s in self._candidate_sites(stype) if pblock.contains(s)),
                    key=distance,
                )
            return sorted_candidates[stype]

        # Place DSPs first (scarcest), then IDELAYs, then slice cells.
        order = sorted(
            netlist.cells.values(),
            key=lambda c: {SiteType.DSP: 0, SiteType.IDELAY: 1}.get(
                site_type_for_cell(c), 2
            ),
        )
        for cell in order:
            stype = site_type_for_cell(cell)
            kind = "LUT" if isinstance(cell.primitive, LUT) else cell.type
            sites = candidates_for(stype)
            i = pointers.get((stype, kind), 0)
            while i < len(sites) and not self._occupancy.fits(sites[i], kind):
                i += 1
            pointers[(stype, kind)] = i
            if i >= len(sites):
                raise PlacementError(
                    f"no free {stype.value} site in {pblock.name!r} for "
                    f"cell {cell.name!r} ({cell.type})"
                )
            site = sites[i]
            self._occupancy.take(site, kind)
            placement.assignment[cell.name] = site
        return placement
