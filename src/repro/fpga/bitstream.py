"""Pseudo-bitstream generation.

Cloud providers that screen tenant designs (AWS F1 style, [28]/[31] in
the paper) operate on the final implementation artifact, not on HDL.  We
model that artifact as a *pseudo-bitstream*: the placed netlist
serialized into per-site configuration records plus the routing
(net connectivity).  The :mod:`repro.defense` checker consumes only this
representation — it never sees the Python objects that built the design —
which keeps the attacker/defender interface honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement


@dataclass(frozen=True)
class ConfigFrame:
    """One site's configuration record."""

    site: str
    site_x: int
    site_y: int
    cell: str
    cell_type: str
    attributes: Tuple[Tuple[str, object], ...]

    def attribute(self, name: str, default=None):
        """Look an attribute value up by name."""
        for key, value in self.attributes:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class RouteRecord:
    """One net's connectivity as visible in the routing frames."""

    net: str
    driver: Tuple[str, str]
    sinks: Tuple[Tuple[str, str], ...]


@dataclass
class Bitstream:
    """A device-independent pseudo-bitstream: configuration frames plus
    routing records."""

    design: str
    device: str
    frames: List[ConfigFrame] = field(default_factory=list)
    routes: List[RouteRecord] = field(default_factory=list)

    def frames_of_type(self, cell_type: str) -> List[ConfigFrame]:
        """All configuration frames for one primitive type."""
        return [f for f in self.frames if f.cell_type == cell_type]

    def frame_for_cell(self, cell: str) -> ConfigFrame:
        """The configuration frame of one named cell."""
        for frame in self.frames:
            if frame.cell == cell:
                return frame
        raise NetlistError(f"no frame for cell {cell!r} in bitstream {self.design!r}")


def reconstruct_netlist(bitstream: Bitstream) -> Netlist:
    """Rebuild a structural netlist from a pseudo-bitstream.

    This is the provider-side inverse of :func:`generate_bitstream`:
    checkers that need graph or timing analysis (e.g. the Section V
    timing rule) reconstruct the design from the submitted artifact
    alone.  Route endpoints that have no configuration frame are
    declared as top-level ports (drivers as inputs, sinks as outputs).
    """
    from repro.fpga.primitives import (
        CARRY4,
        DSP48E1,
        DSP48E2,
        FDRE,
        IDELAYE2,
        IDELAYE3,
        LUT,
    )

    nl = Netlist(bitstream.design)
    for frame in bitstream.frames:
        attrs = dict(frame.attributes)
        if frame.cell_type == "LUT":
            prim = LUT(frame.cell, k=int(attrs["K"]), init=int(attrs["INIT"]))
        elif frame.cell_type == "CARRY4":
            prim = CARRY4(frame.cell)
        elif frame.cell_type == "FDRE":
            prim = FDRE(frame.cell, **attrs)
        elif frame.cell_type == "DSP48E1":
            prim = DSP48E1(frame.cell, **attrs)
        elif frame.cell_type == "DSP48E2":
            prim = DSP48E2(frame.cell, **attrs)
        elif frame.cell_type == "IDELAYE2":
            prim = IDELAYE2(frame.cell, **attrs)
        elif frame.cell_type == "IDELAYE3":
            prim = IDELAYE3(frame.cell, **attrs)
        else:
            raise NetlistError(
                f"bitstream {bitstream.design!r}: unknown cell type "
                f"{frame.cell_type!r}"
            )
        nl.add_cell(prim)

    known = set(nl.cells)
    for route in bitstream.routes:
        driver_cell = route.driver[0]
        if driver_cell not in known and driver_cell not in nl.ports:
            nl.add_port(driver_cell, "in")
        for sink_cell, _port in route.sinks:
            if sink_cell not in known and sink_cell not in nl.ports:
                nl.add_port(sink_cell, "out")
        nl.connect(route.net, tuple(route.driver), list(route.sinks))
    nl.validate()
    return nl


def generate_bitstream(netlist: Netlist, placement: Placement) -> Bitstream:
    """"Bitgen": serialize a placed netlist into a pseudo-bitstream.

    Every cell must be placed; the routing records are the netlist's
    connectivity verbatim (our model has no routing fabric detail).
    """
    netlist.validate()
    frames: List[ConfigFrame] = []
    for cell in netlist.cells.values():
        site = placement.site_of(cell.name)
        attrs: Dict[str, object] = dict(getattr(cell.primitive, "attributes", {}))
        # LUT truth tables are configuration too.
        if hasattr(cell.primitive, "init"):
            attrs["INIT"] = cell.primitive.init
            attrs["K"] = cell.primitive.k
        frames.append(
            ConfigFrame(
                site=site.name,
                site_x=site.x,
                site_y=site.y,
                cell=cell.name,
                cell_type=cell.type,
                attributes=tuple(sorted(attrs.items())),
            )
        )
    routes = [
        RouteRecord(net=n.name, driver=n.driver, sinks=tuple(n.sinks))
        for n in netlist.nets.values()
    ]
    return Bitstream(
        design=netlist.name,
        device=placement.device.name,
        frames=frames,
        routes=routes,
    )
