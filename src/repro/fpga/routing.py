"""Routing-resource model.

Vivado's detailed router is far beyond scope, but two things the paper
(and its related work) rely on do need a routing model:

* **wire delay** — the RDS sensor [29] senses voltage through the delay
  of long routes, and every netlist's timing depends on wire length;
* **routing utilization** — the paper sizes its power virus as covering
  "over 33.3% routing places" of the Basys3; utilization is a property
  of routed wires, not placed cells.

The model routes each net as a star of L-shaped (Manhattan) paths from
the driver site to every sink site, occupying one routing node per tile
crossed.  Delay per connection is the base local-interconnect delay
plus a per-tile increment, matching :mod:`repro.timing.paths`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import NetlistError
from repro.fpga.device import DeviceModel
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement
from repro.timing.paths import ROUTING_DELAY_BASE, ROUTING_DELAY_PER_TILE


def l_shaped_path(
    start: Tuple[int, int], end: Tuple[int, int]
) -> List[Tuple[int, int]]:
    """The horizontal-then-vertical Manhattan path between two tiles,
    inclusive of both endpoints."""
    x0, y0 = start
    x1, y1 = end
    path = []
    step = 1 if x1 >= x0 else -1
    for x in range(x0, x1 + step, step):
        path.append((x, y0))
    step = 1 if y1 >= y0 else -1
    for y in range(y0 + step, y1 + step, step):
        path.append((x1, y))
    return path


@dataclass
class RoutedConnection:
    """One driver-to-sink connection of a routed net."""

    sink_cell: str
    path: List[Tuple[int, int]]

    @property
    def wirelength(self) -> int:
        """Tiles crossed (excluding the driver tile)."""
        return max(0, len(self.path) - 1)

    @property
    def delay(self) -> float:
        """Nominal wire delay of this connection [s]."""
        return ROUTING_DELAY_BASE + self.wirelength * ROUTING_DELAY_PER_TILE


@dataclass
class RoutedNet:
    """A net's routing: one connection per sink."""

    net: str
    driver_cell: str
    connections: List[RoutedConnection] = field(default_factory=list)

    @property
    def wirelength(self) -> int:
        """Total unique tiles occupied by this net's routing tree."""
        tiles: Set[Tuple[int, int]] = set()
        for conn in self.connections:
            tiles.update(conn.path)
        return len(tiles)

    def delay_to(self, sink_cell: str) -> float:
        """Wire delay from the driver to one named sink [s]."""
        for conn in self.connections:
            if conn.sink_cell == sink_cell:
                return conn.delay
        raise NetlistError(
            f"net {self.net!r} has no routed connection to {sink_cell!r}"
        )


@dataclass
class Routing:
    """A design's complete routing plus occupancy statistics."""

    device: DeviceModel
    nets: Dict[str, RoutedNet] = field(default_factory=dict)

    def occupied_tiles(self) -> Set[Tuple[int, int]]:
        """Every tile crossed by at least one routed net."""
        tiles: Set[Tuple[int, int]] = set()
        for net in self.nets.values():
            for conn in net.connections:
                tiles.update(conn.path)
        return tiles

    def utilization(self) -> float:
        """Fraction of the device's tiles carrying routing — the
        statistic behind the paper's '33.3% routing places' sizing."""
        total = self.device.width * self.device.height
        return len(self.occupied_tiles()) / total

    def net(self, name: str) -> RoutedNet:
        """Look a routed net up by name."""
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"net {name!r} is unrouted") from None


class Router:
    """Star router over placed netlists."""

    def __init__(self, device: DeviceModel) -> None:
        self.device = device

    def route(self, netlist: Netlist, placement: Placement) -> Routing:
        """Route every net of a placed netlist.

        Port-driven and port-sinking connections have no physical
        route (the IO pad is the endpoint) and are skipped; every
        cell-to-cell connection must have both endpoints placed.
        """
        routing = Routing(self.device)
        for net in netlist.nets.values():
            if net.driver is None:
                raise NetlistError(f"net {net.name!r} has no driver")
            driver_cell = net.driver[0]
            if driver_cell in netlist.ports:
                continue
            src = placement.site_of(driver_cell)
            routed = RoutedNet(net=net.name, driver_cell=driver_cell)
            for sink_cell, _port in net.sinks:
                if sink_cell in netlist.ports:
                    continue
                dst = placement.site_of(sink_cell)
                routed.connections.append(
                    RoutedConnection(
                        sink_cell=sink_cell,
                        path=l_shaped_path((src.x, src.y), (dst.x, dst.y)),
                    )
                )
            if routed.connections:
                routing.nets[net.name] = routed
        return routing
