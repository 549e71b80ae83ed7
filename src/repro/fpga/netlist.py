"""Structural netlists of vendor primitives.

A :class:`Netlist` is a set of named :class:`Cell` objects (each
wrapping a :class:`~repro.fpga.primitives.Primitive` instance) connected
by :class:`Net` objects.  This is the representation "synthesis" hands
to the placer and the pseudo-bitstream generator, and the representation
the defense checker scans for malicious structures (combinational loops,
TDC-style carry/FF ladders, unregistered DSP cascades).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.fpga.primitives import DSP48E1, FDRE, Primitive

if TYPE_CHECKING:
    import networkx as nx

#: A pin is a (cell name, port name) pair.
Pin = Tuple[str, str]


@dataclass
class Cell:
    """A named instance of a primitive in a netlist."""

    name: str
    primitive: Primitive

    @property
    def type(self) -> str:
        """Primitive type string, e.g. ``"DSP48E1"``."""
        return self.primitive.TYPE

    @property
    def is_sequential_barrier(self) -> bool:
        """Whether this cell registers its outputs, breaking any
        combinational path that runs through it.

        Flip-flops always do.  DSP blocks do when at least one pipeline
        register on the A->P path is instantiated.  LUTs, carry chains
        and delay lines never do.
        """
        if isinstance(self.primitive, FDRE):
            return True
        if isinstance(self.primitive, DSP48E1):
            return self.primitive.pipeline_depth > 0
        return False


@dataclass
class Net:
    """A signal net: one driver pin fanning out to sink pins."""

    name: str
    driver: Optional[Pin] = None
    sinks: List[Pin] = field(default_factory=list)

    def set_driver(self, cell: str, port: str) -> None:
        """Attach the driving pin; a net may only be driven once."""
        if self.driver is not None:
            raise NetlistError(
                f"net {self.name!r} already driven by {self.driver}; "
                f"cannot add driver ({cell}, {port})"
            )
        self.driver = (cell, port)

    def add_sink(self, cell: str, port: str) -> None:
        """Attach a sink pin (fanout is unlimited)."""
        self.sinks.append((cell, port))


class Netlist:
    """A structural netlist with validation, graph export and
    combinational-loop detection.

    Top-level ports are modelled as pseudo-cells of type ``PORT`` so
    that externally-driven nets validate cleanly.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self.nets: Dict[str, Net] = {}
        self.ports: Dict[str, str] = {}  # name -> "in" | "out"

    # -- construction --------------------------------------------------
    def add_cell(self, primitive: Primitive, name: Optional[str] = None) -> Cell:
        """Add a primitive instance; the cell name defaults to the
        primitive's own name."""
        cell_name = name or primitive.name
        if cell_name in self.cells:
            raise NetlistError(f"duplicate cell name {cell_name!r}")
        cell = Cell(cell_name, primitive)
        self.cells[cell_name] = cell
        return cell

    def add_port(self, name: str, direction: str) -> None:
        """Declare a top-level port (``"in"`` or ``"out"``)."""
        if direction not in ("in", "out"):
            raise NetlistError(f"port {name!r}: direction must be 'in' or 'out'")
        if name in self.ports:
            raise NetlistError(f"duplicate port name {name!r}")
        self.ports[name] = direction

    def add_net(self, name: str) -> Net:
        """Create an empty net."""
        if name in self.nets:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name)
        self.nets[name] = net
        return net

    def connect(self, net_name: str, driver: Pin, sinks: Sequence[Pin]) -> Net:
        """Create a net, set its driver and attach its sinks in one go."""
        net = self.add_net(net_name)
        net.set_driver(*driver)
        for cell, port in sinks:
            net.add_sink(cell, port)
        return net

    # -- queries ---------------------------------------------------------
    def cells_of_type(self, type_name: str) -> List[Cell]:
        """All cells whose primitive TYPE matches ``type_name``."""
        return [c for c in self.cells.values() if c.type == type_name]

    def count_by_type(self) -> Dict[str, int]:
        """Histogram of primitive types in the netlist."""
        counts: Dict[str, int] = {}
        for cell in self.cells.values():
            counts[cell.type] = counts.get(cell.type, 0) + 1
        return counts

    def _pin_cell_exists(self, pin: Pin) -> bool:
        cell, _port = pin
        return cell in self.cells or cell in self.ports

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling nets, undriven nets
        or references to undeclared cells."""
        for net in self.nets.values():
            if net.driver is None:
                raise NetlistError(f"net {net.name!r} has no driver")
            if not self._pin_cell_exists(net.driver):
                raise NetlistError(
                    f"net {net.name!r}: driver cell {net.driver[0]!r} not declared"
                )
            for pin in net.sinks:
                if not self._pin_cell_exists(pin):
                    raise NetlistError(
                        f"net {net.name!r}: sink cell {pin[0]!r} not declared"
                    )
            if not net.sinks:
                raise NetlistError(f"net {net.name!r} has no sinks")

    # -- graph & loop analysis -------------------------------------------
    def graph(self) -> "nx.DiGraph":
        """Cell-level connectivity graph: an edge u->v for every net
        driven by cell u with a sink on cell v.  Ports appear as nodes
        of type ``PORT``."""
        import networkx as nx

        g = nx.DiGraph()
        for cell in self.cells.values():
            g.add_node(cell.name, type=cell.type)
        for port in self.ports:
            g.add_node(port, type="PORT")
        for net in self.nets.values():
            if net.driver is None:
                continue
            src = net.driver[0]
            for cell, _port in net.sinks:
                g.add_edge(src, cell, net=net.name)
        return g

    def combinational_loops(self) -> List[List[str]]:
        """Find combinational loops (cycles that pass through no
        sequential barrier).

        This is the structural check AWS-style bitstream scrutiny
        performs to reject ring oscillators; LeakyDSP contains none,
        which is the paper's evasion argument.
        """
        import networkx as nx

        g = self.graph()
        barrier_nodes = {
            c.name
            for c in self.cells.values()
            if c.is_sequential_barrier
        } | set(self.ports)
        comb = g.subgraph(n for n in g.nodes if n not in barrier_nodes)
        return [list(cycle) for cycle in nx.simple_cycles(comb)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, {len(self.cells)} cells, "
            f"{len(self.nets)} nets)"
        )
