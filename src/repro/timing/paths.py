"""Static path-delay extraction over structural netlists.

Gives each primitive type a nominal through-delay and sums delays along
an ordered combinational path, including a simple distance-proportional
routing estimate when a placement is available.  This is what sizes the
TDC delay line and the LeakyDSP chain, and what the chain-length
ablation sweeps.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import NetlistError
from repro.fpga.netlist import Cell, Netlist
from repro.fpga.placement import Placement
from repro.fpga.primitives import DSP48E1, DSPStageDelays, IDELAYE2

#: Nominal through-delays per primitive type [s].
PATH_DELAYS = {
    "LUT": 0.12e-9,
    "CARRY4": 4 * 16e-12,  # four carry-mux stages
    "FDRE": 0.0,  # clock-to-out not part of combinational paths here
}

#: Routing delay per grid tile of Manhattan distance [s].
ROUTING_DELAY_PER_TILE = 12e-12
#: Fixed per-net routing delay (local interconnect) [s].
ROUTING_DELAY_BASE = 45e-12


def cell_through_delay(cell: Cell, stage_delays: Optional[DSPStageDelays] = None) -> float:
    """Nominal combinational delay through one cell [s].

    DSP blocks contribute the sum of their un-bypassed stages; IDELAYs
    contribute their current programmed tap delay; fabric primitives use
    the :data:`PATH_DELAYS` table.
    """
    prim = cell.primitive
    if isinstance(prim, DSP48E1):
        return sum(d for _name, d in prim.stage_delays(stage_delays))
    if isinstance(prim, IDELAYE2):
        return prim.delay()
    if cell.type in PATH_DELAYS:
        return PATH_DELAYS[cell.type]
    raise NetlistError(f"no delay model for primitive type {cell.type!r}")


def _routing_delay(
    a: Cell, b: Cell, placement: Optional[Placement]
) -> float:
    if placement is None:
        return ROUTING_DELAY_BASE
    sa = placement.site_of(a.name)
    sb = placement.site_of(b.name)
    manhattan = abs(sa.x - sb.x) + abs(sa.y - sb.y)
    return ROUTING_DELAY_BASE + manhattan * ROUTING_DELAY_PER_TILE


def combinational_path_delay(
    cells: Sequence[Cell],
    placement: Optional[Placement] = None,
    stage_delays: Optional[DSPStageDelays] = None,
) -> float:
    """Total nominal delay [s] along an ordered chain of cells,
    including inter-cell routing."""
    if not cells:
        return 0.0
    total = cell_through_delay(cells[0], stage_delays)
    for prev, cur in zip(cells, cells[1:]):
        total += _routing_delay(prev, cur, placement)
        total += cell_through_delay(cur, stage_delays)
    return total


def dsp_chain_delay(
    netlist: Netlist,
    placement: Optional[Placement] = None,
    stage_delays: Optional[DSPStageDelays] = None,
) -> float:
    """Nominal A-to-P delay of the DSP cascade in a LeakyDSP netlist
    (all DSP cells in name order, which is cascade order by
    construction)."""
    dsps = sorted(
        netlist.cells_of_type("DSP48E1") + netlist.cells_of_type("DSP48E2"),
        key=lambda c: c.name,
    )
    if not dsps:
        raise NetlistError(f"netlist {netlist.name!r} contains no DSP blocks")
    return combinational_path_delay(dsps, placement, stage_delays)
