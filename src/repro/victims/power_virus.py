"""Power-virus banks (Section IV-A).

The paper's stimulus circuit: thousands of ring-oscillator instances —
each one inverter, one AND enable gate and one flip-flop — divided into
equal groups with independent enables.  Enabling a group makes its
instances oscillate at several hundred MHz, far above the PDN cutoff, so
each active instance contributes an approximately constant current
(:attr:`~repro.config.PhysicalConstants.virus_current_per_instance`)
plus the PDN-filtered turn-on/off transient that the coupling model
applies.

The inverter and AND gate pack into one LUT (out = enable AND NOT
feedback), so an instance costs 1 LUT + 1 FF: the paper's 8,000
instances occupy ~38% of the XC7A35T's LUTs, matching its "about 46% of
available LUT resources" footprint to first order.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants
from repro.errors import ConfigurationError, PlacementError
from repro.fpga.device import DeviceModel
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Pblock, Placement, Placer
from repro.fpga.primitives import FDRE, LUT
from repro.pdn.coupling import CouplingModel

#: LUT2 truth table for ``out = enable AND NOT feedback``
#: (I0 = enable, I1 = feedback).
VIRUS_LUT_INIT = 0b0010


class PowerVirusBank:
    """A bank of grouped RO power-virus instances.

    Parameters
    ----------
    device:
        Device the bank will be placed on.
    n_instances:
        Total RO instances (the paper uses 8,000).
    n_groups:
        Independent enable groups (the paper uses 8 x 1,000).
    constants:
        Physical constants (per-instance current).
    name:
        Instance name prefix.
    """

    def __init__(
        self,
        device: DeviceModel,
        n_instances: int = 8000,
        n_groups: int = 8,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
        name: str = "virus",
    ) -> None:
        if n_instances <= 0 or n_groups <= 0:
            raise ConfigurationError("instance and group counts must be positive")
        if n_instances % n_groups != 0:
            raise ConfigurationError(
                f"{n_instances} instances do not divide into {n_groups} equal groups"
            )
        self.device = device
        self.n_instances = n_instances
        self.n_groups = n_groups
        self.constants = constants
        self.name = name
        self._netlist: Optional[Netlist] = None
        self._positions: Optional[np.ndarray] = None
        self._group_of: Optional[np.ndarray] = None

    @property
    def instances_per_group(self) -> int:
        """Instances in each enable group."""
        return self.n_instances // self.n_groups

    # ------------------------------------------------------------------
    def netlist(self) -> Netlist:
        """Build (once) the full structural netlist: one packed LUT and
        one FF per instance, a shared enable port per group."""
        if self._netlist is None:
            nl = Netlist(self.name)
            for g in range(self.n_groups):
                nl.add_port(f"enable{g}", "in")
            for i in range(self.n_instances):
                lut = LUT(f"{self.name}_lut{i:05d}", k=2, init=VIRUS_LUT_INIT)
                ff = FDRE(f"{self.name}_ff{i:05d}")
                nl.add_cell(lut)
                nl.add_cell(ff)
                group = i % self.n_groups
                nl.connect(
                    f"{self.name}_en{i:05d}",
                    (f"enable{group}", "O"),
                    [(lut.name, "I0")],
                )
                # The combinational loop (and the FF clocked by it).
                nl.connect(
                    f"{self.name}_osc{i:05d}",
                    (lut.name, "O"),
                    [(lut.name, "I1"), (ff.name, "C")],
                )
                nl.connect(
                    f"{self.name}_cnt{i:05d}",
                    (ff.name, "Q"),
                    [(ff.name, "D")],
                )
            nl.validate()
            self._netlist = nl
        return self._netlist

    # ------------------------------------------------------------------
    def place(self, placer: Placer, pblocks: Sequence[Pblock]) -> Placement:
        """Place the bank across one or more Pblocks.

        Instances are split evenly over the Pblocks and group membership
        is assigned round-robin over placed position order, yielding the
        paper's "evenly-distributed" groups: every group covers the same
        area, so activating k groups scales total power by k without
        moving its spatial centroid.
        """
        if not pblocks:
            raise PlacementError("need at least one Pblock for the virus bank")
        netlist = self.netlist()
        per_block = self.n_instances // len(pblocks)
        remainder = self.n_instances % len(pblocks)
        placements = Placement(placer.device)

        start = 0
        for bi, pblock in enumerate(pblocks):
            count = per_block + (1 if bi < remainder else 0)
            sub = Netlist(f"{self.name}_part{bi}")
            for g in range(self.n_groups):
                sub.add_port(f"enable{g}", "in")
            for i in range(start, start + count):
                lut = netlist.cells[f"{self.name}_lut{i:05d}"]
                ff = netlist.cells[f"{self.name}_ff{i:05d}"]
                sub.add_cell(lut.primitive)
                sub.add_cell(ff.primitive)
            placed = placer.place(sub, pblock=pblock)
            placements.assignment.update(placed.assignment)
            start += count

        # Instance positions: the LUT site of each instance.
        pos = np.empty((self.n_instances, 2), dtype=float)
        for i in range(self.n_instances):
            site = placements.site_of(f"{self.name}_lut{i:05d}")
            pos[i] = (site.x, site.y)
        # Round-robin group assignment over spatial order evenly spreads
        # every group across the whole placed area.
        order = np.lexsort((pos[:, 1], pos[:, 0]))
        group_of = np.empty(self.n_instances, dtype=int)
        group_of[order] = np.arange(self.n_instances) % self.n_groups
        self._positions = pos
        self._group_of = group_of
        return placements

    def require_placed(self) -> None:
        """Raise unless :meth:`place` has run."""
        if self._positions is None:
            raise PlacementError(f"virus bank {self.name!r} has not been placed")

    @property
    def positions(self) -> np.ndarray:
        """``(n_instances, 2)`` placed instance positions."""
        self.require_placed()
        return self._positions

    @property
    def group_of(self) -> np.ndarray:
        """``(n_instances,)`` group index per instance."""
        self.require_placed()
        return self._group_of

    # ------------------------------------------------------------------
    def group_kappas(self, coupling: CouplingModel, sensor_pos: Tuple[float, float]) -> np.ndarray:
        """Mean PDN transfer resistance of each group to a sensor
        position [V/A].

        The mean over member instances pairs with the group's *total*
        current from :meth:`group_currents`: droop = mean-kappa @
        total-current reproduces the exact per-instance sum while the
        spatial layout of every instance is fully honoured.
        """
        self.require_placed()
        from repro.pdn.coupling import LoadSite

        loads = [LoadSite(x, y) for x, y in self._positions]
        kappas = coupling.coupling_vector(sensor_pos, loads)
        out = np.zeros(self.n_groups)
        np.add.at(out, self._group_of, kappas)
        counts = np.bincount(self._group_of, minlength=self.n_groups)
        return out / np.maximum(counts, 1)

    def group_currents(self, active_groups: np.ndarray) -> np.ndarray:
        """Per-group drawn current for a 0/1 activation matrix.

        ``active_groups`` is ``(n_groups,)`` or ``(n_groups, n_samples)``
        of 0/1 enables; returns currents of the same shape [A].
        """
        active = np.asarray(active_groups, dtype=float)
        if active.shape[0] != self.n_groups:
            raise ConfigurationError(
                f"activation matrix must have {self.n_groups} rows"
            )
        return active * self.instances_per_group * self.constants.virus_current_per_instance

    def droop_at(
        self,
        coupling: CouplingModel,
        sensor_pos: Tuple[float, float],
        active_groups: np.ndarray,
    ) -> np.ndarray:
        """Steady-state droop [V] at a sensor for a group-activation
        vector or matrix (no PDN filtering — the virus is DC-like)."""
        kappas = self.group_kappas(coupling, sensor_pos)
        currents = self.group_currents(active_groups)
        return kappas @ currents if currents.ndim > 1 else float(kappas @ currents)
