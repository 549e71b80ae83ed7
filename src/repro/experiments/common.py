"""Shared experiment scaffolding: canonical board setups, placements
and scaling.

The characterization and AES experiments run on the Basys3 (XC7A35T)
model; the covert channel on the AXU3EGB (ZU3EG) model, mirroring the
paper's machine settings.  This module pins down the geometry every
experiment shares:

* the AES core sits in the bottom-left of the die (region X0Y0), placed
  once and reused;
* the power virus occupies two tall Pblocks over the bottom 60 rows
  (the paper's "region 1 and 2" victim constraint, extended upward so
  8,000 one-LUT instances fit the XC7A35T's per-region LUT budget);
* Fig. 4 places sensors into the six clock regions, indexed 1..6 in
  paper order (X0Y0=1 ... X1Y2=6);
* Table I / Fig. 5 use eight named sensor placements P1..P8; P6 is the
  best placement (closest coupling to the victim), matching the paper's
  use of P6 for the frequency sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants
from repro.core import LeakyDSP, calibrate
from repro.core.sensor import VoltageSensor
from repro.fpga.device import DeviceModel, xc7a35t, zu3eg
from repro.fpga.placement import Pblock, Placer
from repro.pdn.coupling import CouplingModel
from repro.sensors import TDC
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec
from repro.victims.aes import AESHardwareModel
from repro.victims.power_virus import PowerVirusBank

#: Die position of the AES core on the Basys3 model (region X0Y0).
AES_POSITION: Tuple[float, float] = (10.0, 25.0)

#: The paper's sensor clock.
SENSOR_CLOCK = ClockSpec(300e6)

#: Default AES clock (Sections IV-A/IV-B).
AES_CLOCK = ClockSpec(20e6)

#: Paper region index (1-based) -> clock region name, Fig. 4 order.
FIG4_REGIONS: Dict[int, str] = {
    1: "X0Y0",
    2: "X1Y0",
    3: "X0Y1",
    4: "X1Y1",
    5: "X0Y2",
    6: "X1Y2",
}

#: The eight Table I / Fig. 5 sensor placements.  P6 is the best
#: placement (strongest coupling to the victim), as in the paper.
CPA_PLACEMENTS: Dict[str, str] = {
    "P1": "X0Y0",
    "P2": "X0Y1",
    "P3": "X0Y2",
    "P4": "X1Y2",
    "P5": "X1Y1",
    "P6": "X1Y0",
    "P7": "X0Y1",  # left-half sub-box, see placement_pblock
    "P8": "X1Y1",  # lower-half sub-box, see placement_pblock
}

#: The five placements Fig. 5(b) plots (best, worst, closest to the
#: victim, plus two intermediates).
FIG5_PLACEMENTS: Tuple[str, ...] = ("P1", "P2", "P4", "P6", "P8")

#: Fig. 6 AES clock frequencies [Hz].
FIG6_FREQUENCIES: Tuple[float, ...] = (20e6, 33.333e6, 50e6, 100e6)


def full_scale() -> bool:
    """Whether paper-scale workloads were requested
    (``REPRO_FULL=1``)."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@dataclass
class Basys3Setup:
    """One Basys3 board instance shared by an experiment."""

    device: DeviceModel
    coupling: CouplingModel
    placer: Placer
    constants: PhysicalConstants

    @classmethod
    def create(cls, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "Basys3Setup":
        """Fresh board with shared placement occupancy."""
        device = xc7a35t()
        return cls(
            device=device,
            coupling=CouplingModel(device, constants=constants),
            placer=Placer(device),
            constants=constants,
        )


@dataclass
class AXU3EGBSetup:
    """One AXU3EGB (ZU3EG) board instance for the covert channel."""

    device: DeviceModel
    coupling: CouplingModel
    placer: Placer
    constants: PhysicalConstants

    @classmethod
    def create(cls, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "AXU3EGBSetup":
        """Fresh board with shared placement occupancy."""
        device = zu3eg()
        return cls(
            device=device,
            coupling=CouplingModel(device, constants=constants),
            placer=Placer(device),
            constants=constants,
        )


# ----------------------------------------------------------------------
# Pblocks
# ----------------------------------------------------------------------


def victim_pblocks(device: DeviceModel) -> List[Pblock]:
    """The power virus's two placement boxes: left and right halves of
    the bottom 40% of the die."""
    half = device.width // 2
    height = int(device.height * 0.4)
    return [
        Pblock("victim_left", 0, 0, half - 1, height - 1),
        Pblock("victim_right", half, 0, device.width - 1, height - 1),
    ]


def region_pblock(device: DeviceModel, region_index: int) -> Pblock:
    """The Fig. 4 sensor Pblock for a 1-based paper region index."""
    name = FIG4_REGIONS[region_index]
    return Pblock.from_region(device.region_by_name(name))


def placement_pblock(device: DeviceModel, placement: str) -> Pblock:
    """The Table I sensor Pblock for a named placement P1..P8."""
    region = device.region_by_name(CPA_PLACEMENTS[placement])
    if placement == "P7":
        # Left half of region X0Y1.
        mid_x = (region.x0 + region.x1) // 2
        return Pblock("pblock_P7", region.x0, region.y0, mid_x, region.y1)
    if placement == "P8":
        # Lower half of region X1Y1.
        mid_y = (region.y0 + region.y1) // 2
        return Pblock("pblock_P8", region.x0, region.y0, region.x1, mid_y)
    return Pblock.from_region(region, name=f"pblock_{placement}")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def make_leakydsp(
    setup,
    pblock: Pblock,
    seed: int = 7,
    n_blocks: int = 3,
    calibration_rng: int = 0,
) -> LeakyDSP:
    """A placed, calibrated LeakyDSP sensor."""
    sensor = LeakyDSP(
        device=setup.device,
        n_blocks=n_blocks,
        clock=SENSOR_CLOCK,
        constants=setup.constants,
        seed=seed,
        name=f"leakydsp_{pblock.name}",
    )
    sensor.place(setup.placer, pblock=pblock)
    calibrate(sensor, rng=calibration_rng)
    return sensor


def make_tdc(
    setup,
    pblock: Pblock,
    seed: int = 7,
    calibration_rng: int = 0,
) -> TDC:
    """A placed, calibrated TDC baseline sensor."""
    sensor = TDC(
        device=setup.device,
        clock=SENSOR_CLOCK,
        constants=setup.constants,
        seed=seed,
        name=f"tdc_{pblock.name}",
    )
    sensor.place(setup.placer, pblock=pblock)
    calibrate(sensor, rng=calibration_rng)
    return sensor


def make_virus(setup, n_instances: int = 8000, n_groups: int = 8) -> PowerVirusBank:
    """A placed power-virus bank in the victim Pblocks."""
    virus = PowerVirusBank(
        setup.device, n_instances, n_groups, constants=setup.constants
    )
    virus.place(setup.placer, victim_pblocks(setup.device))
    return virus


def make_hw_model(
    aes_clock: ClockSpec = AES_CLOCK,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> AESHardwareModel:
    """The AES hardware model at a given victim clock."""
    return AESHardwareModel(aes_clock, SENSOR_CLOCK, constants=constants)


# ----------------------------------------------------------------------
# Acquisition specs — the normalized entry point every AES experiment
# builds its harnesses through.  Each spec gets a fresh board (like
# reflashing the FPGA between campaigns); specs built this way are
# value-compatible (same hardware/noise configuration, one shared
# default kernel instance), so any subset can fan out together in a
# MultiSensorAcquisition.
# ----------------------------------------------------------------------


def placement_spec(
    placement: str,
    sensor_type: str = "LeakyDSP",
    aes_clock: ClockSpec = AES_CLOCK,
    seed: int = 7,
) -> AcquisitionSpec:
    """The Table I / Fig. 5 acquisition spec for one named placement
    P1..P8 (fresh board per spec)."""
    setup = Basys3Setup.create()
    pblock = placement_pblock(setup.device, placement)
    if sensor_type == "LeakyDSP":
        sensor = make_leakydsp(setup, pblock, seed=seed)
    elif sensor_type == "TDC":
        sensor = make_tdc(setup, pblock, seed=seed)
    else:
        raise ValueError(f"unknown sensor type {sensor_type!r}")
    hw = make_hw_model(aes_clock, setup.constants)
    return AcquisitionSpec(
        sensor=sensor,
        coupling=setup.coupling,
        hw_model=hw,
        aes_position=AES_POSITION,
    )


def placement_specs(
    placements,
    sensor_type: str = "LeakyDSP",
    aes_clock: ClockSpec = AES_CLOCK,
    seed: int = 7,
) -> List[AcquisitionSpec]:
    """One :func:`placement_spec` per named placement, in order —
    ready to fan out as one ``MultiSensorAcquisition``."""
    return [
        placement_spec(p, sensor_type, aes_clock, seed) for p in placements
    ]


def region_sensors(setup, maker=make_leakydsp, seed: int = 7) -> List[VoltageSensor]:
    """One placed, calibrated sensor per Fig. 4 clock region, in paper
    order (region index ``i`` seeded ``seed + i``, matching the
    per-region campaigns)."""
    return [
        maker(setup, region_pblock(setup.device, index), seed=seed + index)
        for index in FIG4_REGIONS
    ]


def last_round_window(hw_model: AESHardwareModel, n_samples: int) -> Tuple[int, int]:
    """The trace-sample window bracketing the final AES rounds (the
    attacker knows the trigger-to-last-round timing)."""
    spc = hw_model.samples_per_cycle
    return (9 * spc, min(n_samples, 13 * spc))
