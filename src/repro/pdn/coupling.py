"""Fast spatial-coupling surrogate of the PDN.

Bulk trace generation (60 k AES traces x 200 sensor samples, 2,000
readouts per characterization point, megabit covert-channel runs) cannot
afford a mesh solve per sample.  This surrogate collapses the mesh into:

``V(s, t) = Vnom - (1 / g(region(s))) * sum_l kappa(d(s, l)) * i_l~(t)``

* ``kappa(d) = r0 * (floor + (1 - floor) * exp(-d / decay))`` — a
  distance-decay transfer resistance with a non-decaying floor that
  models the board/package impedance shared by the whole die.  The
  functional form is fitted against :class:`repro.pdn.mesh.PDNMesh`
  (see :func:`fit_to_mesh` and the calibration tests).
* ``g(region)`` — per-clock-region supply strength, modelling the
  non-uniform power design the paper holds responsible for the
  placement dependence in Fig. 4 and Table I.
* ``i~`` — the load current low-pass filtered with the PDN time
  constant (first-order), which is what limits the attack at higher AES
  frequencies (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants
from repro.errors import ConfigurationError
from repro.fpga.device import DeviceModel

if TYPE_CHECKING:
    from repro.pdn.mesh import PDNMesh

#: Per-device, per-clock-region supply-strength factors.  Values < 1
#: mean a locally weaker supply (more droop seen by a sensor placed
#: there).  The XC7A35T map is calibrated so that region "2" (clock
#: region X1Y0) is the best sensor placement and the top row the worst,
#: matching Fig. 4; the ZU3EG map is mildly non-uniform.
REGION_SUPPLY_FACTORS: Dict[str, Dict[str, float]] = {
    "xc7a35t": {
        "X0Y0": 1.00,
        "X1Y0": 0.84,
        "X0Y1": 1.05,
        "X1Y1": 0.97,
        "X0Y2": 1.12,
        "X1Y2": 1.18,
    },
    "zu3eg": {
        "X0Y0": 1.00,
        "X1Y0": 0.94,
        "X0Y1": 1.03,
        "X1Y1": 0.99,
        "X0Y2": 1.06,
        "X1Y2": 1.02,
        "X0Y3": 1.10,
        "X1Y3": 1.08,
    },
}


@dataclass(frozen=True)
class LoadSite:
    """A point current load on the die."""

    x: float
    y: float
    label: str = ""

    @property
    def position(self) -> Tuple[float, float]:
        """``(x, y)`` grid position."""
        return (self.x, self.y)


class CouplingModel:
    """Fast PDN surrogate for one device.

    Parameters
    ----------
    device:
        The device grid (geometry and clock regions).
    constants:
        Physical constants (kernel parameters, nominal voltage, PDN time
        constant).
    supply_factors:
        Per-region supply strength; defaults to the calibrated map in
        :data:`REGION_SUPPLY_FACTORS` (uniform 1.0 for unknown devices).
    """

    def __init__(
        self,
        device: DeviceModel,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
        supply_factors: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.device = device
        self.constants = constants
        # Per-dt low-pass coefficient cache: the reference acquisition
        # path (the unfused test oracle) calls filter_currents once per
        # chunk with the same sample period, so the (b, a, zi) design is
        # computed once, not per chunk.
        self._filter_designs: Dict[float, Tuple[List[float], List[float], np.ndarray]] = {}
        if supply_factors is None:
            supply_factors = REGION_SUPPLY_FACTORS.get(device.name, {})
        self.supply_factors = dict(supply_factors)
        for name, factor in self.supply_factors.items():
            device.region_by_name(name)  # raises on unknown regions
            if factor <= 0:
                raise ConfigurationError(
                    f"supply factor for region {name} must be positive"
                )

    # ------------------------------------------------------------------
    def cache_token(self) -> Dict[str, object]:
        """Deterministic fingerprint of the surrogate's transfer
        behavior (for :mod:`repro.traces.blockstore` keys): the device
        grid, the per-region supply map and every constant the kappa
        kernel and the low-pass design read.  Derived caches (the
        per-dt filter designs) are deliberately excluded — they are
        recomputed, not configured."""
        import dataclasses

        return {
            "device": self.device.name,
            "supply_factors": {k: float(v) for k, v in self.supply_factors.items()},
            "constants": dataclasses.asdict(self.constants),
        }

    def supply_factor(self, x: float, y: float) -> float:
        """Supply strength g at a die position (region-resolved)."""
        region = self.device.region_of(int(round(x)), int(round(y)))
        return self.supply_factors.get(region.name, 1.0)

    def kappa(self, sensor_pos: Tuple[float, float], load_pos: Tuple[float, float]) -> float:
        """Transfer resistance [V/A] from a load to a sensor position,
        including the sensor-side supply-strength division."""
        c = self.constants
        d = float(np.hypot(sensor_pos[0] - load_pos[0], sensor_pos[1] - load_pos[1]))
        kernel = c.coupling_r0 * (
            c.coupling_floor + (1.0 - c.coupling_floor) * np.exp(-d / c.coupling_decay)
        )
        return kernel / self.supply_factor(*sensor_pos)

    def coupling_vector(
        self,
        sensor_pos: Tuple[float, float],
        loads: Sequence[LoadSite],
    ) -> np.ndarray:
        """Vector of transfer resistances from each load to the sensor."""
        if not loads:
            return np.zeros(0)
        c = self.constants
        xs = np.array([l.x for l in loads], dtype=float)
        ys = np.array([l.y for l in loads], dtype=float)
        d = np.hypot(xs - sensor_pos[0], ys - sensor_pos[1])
        kernel = c.coupling_r0 * (
            c.coupling_floor + (1.0 - c.coupling_floor) * np.exp(-d / c.coupling_decay)
        )
        return kernel / self.supply_factor(*sensor_pos)

    # ------------------------------------------------------------------
    def filter_design(self, dt: float) -> Tuple[List[float], List[float], np.ndarray]:
        """The first-order low-pass design ``(b, a, zi)`` for a sample
        period, cached per ``dt`` (the coefficients and the unit
        steady-state ``lfilter_zi`` are pure functions of ``dt`` and the
        PDN time constant, but recomputing them per chunk is measurable
        at campaign scale)."""
        dt = float(dt)
        design = self._filter_designs.get(dt)
        if design is None:
            from scipy import signal

            pole = float(np.exp(-dt / self.constants.pdn_tau))
            b = [1.0 - pole]
            den = [1.0, -pole]
            zi = signal.lfilter_zi(b, den)
            design = (b, den, zi)
            self._filter_designs[dt] = design
        return design

    def filter_currents(self, currents: np.ndarray, dt: float) -> np.ndarray:
        """First-order low-pass filter with the PDN time constant,
        applied along the last axis.

        The filter starts in steady state at the first sample's value so
        that constant inputs pass through unchanged.
        """
        from scipy import signal

        currents = np.asarray(currents, dtype=float)
        b, den, zi = self.filter_design(dt)
        x0 = currents[..., :1]
        filtered, _ = signal.lfilter(
            b, den, currents, axis=-1, zi=zi * x0
        )
        return filtered


def fit_to_mesh(
    mesh: PDNMesh,
    load_node: Tuple[int, int],
    current: float = 1e-3,
) -> Tuple[float, float, float]:
    """Fit the surrogate kernel parameters to a mesh coupling profile.

    Returns ``(r0, decay, floor)`` such that
    ``r0 * (floor + (1 - floor) * exp(-d / decay))`` least-squares
    matches the mesh's droop-vs-distance profile for a point load.
    Used by the calibration tests and the PDN ablation bench.
    """
    profile = mesh.coupling_profile(load_node, current) / current
    ys, xs = np.mgrid[0 : mesh.ny, 0 : mesh.nx]
    d = np.hypot(xs - load_node[0], ys - load_node[1]).ravel()
    k = profile.ravel()

    r0 = float(k.max())
    floor = float(np.clip(k.min() / r0, 1e-3, 0.95))
    # One-dimensional search over the decay length; closed-form r0/floor
    # refit per candidate keeps this robust without scipy.optimize.
    best = (r0, 10.0, floor)
    best_err = np.inf
    for decay in np.geomspace(1.0, 10.0 * max(mesh.nx, mesh.ny), 200):
        basis = np.exp(-d / decay)
        a = np.column_stack([np.ones_like(basis), basis])
        coef, *_ = np.linalg.lstsq(a, k, rcond=None)
        pred = a @ coef
        err = float(np.mean((pred - k) ** 2))
        if err < best_err and coef[0] > 0 and coef[1] > 0:
            best_err = err
            r0_fit = coef[0] + coef[1]
            floor_fit = coef[0] / r0_fit
            best = (float(r0_fit), float(decay), float(floor_fit))
    return best
