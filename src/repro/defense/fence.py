"""Active-fence noise injection ([12], [17] in the paper).

A defender surrounds sensitive logic with its own switching circuits
driven by a random sequence, obscuring the victim's power pattern.  In
the PDN surrogate this adds an uncorrelated random current at the fence
positions; at the attacker's sensor it appears as extra voltage noise
whose RMS depends on the fence size and its coupling to the sensor.

:meth:`ActiveFence.noise_at` computes that equivalent voltage noise,
and :meth:`ActiveFence.harden` folds it into a
:class:`~repro.pdn.noise.NoiseModel` so the existing acquisition
harness runs the attack against the hardened system unchanged — the
defense-ablation bench measures how many extra traces the fence costs
the attacker.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants
from repro.errors import ConfigurationError
from repro.pdn.coupling import CouplingModel, LoadSite
from repro.pdn.noise import NoiseModel


class ActiveFence:
    """A ring of defender-controlled switching instances.

    Parameters
    ----------
    coupling:
        PDN surrogate of the shared device.
    center:
        Position the fence protects (the victim's centroid).
    radius:
        Fence ring radius [tiles].
    n_instances:
        Fence switching instances, evenly spread on the ring.
    duty_std:
        Standard deviation of the per-sample random activation
        fraction (a duty-cycled fence; 0.5 = full-swing random).
    constants:
        Physical constants (per-instance current).
    """

    def __init__(
        self,
        coupling: CouplingModel,
        center: Tuple[float, float],
        radius: float = 10.0,
        n_instances: int = 2000,
        duty_std: float = 0.5,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
    ) -> None:
        if radius <= 0 or n_instances <= 0:
            raise ConfigurationError("fence radius and size must be positive")
        if not 0 < duty_std <= 0.5:
            raise ConfigurationError("duty_std must be in (0, 0.5]")
        self.coupling = coupling
        self.center = center
        self.radius = radius
        self.n_instances = n_instances
        self.duty_std = duty_std
        self.constants = constants
        angles = np.linspace(0.0, 2 * np.pi, n_instances, endpoint=False)
        xs = np.clip(center[0] + radius * np.cos(angles), 0, coupling.device.width - 1)
        ys = np.clip(center[1] + radius * np.sin(angles), 0, coupling.device.height - 1)
        self.sites = [LoadSite(x, y, label="fence") for x, y in zip(xs, ys)]

    # ------------------------------------------------------------------
    def noise_at(self, sensor_pos: Tuple[float, float]) -> float:
        """Equivalent RMS voltage noise [V] the fence injects at a
        sensor position."""
        kappas = self.coupling.coupling_vector(sensor_pos, self.sites)
        per_instance = self.constants.virus_current_per_instance
        # Random per-sample duty: the instance currents are perfectly
        # correlated within one fence drive word, so amplitudes add.
        return float(kappas.sum() * per_instance * self.duty_std)

    def harden(self, base: NoiseModel, sensor_pos: Tuple[float, float]) -> NoiseModel:
        """A copy of ``base`` with the fence noise folded into the white
        component (RMS-summed)."""
        fence_rms = self.noise_at(sensor_pos)
        return NoiseModel(
            white_rms=float(np.hypot(base.white_rms, fence_rms)),
            drift_rms=base.drift_rms,
            burst_rate=base.burst_rate,
            burst_amplitude=base.burst_amplitude,
        )
