"""Ring-oscillator counter sensor.

The classic pre-TDC design: a LUT inverter closed into a combinational
loop oscillates at a frequency set by its loop delay; since delay rises
as voltage droops, counting oscillations over a fixed window measures
voltage.  Included here for two reasons:

* it is the sensor the power-virus *victim* instances are built from
  (Section IV-A), and
* its netlist contains exactly the structure — a combinational loop —
  that provider bitstream checks reject, making it the positive control
  for the defense study (Section V): the checker must flag the RO and
  must not flag LeakyDSP.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants, RngLike, make_rng
from repro.core.sensor import SamplingMethod, VoltageSensor, resolve_sampling_method
from repro.errors import ConfigurationError
from repro.fpga.device import DeviceModel, xc7a35t
from repro.fpga.netlist import Netlist
from repro.fpga.primitives import FDRE, LUT
from repro.timing.delay import delay_scale
from repro.timing.paths import PATH_DELAYS, ROUTING_DELAY_BASE


class RingOscillatorSensor(VoltageSensor):
    """An RO frequency-counter voltage sensor.

    Parameters
    ----------
    device:
        Target device.
    n_inverters:
        Loop length in LUT stages (odd; 1 reproduces the paper's
        power-virus element: one inverter + one AND enable gate).
    window:
        Counting window [s].
    counter_bits:
        Width of the ripple counter (sets the readout saturation).
    """

    def __init__(
        self,
        device: Optional[DeviceModel] = None,
        n_inverters: int = 1,
        window: float = 1e-6,
        counter_bits: int = 16,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
        name: str = "ro",
    ) -> None:
        if n_inverters < 1 or n_inverters % 2 == 0:
            raise ConfigurationError("RO loop needs an odd number of inverters")
        if window <= 0:
            raise ConfigurationError("counting window must be positive")
        self.device = device or xc7a35t()
        self.n_inverters = n_inverters
        self.window = window
        super().__init__(name, counter_bits, constants)
        # Loop delay: inverter LUT(s) + the AND enable gate + local routing.
        self._loop_delay = (
            n_inverters * PATH_DELAYS["LUT"]
            + PATH_DELAYS["LUT"]
            + (n_inverters + 1) * ROUTING_DELAY_BASE
        )
        self._netlist = self._build_netlist()

    # ------------------------------------------------------------------
    def _build_netlist(self) -> Netlist:
        nl = Netlist(self.name)
        nl.add_port("enable", "in")
        nl.add_port("count", "out")
        inv_names = []
        for i in range(self.n_inverters):
            inv = LUT.inverter(f"{self.name}_inv{i:02d}")
            nl.add_cell(inv)
            inv_names.append(inv.name)
        gate = LUT.and2(f"{self.name}_and")
        nl.add_cell(gate)
        ff = FDRE(f"{self.name}_ff")
        nl.add_cell(ff)

        # enable AND loop output -> inverter chain -> back into the AND:
        # the combinational loop a bitstream checker must find.
        nl.connect(f"{self.name}_en", ("enable", "O"), [(gate.name, "I0")])
        prev = (gate.name, "O")
        for i, iname in enumerate(inv_names):
            nl.connect(f"{self.name}_loop{i:02d}", prev, [(iname, "I0")])
            prev = (iname, "O")
        nl.connect(f"{self.name}_fb", prev, [(gate.name, "I1"), (ff.name, "C")])
        nl.connect(f"{self.name}_q", (ff.name, "Q"), [("count", "I"), (ff.name, "D")])
        nl.validate()
        return nl

    def netlist(self) -> Netlist:
        """The sensor's structural netlist (contains a combinational
        loop by design)."""
        return self._netlist

    # ------------------------------------------------------------------
    def frequency(self, voltages) -> np.ndarray:
        """Oscillation frequency [Hz] at each supply voltage."""
        v = np.atleast_1d(np.asarray(voltages, dtype=float))
        scale = np.asarray(delay_scale(v, self.constants), dtype=float)
        return 1.0 / (2.0 * self._loop_delay * scale)

    def bit_probabilities(self, voltages: np.ndarray) -> np.ndarray:
        """Not meaningful for a counter sensor — the readout is a count,
        not a settled-bit tally."""
        raise NotImplementedError(
            "RingOscillatorSensor readouts are counter values; use "
            "expected_readout/sample_readouts directly"
        )

    def cache_token(self) -> dict:
        """Deterministic fingerprint of this sensor's sampling behavior
        (for :mod:`repro.traces.blockstore` keys).

        A count has no moments table to hash, so the token lists every
        parameter that shapes one instead: the loop length and its
        delay, the counting window, plus the counter width, position
        and constants every sensor token carries.
        """
        return {
            **self._base_token(),
            "n_inverters": int(self.n_inverters),
            "loop_delay": float(self._loop_delay),
            "window": float(self.window),
        }

    def expected_readout(self, voltages) -> np.ndarray:
        """Expected oscillation count in one window (clipped to the
        counter width)."""
        counts = self.frequency(voltages) * self.window
        return np.minimum(counts, 2**self.output_width - 1)

    def readout_std(self, voltages) -> np.ndarray:
        """Quantization-limited count jitter (uniform +-1/2 count)."""
        v = np.atleast_1d(np.asarray(voltages, dtype=float))
        return np.full(v.shape, 1.0 / np.sqrt(12.0))

    def sample_readouts(
        self,
        voltages,
        *,
        rng: RngLike = None,
        method=SamplingMethod.AUTO,
    ) -> np.ndarray:
        """Counter sampling: floor of the accumulated phase plus a
        uniform start-phase offset (the ``method`` distinction does not
        apply to a counter; the argument is validated only)."""
        resolve_sampling_method(method)
        rng = make_rng(rng)
        v = np.asarray(voltages, dtype=float)
        flat = np.atleast_1d(v).ravel()
        counts = self.frequency(flat) * self.window
        sampled = np.floor(counts + rng.random(flat.shape))
        sampled = np.clip(sampled, 0, 2**self.output_width - 1).astype(np.int64)
        return sampled.reshape(np.shape(v)) if np.ndim(v) else sampled.reshape(())
