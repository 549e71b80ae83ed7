"""The LeakyDSP sensor (Section III of the paper).

Construction
------------

``n`` DSP blocks are configured as the identity function
``P = ((A + 0) * 1) + 0`` with **every** internal pipeline register
bypassed, and cascaded so the lower 25 bits of each block's P output
feed the next block's A input.  Only the final block instantiates its
output register (PREG = 1) — that register bank is the sampler.  The
input ``A`` of the first block is the sensor clock itself routed through
an IDELAY, so the data toggles between all-zeros and all-ones every
cycle; a second IDELAY shifts the capture clock.  The two IDELAYs give a
runtime-adjustable phase difference of roughly +-T/2, the calibration
range.

Readout model
-------------

Output bit *i* of the final block settles at

``tau_i(V) = (D + o_i) * (Vnom / V)**alpha + d_IDELAY_A``

where ``D`` is the nominal chain delay (three cascaded DSP
combinational paths for the paper's n = 3) and ``o_i`` a per-bit offset
capturing the LSB-to-MSB carry-propagation spread inside the multiplier
and ALU plus per-device process variation.  The capture register fires
at phase ``phi = k*T + d_IDELAY_CLK`` (``k`` chosen so the margin is
within +-T/2) and stores bit *i* at its settled value with probability
``logistic((phi - tau_i) / w)`` (metastability window ``w``).  The
readout is the settled-bit count: high at nominal voltage, dropping as
droop slows the chain — the paper's "number of unflipped bits".

A supply droop of dV shifts every ``tau_i`` by ``alpha * (D + o_i) / V``
— the long chain is the lever arm, and the spread of the 48 settle
times across the sampling phase is the fine quantizer.  That
combination is the paper's core claim of high sensitivity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants, RngLike, make_rng
from repro.core.sensor import VoltageSensor
from repro.errors import ConfigurationError
from repro.fpga.device import DeviceModel, xc7a35t
from repro.fpga.netlist import Netlist
from repro.fpga.primitives import (
    DSPStageDelays,
    idelay_for_family,
    leakydsp_dsp,
)
from repro.timing.delay import delay_scale
from repro.timing.paths import ROUTING_DELAY_BASE
from repro.timing.sampling import ClockSpec, capture_probability

#: Fraction of the per-bit spread used as random process-variation
#: jitter on top of the deterministic carry ramp.
PROCESS_JITTER_FRACTION = 0.25


class LeakyDSP(VoltageSensor):
    """A LeakyDSP sensor instance.

    Parameters
    ----------
    device:
        Target device (selects DSP48E1/IDELAYE2 vs DSP48E2/IDELAYE3).
    n_blocks:
        Number of cascaded DSP blocks (the paper's empirical pick is 3).
    clock:
        The sensor sampling clock (300 MHz in the paper).
    constants:
        Physical constants of the simulated substrate.
    seed:
        Seeds the per-instance process variation of the output-bit
        settle times; two sensors with the same seed are identical
        silicon.
    name:
        Instance name (also prefixes cell names in the netlist).
    """

    def __init__(
        self,
        device: Optional[DeviceModel] = None,
        n_blocks: int = 3,
        clock: ClockSpec = ClockSpec(300e6),
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
        seed: RngLike = 0,
        name: str = "leakydsp",
    ) -> None:
        if n_blocks < 1:
            raise ConfigurationError("LeakyDSP needs at least one DSP block")
        self.device = device or xc7a35t()
        if n_blocks > self.device.num_dsps:
            raise ConfigurationError(
                f"{n_blocks} DSP blocks requested but {self.device.name} "
                f"has only {self.device.num_dsps}"
            )
        self.n_blocks = n_blocks
        self.clock = clock
        dsp_width = 48
        super().__init__(name, dsp_width, constants)

        self._stage_delays = self._scaled_stage_delays(constants)
        self._netlist = self._build_netlist()
        self._idelay_a = self._netlist.cells[f"{name}_idelay_a"].primitive
        self._idelay_clk = self._netlist.cells[f"{name}_idelay_clk"].primitive

        #: Nominal A-to-P chain delay [s].
        self.chain_delay = (
            n_blocks * self._stage_delays.total
            + (n_blocks - 1) * ROUTING_DELAY_BASE
        )
        self._bit_offsets = self._build_bit_offsets(make_rng(seed))
        # Capture on the clock edge nearest the chain delay so that the
        # +-T/2 IDELAY range always reaches the settle-time distribution.
        period = clock.period
        k = max(1, int(round(self.chain_delay / period)))
        self.capture_offset = k * period

    # ------------------------------------------------------------------
    def _scaled_stage_delays(self, constants: PhysicalConstants) -> DSPStageDelays:
        """Stage delays rescaled so one block totals
        ``constants.dsp_block_delay`` while keeping datasheet ratios."""
        base = DSPStageDelays()
        f = constants.dsp_block_delay / base.total
        return DSPStageDelays(
            pre_adder=base.pre_adder * f,
            multiplier=base.multiplier * f,
            alu=base.alu * f,
        )

    def _build_bit_offsets(self, rng: np.random.Generator) -> np.ndarray:
        """Per-output-bit settle-time offsets [s] around the chain delay.

        The deterministic component is the quantile ramp of a normal
        distribution (LSBs settle early, MSBs late, most bits bunched
        mid-word — the carry-tree profile); process variation adds
        per-bit jitter.  The resulting empirical density is what the
        IDELAY calibration seeks the peak of.
        """
        n = self.output_width
        sigma = self.constants.dsp_bit_spread * self.constants.dsp_block_delay
        quantiles = (np.arange(n) + 0.5) / n
        ramp = sigma * ndtri(quantiles)  # normal quantiles (norm.ppf)
        jitter = rng.normal(0.0, PROCESS_JITTER_FRACTION * sigma, size=n)
        return ramp + jitter

    def _build_netlist(self) -> Netlist:
        nl = Netlist(self.name)
        nl.add_port("clk_in", "in")
        nl.add_port("readout", "out")
        family = self.device.dsp_family
        idelay_family = self.device.idelay_family

        idelay_a = idelay_for_family(
            idelay_family, f"{self.name}_idelay_a", IDELAY_TYPE="VAR_LOAD"
        )
        idelay_clk = idelay_for_family(
            idelay_family, f"{self.name}_idelay_clk", IDELAY_TYPE="VAR_LOAD"
        )
        nl.add_cell(idelay_a)
        nl.add_cell(idelay_clk)

        dsp_names: List[str] = []
        for i in range(self.n_blocks):
            last = i == self.n_blocks - 1
            dsp = leakydsp_dsp(family, f"{self.name}_dsp{i:02d}", last=last)
            nl.add_cell(dsp)
            dsp_names.append(dsp.name)

        # Data path: clk_in -> IDELAY_A -> DSP0.A -> cascade -> DSPn.P.
        nl.connect(
            f"{self.name}_a_raw", ("clk_in", "O"), [(idelay_a.name, "IDATAIN")]
        )
        nl.connect(
            f"{self.name}_a_del",
            (idelay_a.name, "DATAOUT"),
            [(dsp_names[0], "A")],
        )
        for i in range(self.n_blocks - 1):
            nl.connect(
                f"{self.name}_casc{i:02d}",
                (dsp_names[i], "P"),
                [(dsp_names[i + 1], "A")],
            )
        # Capture clock: clk_in -> IDELAY_CLK -> last DSP's CLK.
        nl.connect(
            f"{self.name}_clk_raw", ("clk_in", "O"), [(idelay_clk.name, "IDATAIN")]
        )
        nl.connect(
            f"{self.name}_clk_del",
            (idelay_clk.name, "DATAOUT"),
            [(dsp_names[-1], "CLK")],
        )
        nl.connect(
            f"{self.name}_p_out", (dsp_names[-1], "P"), [("readout", "I")]
        )
        nl.validate()
        return nl

    # ------------------------------------------------------------------
    def netlist(self) -> Netlist:
        """The sensor's structural netlist."""
        return self._netlist

    @property
    def taps(self) -> Tuple[int, int]:
        """Current ``(IDELAY_A, IDELAY_CLK)`` tap settings."""
        return (self._idelay_a.tap, self._idelay_clk.tap)

    def set_taps(self, a_tap: int, clk_tap: int) -> None:
        """Program both IDELAYs (run-time VAR_LOAD update)."""
        self._idelay_a.load_tap(a_tap)
        self._idelay_clk.load_tap(clk_tap)
        self.invalidate_table()

    @property
    def num_tap_settings(self) -> int:
        """Taps available on each IDELAY (device family dependent)."""
        return self._idelay_a.NUM_TAPS

    def tap_plan(self, max_steps: int = 64) -> List[Tuple[int, int]]:
        """Monotone calibration sweep over ``(a_tap, clk_tap)``
        settings, ordered by increasing capture phase, subsampled to at
        most ``max_steps`` entries."""
        n = self.num_tap_settings
        settings = [(a, 0) for a in range(n - 1, 0, -1)] + [
            (0, c) for c in range(n)
        ]
        stride = max(1, -(-len(settings) // max_steps))  # ceil division
        plan = settings[::stride]
        if plan[-1] != settings[-1]:
            plan.append(settings[-1])
        return plan

    # ------------------------------------------------------------------
    def bit_probabilities(self, voltages: np.ndarray) -> np.ndarray:
        """Per-bit settled-capture probabilities; see the module
        docstring for the model."""
        v = np.atleast_1d(np.asarray(voltages, dtype=float))
        scale = np.asarray(delay_scale(v, self.constants), dtype=float)
        tau_nom = self.chain_delay + self._bit_offsets  # (bits,)
        tau = tau_nom[None, :] * scale[:, None] + self._idelay_a.delay()
        phi = self.capture_offset + self._idelay_clk.delay()
        return capture_probability(tau, phi, self.constants.metastability_window)

    # ------------------------------------------------------------------
    def functional_check(self) -> bool:
        """Verify the malicious DSP function end to end: with the
        all-ones input pattern, every cascaded block must reproduce its
        input (P = A, sign-extended), so the final P output toggles
        between all-zeros and all-ones.  Returns True when the
        configuration computes the identity."""
        family_cells = sorted(
            self._netlist.cells_of_type("DSP48E1")
            + self._netlist.cells_of_type("DSP48E2"),
            key=lambda c: c.name,
        )
        width = family_cells[0].primitive.A_MULT_WIDTH
        mask = (1 << width) - 1
        for pattern in (0, mask):
            value = pattern
            for cell in family_cells:
                p = cell.primitive.compute(a=value, b=1, c=0, d=0)
                value = p & mask
            if value != pattern:
                return False
        return True
