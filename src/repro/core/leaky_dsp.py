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

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

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

# Cephes ``ndtri`` (inverse of the standard normal CDF), the algorithm
# behind ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf``.  It is
# ported here because importing ``scipy.special`` roughly doubles the
# start-up of every campaign.  Scalar ``math.log``/``math.sqrt`` keep the
# result bit-identical to scipy's (numpy's SIMD ``log`` may differ in the
# last ulp).  Each ``_Q*`` denominator has an implied leading 1.

#: Rational approximation for ``0 <= |y - 0.5| <= 3/8``.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
#: For ``z = sqrt(-2 log y)`` between 2 and 8 (``y`` down to ``exp(-32)``).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
#: For ``z`` between 8 and 64 (``y`` down to ``exp(-2048)``).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_EXP_MINUS_2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)


def _polevl(x: float, coef: Sequence[float]) -> float:
    """Horner evaluation of ``coef[0] x^n + ... + coef[n]``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """:func:`_polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The normal quantile ``x`` with ``Phi(x) = y0``, bit-identical to
    ``scipy.special.ndtri(y0)``."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


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
        ramp = sigma * np.array([ndtri(q) for q in quantiles.tolist()])
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
