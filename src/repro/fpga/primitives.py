"""Functional and configuration models of the Xilinx primitives the
paper's circuits instantiate.

The sensors in the paper are not synthesized from HDL — they are
hand-instantiated vendor primitives with carefully chosen attribute
values (register bypasses, OPMODE/INMODE/ALUMODE settings, IDELAY tap
counts).  This module models exactly that level:

* every primitive validates its attributes against (a documented subset
  of) the rules in UG474/UG479/UG571/UG953 and raises
  :class:`~repro.errors.PrimitiveConfigError` on illegal configurations,
  the way Vivado DRC would;
* the DSP blocks implement a bit-accurate functional model of the
  datapath subset LeakyDSP uses (pre-adder -> multiplier -> ALU, two's
  complement, 48-bit P), so the "malicious DSP function" P = A can be
  checked functionally;
* each primitive exposes the *nominal* combinational delays of the paths
  through it; :mod:`repro.timing` scales those with supply voltage.

Only behaviour the reproduction needs is modelled; pipeline registers,
pattern detectors, carry-cascade modes etc. are validated but inert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import PrimitiveConfigError

# ----------------------------------------------------------------------
# Two's-complement helpers
# ----------------------------------------------------------------------


def to_signed(value: int, bits: int) -> int:
    """Interpret the low ``bits`` bits of ``value`` as a two's-complement
    signed integer."""
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def to_unsigned(value: int, bits: int) -> int:
    """Truncate a (possibly negative) integer to ``bits`` bits."""
    return value & ((1 << bits) - 1)


# ----------------------------------------------------------------------
# Primitive base class
# ----------------------------------------------------------------------


class Primitive:
    """Base class for vendor primitives.

    Subclasses define ``ATTRIBUTE_SPACE``: a mapping from attribute name
    to the tuple of legal values.  The constructor validates every
    supplied attribute against it and fills in defaults.
    """

    #: Primitive type name as it would appear in an EDIF/bitstream.
    TYPE: str = "PRIMITIVE"
    #: attribute name -> tuple of legal values (first entry = default).
    ATTRIBUTE_SPACE: Dict[str, Tuple] = {}

    def __init__(self, name: str, **attributes) -> None:
        self.name = name
        self.attributes: Dict[str, object] = {}
        for attr, legal in self.ATTRIBUTE_SPACE.items():
            self.attributes[attr] = legal[0]
        for attr, value in attributes.items():
            if attr not in self.ATTRIBUTE_SPACE:
                raise PrimitiveConfigError(
                    f"{self.TYPE} {name!r}: unknown attribute {attr!r}"
                )
            if value not in self.ATTRIBUTE_SPACE[attr]:
                raise PrimitiveConfigError(
                    f"{self.TYPE} {name!r}: illegal value {value!r} for "
                    f"attribute {attr!r} (legal: {self.ATTRIBUTE_SPACE[attr]})"
                )
            self.attributes[attr] = value
        self.validate()

    def validate(self) -> None:
        """Check cross-attribute legality rules.  Subclasses override."""

    # Convenience ------------------------------------------------------
    def __getitem__(self, attr: str):
        return self.attributes[attr]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.TYPE}({self.name!r})"


# ----------------------------------------------------------------------
# Fabric primitives: LUT, flip-flop, carry chain
# ----------------------------------------------------------------------


class LUT(Primitive):
    """A K-input look-up table with an ``INIT`` truth table.

    ``INIT`` is an integer whose bit *i* gives the output for input
    pattern *i* (input bit 0 = LSB of the pattern), exactly like the
    Xilinx LUT6 INIT encoding.
    """

    TYPE = "LUT"

    def __init__(self, name: str, k: int = 6, init: int = 0) -> None:
        if not 1 <= k <= 6:
            raise PrimitiveConfigError(f"LUT {name!r}: k must be 1..6, got {k}")
        if not 0 <= init < (1 << (1 << k)):
            raise PrimitiveConfigError(
                f"LUT {name!r}: INIT 0x{init:x} does not fit a LUT{k}"
            )
        self.k = k
        self.init = init
        super().__init__(name)

    def evaluate(self, *inputs: int) -> int:
        """Evaluate the truth table for a tuple of 0/1 inputs."""
        if len(inputs) != self.k:
            raise PrimitiveConfigError(
                f"LUT {self.name!r}: expected {self.k} inputs, got {len(inputs)}"
            )
        index = 0
        for i, bit in enumerate(inputs):
            if bit not in (0, 1):
                raise PrimitiveConfigError(
                    f"LUT {self.name!r}: inputs must be 0/1, got {bit!r}"
                )
            index |= bit << i
        return (self.init >> index) & 1

    @classmethod
    def inverter(cls, name: str) -> "LUT":
        """A LUT1 configured as an inverter (the RO core element)."""
        return cls(name, k=1, init=0b01)

    @classmethod
    def and2(cls, name: str) -> "LUT":
        """A LUT2 configured as a 2-input AND (the RO enable gate)."""
        return cls(name, k=2, init=0b1000)

    @property
    def is_inverting_feedthrough(self) -> bool:
        """Whether this LUT inverts at least one input for some setting
        of the others (used by the defense checker's RO signature)."""
        n = 1 << self.k
        for i in range(n):
            for bit in range(self.k):
                j = i ^ (1 << bit)
                a = (self.init >> i) & 1
                b = (self.init >> j) & 1
                ai = (i >> bit) & 1
                bi = (j >> bit) & 1
                if a != b and ai != bi and a != ai:
                    return True
        return False


class FDRE(Primitive):
    """D flip-flop with clock-enable and synchronous reset.

    The capture behaviour that matters to the sensors (metastability on
    marginal setup) is modelled in :mod:`repro.timing.sampling`; here we
    just hold state for functional simulation.
    """

    TYPE = "FDRE"
    ATTRIBUTE_SPACE = {"INIT": (0, 1)}

    def __init__(self, name: str, **attributes) -> None:
        super().__init__(name, **attributes)
        self.q = int(self.attributes["INIT"])

    def clock(self, d: int, ce: int = 1, r: int = 0) -> int:
        """Advance one clock edge; returns the new Q."""
        if r:
            self.q = 0
        elif ce:
            self.q = 1 if d else 0
        return self.q


class CARRY4(Primitive):
    """A 7-series CARRY4 element: four multiplexer stages of the fast
    carry chain.

    The TDC uses the chain purely as a fast delay line: ``CYINIT``
    injects the sampled clock signal and the four ``CO`` outputs tap the
    propagating edge.  ``propagate(cyinit, s)`` returns the four carry
    outputs for static select inputs ``s`` (the TDC ties S=1 so the
    carry propagates).
    """

    TYPE = "CARRY4"
    #: Number of carry multiplexer stages per CARRY4.
    STAGES = 4

    def propagate(self, cyinit: int, s: Iterable[int] = (1, 1, 1, 1)) -> List[int]:
        """Functional carry propagation: CO[i] = S[i] ? CO[i-1] : DI[i]
        with DI tied to 0 (TDC configuration)."""
        s = list(s)
        if len(s) != self.STAGES:
            raise PrimitiveConfigError(
                f"CARRY4 {self.name!r}: need {self.STAGES} select bits"
            )
        outs = []
        carry = 1 if cyinit else 0
        for sel in s:
            carry = carry if sel else 0
            outs.append(carry)
        return outs


# ----------------------------------------------------------------------
# DSP blocks
# ----------------------------------------------------------------------

#: OPMODE X-multiplexer encodings (bits 1:0) -> source name.
_X_SEL = {0b00: "ZERO", 0b01: "M", 0b10: "P", 0b11: "AB"}
#: OPMODE Y-multiplexer encodings (bits 3:2) -> source name.
_Y_SEL = {0b00: "ZERO", 0b01: "M", 0b10: "ONES", 0b11: "C"}
#: OPMODE Z-multiplexer encodings (bits 6:4) -> source name.
_Z_SEL = {0b000: "ZERO", 0b001: "PCIN", 0b010: "P", 0b011: "C", 0b100: "P17"}


@dataclass(frozen=True)
class DSPStageDelays:
    """Nominal combinational delays through one DSP block's
    sub-components [s], before voltage scaling.

    These are representative of 28 nm DSP48E1 datasheet AC switching
    characteristics for the fully-combinational (all pipeline registers
    bypassed) configuration and sum to
    :attr:`repro.config.PhysicalConstants.dsp_block_delay` by default.
    """

    pre_adder: float = 0.9e-9
    multiplier: float = 2.0e-9
    alu: float = 1.0e-9

    @property
    def total(self) -> float:
        """End-to-end A-to-P combinational delay of one block."""
        return self.pre_adder + self.multiplier + self.alu


class DSP48E1(Primitive):
    """The 7-series DSP48E1 slice (UG479), modelled at the level
    LeakyDSP abuses it.

    Datapath (Fig. 1 of the paper): a 25-bit pre-adder ``AD = D + A``,
    a 25x18 two's-complement multiplier ``M = AD * B``, and a 48-bit
    ALU combining the X/Y/Z multiplexer outputs.  Every pipeline
    register can be bypassed by setting its ``*REG`` attribute to 0,
    which is what makes the whole block one long combinational path.

    Attributes follow UG479 semantics for the validated subset:

    ``AREG/BREG`` in {0, 1, 2}, ``CREG/DREG/ADREG/MREG/PREG`` in {0, 1},
    ``USE_MULT`` in {"MULTIPLY", "DYNAMIC", "NONE"},
    ``USE_DPORT`` in {"FALSE", "TRUE"}.

    Cross-rules enforced (all real Vivado DRCs):

    * ``USE_MULT != NONE`` requires ``AREG == BREG`` when cascaded —
      relaxed here to the rule we need: ``MREG`` must be 0 or 1 always;
    * ``USE_DPORT == TRUE`` requires ``USE_MULT != NONE`` (the pre-adder
      output only reaches P through the multiplier);
    * selecting ``M`` on the X mux requires selecting ``M`` on the Y mux
      and vice versa (the two halves of the partial product);
    * selecting ``M`` anywhere requires ``USE_MULT != NONE``.
    """

    TYPE = "DSP48E1"
    A_WIDTH = 30
    #: Bits of A that feed the pre-adder / multiplier.
    A_MULT_WIDTH = 25
    B_WIDTH = 18
    C_WIDTH = 48
    D_WIDTH = 25
    P_WIDTH = 48

    ATTRIBUTE_SPACE = {
        "AREG": (0, 1, 2),
        "BREG": (0, 1, 2),
        "CREG": (0, 1),
        "DREG": (0, 1),
        "ADREG": (0, 1),
        "MREG": (0, 1),
        "PREG": (0, 1),
        "USE_MULT": ("MULTIPLY", "DYNAMIC", "NONE"),
        "USE_DPORT": ("FALSE", "TRUE"),
        "OPMODE": tuple(range(128)),
        "ALUMODE": (0b0000, 0b0011, 0b0001, 0b0010),
        "INMODE": tuple(range(32)),
    }

    def validate(self) -> None:
        opmode = int(self.attributes["OPMODE"])
        x = opmode & 0b11
        y = (opmode >> 2) & 0b11
        z = (opmode >> 4) & 0b111
        if z not in _Z_SEL:
            raise PrimitiveConfigError(
                f"{self.TYPE} {self.name!r}: reserved Z-mux encoding {z:#05b}"
            )
        x_sel, y_sel = _X_SEL[x], _Y_SEL[y]
        uses_m = "M" in (x_sel, y_sel)
        if (x_sel == "M") != (y_sel == "M"):
            raise PrimitiveConfigError(
                f"{self.TYPE} {self.name!r}: X and Y muxes must both select M "
                f"or neither (got X={x_sel}, Y={y_sel})"
            )
        if uses_m and self.attributes["USE_MULT"] == "NONE":
            raise PrimitiveConfigError(
                f"{self.TYPE} {self.name!r}: OPMODE selects M but USE_MULT=NONE"
            )
        if self.attributes["USE_DPORT"] == "TRUE" and self.attributes["USE_MULT"] == "NONE":
            raise PrimitiveConfigError(
                f"{self.TYPE} {self.name!r}: USE_DPORT=TRUE requires the multiplier"
            )

    # -- configuration queries ----------------------------------------
    @property
    def opmode_selection(self) -> Tuple[str, str, str]:
        """Decoded ``(X, Y, Z)`` multiplexer source names."""
        opmode = int(self.attributes["OPMODE"])
        return (
            _X_SEL[opmode & 0b11],
            _Y_SEL[(opmode >> 2) & 0b11],
            _Z_SEL[(opmode >> 4) & 0b111],
        )

    @property
    def is_fully_combinational(self) -> bool:
        """True when every pipeline register between A and the ALU
        output is bypassed (PREG may still be present: it is the capture
        register of the final block)."""
        return all(
            self.attributes[reg] == 0
            for reg in ("AREG", "BREG", "CREG", "DREG", "ADREG", "MREG")
        )

    @property
    def pipeline_depth(self) -> int:
        """Number of pipeline register stages on the A->P path (used by
        the defense checker and timing model)."""
        a_path = int(self.attributes["AREG"]) + int(self.attributes["ADREG"])
        return a_path + int(self.attributes["MREG"]) + int(self.attributes["PREG"])

    def stage_delays(self, delays: Optional[DSPStageDelays] = None) -> List[Tuple[str, float]]:
        """The (name, nominal delay) sequence of combinational stages the
        A input traverses before the first register, in order."""
        delays = delays or DSPStageDelays()
        stages: List[Tuple[str, float]] = []
        if self.attributes["AREG"] == 0:
            if self.attributes["USE_DPORT"] == "TRUE" and self.attributes["ADREG"] == 0:
                stages.append(("pre_adder", delays.pre_adder))
            if self.attributes["USE_MULT"] != "NONE" and self.attributes["MREG"] == 0:
                stages.append(("multiplier", delays.multiplier))
                stages.append(("alu", delays.alu))
        return stages

    # -- functional model ----------------------------------------------
    def compute(
        self,
        a: int = 0,
        b: int = 0,
        c: int = 0,
        d: int = 0,
        pcin: int = 0,
        carryin: int = 0,
        p_prev: int = 0,
    ) -> int:
        """Evaluate the combinational datapath for one input vector.

        All operands are taken as raw bit patterns of their port width
        and interpreted as two's complement internally, exactly like the
        silicon.  Returns the 48-bit P output as an unsigned bit
        pattern.
        """
        a_mult = to_signed(a, self.A_MULT_WIDTH)
        d_val = to_signed(d, self.D_WIDTH)
        b_val = to_signed(b, self.B_WIDTH)
        c_val = to_signed(c, self.C_WIDTH)
        pcin_val = to_signed(pcin, self.P_WIDTH)
        p_prev_val = to_signed(p_prev, self.P_WIDTH)

        if self.attributes["USE_DPORT"] == "TRUE":
            ad = to_signed(to_unsigned(d_val + a_mult, self.A_MULT_WIDTH), self.A_MULT_WIDTH)
        else:
            ad = a_mult
        m = ad * b_val if self.attributes["USE_MULT"] != "NONE" else 0

        x_sel, y_sel, z_sel = self.opmode_selection
        ab = to_signed(
            (to_unsigned(a, self.A_WIDTH) << self.B_WIDTH) | to_unsigned(b, self.B_WIDTH),
            self.A_WIDTH + self.B_WIDTH,
        )
        sources = {
            "ZERO": 0,
            "M": m,
            "P": p_prev_val,
            "AB": ab,
            "ONES": to_signed((1 << self.P_WIDTH) - 1, self.P_WIDTH),
            "C": c_val,
            "PCIN": pcin_val,
            "P17": p_prev_val >> 17,
        }
        # In silicon X and Y carry the two partial products of M and the
        # ALU adds them; selecting M on both yields M once, which is how
        # we model it.
        if x_sel == "M" and y_sel == "M":
            xy = m
        else:
            xy = sources[x_sel] + sources[y_sel]
        z_val = sources[z_sel]

        alumode = int(self.attributes["ALUMODE"])
        if alumode == 0b0000:
            result = z_val + xy + carryin
        elif alumode == 0b0011:
            result = z_val - (xy + carryin)
        elif alumode == 0b0001:
            result = -z_val + xy + carryin - 1
        else:  # 0b0010: -(Z + X + Y + CIN) - 1
            result = -(z_val + xy + carryin) - 1
        return to_unsigned(result, self.P_WIDTH)

    # -- the paper's malicious configuration ---------------------------
    @classmethod
    def leakydsp_config(cls, name: str, last: bool = False) -> "DSP48E1":
        """The LeakyDSP configuration from Section III-B.

        Pre-adder adds constant 0 to A; multiplier multiplies by
        constant 1; ALU adds constant 0 — i.e. ``P = ((A + 0) * 1) + 0``
        computed fully combinationally.  Only the *last* block in a
        chain instantiates its output register (PREG=1), which is the
        sampling flip-flop bank.
        """
        return cls(
            name,
            AREG=0,
            BREG=0,
            CREG=0,
            DREG=0,
            ADREG=0,
            MREG=0,
            PREG=1 if last else 0,
            USE_MULT="MULTIPLY",
            USE_DPORT="TRUE",
            # X=Y=M, Z=ZERO: P = M + 0.
            OPMODE=0b0000101,
            ALUMODE=0b0000,
            INMODE=0b00100,
        )


class DSP48E2(DSP48E1):
    """The UltraScale+ DSP48E2 slice (UG579).

    Differences that matter here: the pre-adder and multiplier operate
    on the lower 27 bits of A (27x18 multiplier), D is 27 bits wide, and
    the mux encodings gain a ``XOROUT`` path we do not model.  The
    LeakyDSP configuration is otherwise identical, which is why the
    paper ports the sensor to Zynq UltraScale+ unchanged.
    """

    TYPE = "DSP48E2"
    A_MULT_WIDTH = 27
    D_WIDTH = 27


def dsp_for_family(family: str, name: str, **kwargs) -> DSP48E1:
    """Instantiate the right DSP primitive class for a device family."""
    if family == "DSP48E1":
        return DSP48E1(name, **kwargs)
    if family == "DSP48E2":
        return DSP48E2(name, **kwargs)
    raise PrimitiveConfigError(f"unknown DSP family {family!r}")


def leakydsp_dsp(family: str, name: str, last: bool = False) -> DSP48E1:
    """LeakyDSP-configured DSP block of the given family."""
    if family == "DSP48E1":
        return DSP48E1.leakydsp_config(name, last=last)
    if family == "DSP48E2":
        return DSP48E2.leakydsp_config(name, last=last)
    raise PrimitiveConfigError(f"unknown DSP family {family!r}")


# ----------------------------------------------------------------------
# IDELAY primitives
# ----------------------------------------------------------------------


class IDELAYE2(Primitive):
    """7-series programmable input delay line (UG471).

    31 taps of ~78 ps each (with a 200 MHz IDELAYCTRL reference clock),
    giving a maximum delay of ~2.4 ns ~ T/2 at the sensor's 300 MHz... —
    in VAR_LOAD mode the tap value can be rewritten at run time, which
    is what LeakyDSP's calibration loop does.
    """

    TYPE = "IDELAYE2"
    NUM_TAPS = 32
    #: Per-tap delay with a 200 MHz reference clock [s].
    TAP_DELAY = 78e-12

    ATTRIBUTE_SPACE = {
        "IDELAY_TYPE": ("VAR_LOAD", "FIXED", "VARIABLE"),
        "IDELAY_VALUE": tuple(range(32)),
        "DELAY_SRC": ("IDATAIN", "DATAIN"),
        "REFCLK_FREQUENCY": (200.0, 300.0, 400.0),
    }

    def __init__(self, name: str, **attributes) -> None:
        super().__init__(name, **attributes)
        self._tap = int(self.attributes["IDELAY_VALUE"])

    @property
    def tap(self) -> int:
        """Current tap setting."""
        return self._tap

    def load_tap(self, tap: int) -> None:
        """Run-time tap update (VAR_LOAD / VARIABLE modes only)."""
        if self.attributes["IDELAY_TYPE"] == "FIXED":
            raise PrimitiveConfigError(
                f"{self.TYPE} {self.name!r}: cannot load taps in FIXED mode"
            )
        if not 0 <= tap < self.NUM_TAPS:
            raise PrimitiveConfigError(
                f"{self.TYPE} {self.name!r}: tap {tap} out of range 0..{self.NUM_TAPS - 1}"
            )
        self._tap = tap

    @property
    def tap_delay(self) -> float:
        """Delay contributed by one tap [s]; scales inversely with the
        reference clock frequency (UG471 Table 2-9)."""
        ref = float(self.attributes["REFCLK_FREQUENCY"])
        return self.TAP_DELAY * (200.0 / ref)

    def delay(self) -> float:
        """Current total insertion delay [s]."""
        return self._tap * self.tap_delay


class IDELAYE3(IDELAYE2):
    """UltraScale+ programmable input delay (UG571): 512 much finer taps
    in ``COUNT`` mode."""

    TYPE = "IDELAYE3"
    NUM_TAPS = 512
    TAP_DELAY = 4.6e-12

    ATTRIBUTE_SPACE = {
        "IDELAY_TYPE": ("VAR_LOAD", "FIXED", "VARIABLE"),
        "IDELAY_VALUE": tuple(range(512)),
        "DELAY_SRC": ("IDATAIN", "DATAIN"),
        "REFCLK_FREQUENCY": (200.0, 300.0, 400.0, 500.0),
    }

    @property
    def tap_delay(self) -> float:
        """COUNT-mode taps have a fixed, reference-independent pitch."""
        return self.TAP_DELAY


def idelay_for_family(family: str, name: str, **kwargs) -> IDELAYE2:
    """Instantiate the right IDELAY primitive class for a device family."""
    if family == "IDELAYE2":
        return IDELAYE2(name, **kwargs)
    if family == "IDELAYE3":
        return IDELAYE3(name, **kwargs)
    raise PrimitiveConfigError(f"unknown IDELAY family {family!r}")
