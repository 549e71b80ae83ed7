"""Tests for the vendor primitive models (LUT, FDRE, CARRY4, DSP48,
IDELAY)."""

import pytest

from repro.errors import PrimitiveConfigError
from repro.fpga.primitives import (
    CARRY4,
    DSP48E1,
    DSP48E2,
    DSPStageDelays,
    FDRE,
    IDELAYE2,
    IDELAYE3,
    LUT,
    dsp_for_family,
    idelay_for_family,
    leakydsp_dsp,
    to_signed,
    to_unsigned,
)


class TestSignedHelpers:
    def test_to_signed_positive(self):
        assert to_signed(5, 8) == 5

    def test_to_signed_negative(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x80, 8) == -128

    def test_to_signed_masks_extra_bits(self):
        assert to_signed(0x1FF, 8) == -1

    def test_to_unsigned_roundtrip(self):
        for value in (-1, -128, 0, 127):
            assert to_signed(to_unsigned(value, 8), 8) == value

    def test_wide_word(self):
        assert to_signed((1 << 48) - 1, 48) == -1


class TestLUT:
    def test_inverter(self):
        inv = LUT.inverter("i")
        assert inv.evaluate(0) == 1
        assert inv.evaluate(1) == 0

    def test_and2(self):
        gate = LUT.and2("a")
        assert gate.evaluate(1, 1) == 1
        assert gate.evaluate(0, 1) == 0
        assert gate.evaluate(1, 0) == 0
        assert gate.evaluate(0, 0) == 0

    def test_init_encoding_lut6(self):
        # INIT bit i = output for input pattern i.
        lut = LUT("x", k=3, init=0b10000000)  # 3-input AND
        assert lut.evaluate(1, 1, 1) == 1
        assert lut.evaluate(1, 1, 0) == 0

    def test_wrong_arity_raises(self):
        with pytest.raises(PrimitiveConfigError):
            LUT.inverter("i").evaluate(0, 1)

    def test_non_binary_input_raises(self):
        with pytest.raises(PrimitiveConfigError):
            LUT.inverter("i").evaluate(2)

    def test_oversized_init_raises(self):
        with pytest.raises(PrimitiveConfigError):
            LUT("x", k=1, init=0b100)

    def test_bad_k_raises(self):
        with pytest.raises(PrimitiveConfigError):
            LUT("x", k=0)
        with pytest.raises(PrimitiveConfigError):
            LUT("x", k=7)

    def test_inverting_feedthrough_detection(self):
        assert LUT.inverter("i").is_inverting_feedthrough
        buffer = LUT("b", k=1, init=0b10)
        assert not buffer.is_inverting_feedthrough


class TestFDRE:
    def test_clocking(self):
        ff = FDRE("ff")
        assert ff.clock(1) == 1
        assert ff.clock(0) == 0

    def test_reset_dominates(self):
        ff = FDRE("ff")
        ff.clock(1)
        assert ff.clock(1, r=1) == 0

    def test_clock_enable_holds(self):
        ff = FDRE("ff")
        ff.clock(1)
        assert ff.clock(0, ce=0) == 1

    def test_init_attribute(self):
        assert FDRE("ff", INIT=1).q == 1

    def test_bad_init_raises(self):
        with pytest.raises(PrimitiveConfigError):
            FDRE("ff", INIT=2)


class TestCARRY4:
    def test_propagates_when_selected(self):
        carry = CARRY4("c")
        assert carry.propagate(1) == [1, 1, 1, 1]

    def test_kills_on_deselected_stage(self):
        carry = CARRY4("c")
        assert carry.propagate(1, s=(1, 0, 1, 1)) == [1, 0, 0, 0]

    def test_zero_in_stays_zero(self):
        assert CARRY4("c").propagate(0) == [0, 0, 0, 0]

    def test_wrong_select_width_raises(self):
        with pytest.raises(PrimitiveConfigError):
            CARRY4("c").propagate(1, s=(1, 1))


class TestDSP48E1Validation:
    def test_leakydsp_config_valid(self):
        dsp = DSP48E1.leakydsp_config("d")
        assert dsp.attributes["USE_MULT"] == "MULTIPLY"
        assert dsp.is_fully_combinational

    def test_unknown_attribute_rejected(self):
        with pytest.raises(PrimitiveConfigError):
            DSP48E1("d", BOGUS=1)

    def test_illegal_attribute_value_rejected(self):
        with pytest.raises(PrimitiveConfigError):
            DSP48E1("d", AREG=3)

    def test_m_on_x_requires_m_on_y(self):
        with pytest.raises(PrimitiveConfigError):
            DSP48E1("d", OPMODE=0b0000001)  # X=M, Y=ZERO

    def test_m_requires_multiplier(self):
        with pytest.raises(PrimitiveConfigError):
            DSP48E1("d", OPMODE=0b0000101, USE_MULT="NONE")

    def test_dport_requires_multiplier(self):
        with pytest.raises(PrimitiveConfigError):
            DSP48E1("d", USE_DPORT="TRUE", USE_MULT="NONE", OPMODE=0b0110011)

    def test_reserved_z_encoding_rejected(self):
        with pytest.raises(PrimitiveConfigError):
            DSP48E1("d", OPMODE=0b1110000)

    def test_pipeline_depth(self):
        assert DSP48E1.leakydsp_config("d").pipeline_depth == 0
        assert DSP48E1.leakydsp_config("d", last=True).pipeline_depth == 1
        registered = DSP48E1("d", AREG=1, MREG=1, PREG=1, OPMODE=0b0000101)
        assert registered.pipeline_depth == 3

    def test_opmode_selection_decoding(self):
        dsp = DSP48E1.leakydsp_config("d")
        assert dsp.opmode_selection == ("M", "M", "ZERO")


class TestDSP48E1Compute:
    def test_identity_function(self):
        dsp = DSP48E1.leakydsp_config("d")
        assert dsp.compute(a=5, b=1) == 5

    def test_identity_all_ones_sign_extends(self):
        dsp = DSP48E1.leakydsp_config("d")
        all_ones_25 = (1 << 25) - 1  # -1 as a 25-bit word
        p = dsp.compute(a=all_ones_25, b=1)
        assert p == (1 << 48) - 1  # -1 sign-extended to 48 bits

    def test_pre_adder_adds_d(self):
        dsp = DSP48E1.leakydsp_config("d")
        assert dsp.compute(a=10, b=1, d=7) == 17

    def test_multiply(self):
        dsp = DSP48E1.leakydsp_config("d")
        assert dsp.compute(a=6, b=7) == 42

    def test_signed_multiply(self):
        dsp = DSP48E1.leakydsp_config("d")
        minus_two = to_unsigned(-2, 25)
        assert to_signed(dsp.compute(a=minus_two, b=3), 48) == -6

    def test_c_addition_via_z_mux(self):
        dsp = DSP48E1("d", USE_MULT="MULTIPLY", OPMODE=0b0110101)  # Z=C, XY=M
        assert dsp.compute(a=4, b=5, c=100) == 120

    def test_subtract_alumode(self):
        dsp = DSP48E1(
            "d", USE_MULT="MULTIPLY", OPMODE=0b0110101, ALUMODE=0b0011
        )  # C - M
        assert dsp.compute(a=4, b=5, c=100) == 80

    def test_pcin_cascade_path(self):
        dsp = DSP48E1("d", USE_MULT="MULTIPLY", OPMODE=0b0010101)  # Z=PCIN
        assert dsp.compute(a=2, b=3, pcin=1000) == 1006

    def test_ab_concatenation(self):
        dsp = DSP48E1("d", USE_MULT="NONE", OPMODE=0b0000011)  # X=A:B
        assert dsp.compute(a=1, b=2) == (1 << 18) | 2

    def test_carryin(self):
        dsp = DSP48E1.leakydsp_config("d")
        assert dsp.compute(a=5, b=1, carryin=1) == 6

    def test_accumulator_mode(self):
        # Z = P: P' = P + M, the MACC configuration.
        dsp = DSP48E1("d", USE_MULT="MULTIPLY", OPMODE=0b0100101)
        p = 0
        for _ in range(4):
            p = dsp.compute(a=3, b=5, p_prev=p)
        assert p == 4 * 15

    def test_p17_shift_path(self):
        # Z = P>>17: the cascade-shift mode of systolic filters.
        dsp = DSP48E1("d", USE_MULT="MULTIPLY", OPMODE=0b1000101)
        p = dsp.compute(a=0, b=0, p_prev=(1 << 20))
        assert p == 1 << 3

    def test_ones_on_y_mux(self):
        # Y = all-ones with X = 0, Z = 0: P = -1 (two's complement).
        dsp = DSP48E1("d", USE_MULT="NONE", OPMODE=0b0001000)
        assert dsp.compute() == (1 << 48) - 1

    def test_negate_z_alumode(self):
        # ALUMODE 0b0001: -Z + X + CIN - 1.
        dsp = DSP48E1("d", USE_MULT="NONE", OPMODE=0b0110000, ALUMODE=0b0001)
        result = to_signed(dsp.compute(c=10), 48)
        assert result == -10 - 1

    def test_negate_all_alumode(self):
        # ALUMODE 0b0010: -(Z + X + Y + CIN) - 1.
        dsp = DSP48E1("d", USE_MULT="NONE", OPMODE=0b0110000, ALUMODE=0b0010)
        result = to_signed(dsp.compute(c=10), 48)
        assert result == -10 - 1


class TestDSP48E2:
    def test_wider_mult_operand(self):
        assert DSP48E2.A_MULT_WIDTH == 27
        assert DSP48E2.D_WIDTH == 27

    def test_identity_on_27_bits(self):
        dsp = DSP48E2.leakydsp_config("d")
        value = (1 << 26) + 12345  # negative as a 27-bit word
        p = dsp.compute(a=value, b=1)
        assert p & ((1 << 27) - 1) == value  # identity on the low word
        assert to_signed(p, 48) == to_signed(value, 27)  # sign-extended

    def test_identity_on_26_bit_positive(self):
        dsp = DSP48E2.leakydsp_config("d")
        value = (1 << 25) + 999  # positive: needs E2's wider operand
        assert dsp.compute(a=value, b=1) == value

    def test_family_factory(self):
        assert isinstance(dsp_for_family("DSP48E1", "a"), DSP48E1)
        assert isinstance(dsp_for_family("DSP48E2", "b"), DSP48E2)
        with pytest.raises(PrimitiveConfigError):
            dsp_for_family("DSP99", "c")

    def test_leakydsp_factory(self):
        assert leakydsp_dsp("DSP48E2", "d").TYPE == "DSP48E2"
        with pytest.raises(PrimitiveConfigError):
            leakydsp_dsp("DSP47", "d")


class TestStageDelays:
    def test_fully_combinational_has_three_stages(self):
        dsp = DSP48E1.leakydsp_config("d")
        stages = dict(dsp.stage_delays())
        assert set(stages) == {"pre_adder", "multiplier", "alu"}

    def test_registered_a_path_has_no_comb_stages(self):
        dsp = DSP48E1("d", AREG=1, OPMODE=0b0000101)
        assert dsp.stage_delays() == []

    def test_mreg_cuts_multiplier_and_alu(self):
        dsp = DSP48E1("d", MREG=1, USE_DPORT="TRUE", OPMODE=0b0000101)
        assert dict(dsp.stage_delays()).keys() == {"pre_adder"}

    def test_total_default(self):
        delays = DSPStageDelays()
        assert delays.total == pytest.approx(
            delays.pre_adder + delays.multiplier + delays.alu
        )


class TestIDELAY:
    def test_tap_load_and_delay(self):
        d = IDELAYE2("d", IDELAY_TYPE="VAR_LOAD")
        d.load_tap(10)
        assert d.tap == 10
        assert d.delay() == pytest.approx(10 * d.tap_delay)

    def test_fixed_mode_rejects_load(self):
        d = IDELAYE2("d", IDELAY_TYPE="FIXED", IDELAY_VALUE=5)
        with pytest.raises(PrimitiveConfigError):
            d.load_tap(1)
        assert d.delay() == pytest.approx(5 * d.tap_delay)

    def test_out_of_range_tap_rejected(self):
        d = IDELAYE2("d")
        with pytest.raises(PrimitiveConfigError):
            d.load_tap(32)
        with pytest.raises(PrimitiveConfigError):
            d.load_tap(-1)

    def test_refclk_scales_tap_delay(self):
        slow = IDELAYE2("a", REFCLK_FREQUENCY=200.0)
        fast = IDELAYE2("b", REFCLK_FREQUENCY=400.0)
        assert fast.tap_delay == pytest.approx(slow.tap_delay / 2)

    def test_idelaye3_finer_and_wider(self):
        e3 = IDELAYE3("d")
        e2 = IDELAYE2("d2")
        assert e3.NUM_TAPS > e2.NUM_TAPS
        assert e3.tap_delay < e2.tap_delay

    def test_idelaye3_count_mode_refclk_independent(self):
        a = IDELAYE3("a", REFCLK_FREQUENCY=200.0)
        b = IDELAYE3("b", REFCLK_FREQUENCY=500.0)
        assert a.tap_delay == b.tap_delay

    def test_max_delay_covers_half_sensor_period(self):
        # The calibration range must span ~T/2 of the 300 MHz clock.
        d = IDELAYE2("d")
        d.load_tap(d.NUM_TAPS - 1)
        assert d.delay() > 0.5 / 300e6 * 0.9

    def test_family_factory(self):
        assert isinstance(idelay_for_family("IDELAYE2", "a"), IDELAYE2)
        assert isinstance(idelay_for_family("IDELAYE3", "b"), IDELAYE3)
        with pytest.raises(PrimitiveConfigError):
            idelay_for_family("IDELAY9", "c")
