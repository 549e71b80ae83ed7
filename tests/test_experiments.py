"""Integration smoke tests: every experiment module runs at tiny scale
and reproduces the paper's qualitative shape."""

import numpy as np
import pytest

from repro.experiments import (
    ablation_calib,
    ablation_chain,
    common,
    defense_study,
    fig3_sensitivity,
    fig4_placement,
    fig5_keyrank,
    fig6_frequency,
    fig7_covert,
    pdn_validation,
    sensor_zoo,
    table1_traces,
)


class TestCommon:
    def test_basys3_setup(self):
        setup = common.Basys3Setup.create()
        assert setup.device.name == "xc7a35t"
        assert setup.coupling.device is setup.device

    def test_axu3egb_setup(self):
        setup = common.AXU3EGBSetup.create()
        assert setup.device.name == "zu3eg"

    def test_victim_pblocks_fit_virus(self):
        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup)  # must not raise
        assert virus.positions.shape == (8000, 2)

    def test_all_fig4_regions_resolvable(self):
        setup = common.Basys3Setup.create()
        for index in common.FIG4_REGIONS:
            pb = common.region_pblock(setup.device, index)
            assert pb.x0 <= pb.x1

    def test_all_cpa_placements_resolvable(self):
        setup = common.Basys3Setup.create()
        for name in common.CPA_PLACEMENTS:
            pb = common.placement_pblock(setup.device, name)
            assert pb.x0 <= pb.x1

    def test_p7_p8_are_subboxes(self):
        setup = common.Basys3Setup.create()
        full = common.placement_pblock(setup.device, "P2")
        p7 = common.placement_pblock(setup.device, "P7")
        assert (p7.x1 - p7.x0) < (full.x1 - full.x0)

    def test_sensor_builders(self):
        setup = common.Basys3Setup.create()
        pb = common.placement_pblock(setup.device, "P6")
        sensor = common.make_leakydsp(setup, pb)
        tdc = common.make_tdc(setup, pb)
        assert sensor.position is not None
        assert tdc.position is not None

    def test_last_round_window(self):
        hw = common.make_hw_model()
        window = common.last_round_window(hw, 195)
        assert window == (135, 195)


class TestFig3:
    def test_shape_matches_paper(self):
        result = fig3_sensitivity.run_fig3(n_readouts=300)
        dsp = result.curves["LeakyDSP"]
        tdc = result.curves["TDC"]
        # Strong negative linear relationship for both sensors ...
        assert dsp.pearson_r < -0.9
        assert tdc.pearson_r < -0.97
        # ... and LeakyDSP is finer-grained (paper: -3.45 vs -1.09).
        assert abs(dsp.regression_coefficient) > 2 * abs(tdc.regression_coefficient)

    def test_rows_render(self):
        result = fig3_sensitivity.run_fig3(n_readouts=100)
        assert len(result.rows()) == 2


class TestFig4:
    def test_shape_matches_paper(self):
        result = fig4_placement.run_fig4(n_readouts=300, include_tdc=False)
        points = result.points["LeakyDSP"]
        assert len(points) == 6
        assert all(p.delta > 2 for p in points)  # sensed everywhere
        assert result.best_region("LeakyDSP") == 2
        deltas = {p.region_index: p.delta for p in points}
        assert min(deltas[5], deltas[6]) < deltas[2]


class TestTable1:
    def test_best_placement_breaks_key(self):
        result = table1_traces.run_table1(
            placements=("P6",), n_traces=25_000, step=5_000, include_tdc=False
        )
        row = result.rows[0]
        assert row.traces_to_break is not None
        assert row.traces_to_break <= 25_000

    def test_formatted_table(self):
        result = table1_traces.run_table1(
            placements=("P6",), n_traces=15_000, step=5_000, include_tdc=False
        )
        lines = result.formatted()
        assert "placement" in lines[0]
        assert any("P6" in l for l in lines)


class TestFig5:
    def test_rank_decreases_with_traces(self):
        result = fig5_keyrank.run_fig5(
            placements=("P6",), n_traces=20_000, step=5_000, rating_at=10_000
        )
        n, lo, hi = result.series("P6")
        assert hi[-1] < hi[0]
        assert np.all(lo <= hi)


class TestFig6:
    def test_low_frequency_easier(self):
        result = fig6_frequency.run_fig6(
            frequencies=(20e6, 100e6), n_traces=30_000, extension=0, step=5_000
        )
        low, high = result.points
        low_score = low.traces_to_break or 10**9
        high_score = high.traces_to_break or 10**9
        assert low_score <= high_score
        assert low.traces_to_break is not None


class TestFig7:
    def test_shape_matches_paper(self):
        result = fig7_covert.run_fig7(
            bit_times=(2e-3, 4e-3, 7.5e-3), payload_bits=3_000, n_runs=2
        )
        p2, p4, p75 = result.points
        assert p2.ber >= p75.ber
        assert p4.ber < 0.01
        assert p2.transmission_rate > p4.transmission_rate > p75.transmission_rate

    def test_paper_rate_at_4ms_with_10kb(self):
        result = fig7_covert.run_fig7(bit_times=(4e-3,), payload_bits=10_000, n_runs=1)
        assert result.at(4e-3).transmission_rate == pytest.approx(247.94, abs=0.01)


class TestAblations:
    def test_chain_swing_grows(self):
        result = ablation_chain.run_ablation_chain(chain_lengths=(1, 3), n_readouts=300)
        swings = {p.n_blocks: p.activity_swing for p in result.points}
        assert swings[3] > swings[1]

    def test_calibration_rescues_dead_placements(self):
        result = ablation_calib.run_ablation_calib(n_readouts=300)
        assert result.worst_calibrated_swing > 5.0
        assert result.worst_uncalibrated_swing < result.worst_calibrated_swing


class TestSensorZoo:
    def test_landscape(self):
        result = sensor_zoo.run_sensor_zoo(n_readouts=200)
        assert {r.sensor for r in result.rows} == {"LeakyDSP", "TDC", "RDS", "RO"}
        leaky = result.row("LeakyDSP")
        assert leaky.passes_bitstream_check
        assert leaky.dsps == 3 and leaky.luts == 0
        assert not result.row("RO").passes_bitstream_check
        assert not result.row("TDC").passes_bitstream_check

    def test_formatted_table(self):
        result = sensor_zoo.run_sensor_zoo(n_readouts=100)
        lines = result.formatted()
        assert len(lines) == 5


class TestPdnValidation:
    def test_metrics_in_range(self):
        result = pdn_validation.run_pdn_validation(nx=17, ny=17)
        assert result.near_field_error < 0.2
        assert result.superposition_error < 1e-9
        assert 0 < result.fitted_floor < 1
        assert result.step_rise_time >= 0

    def test_formatted(self):
        result = pdn_validation.run_pdn_validation(nx=15, ny=15)
        assert len(result.formatted()) == 5


class TestDefenseStudy:
    def test_paper_evasion_story(self):
        result = defense_study.run_defense_study(fence_sizes=(500,))
        assert result.outcome("RO", False).rules_fired
        assert result.outcome("TDC", False).rules_fired
        assert not result.outcome("LeakyDSP", False).rules_fired
        assert result.outcome("LeakyDSP", True).rules_fired

    def test_fence_inflation_above_one(self):
        result = defense_study.run_defense_study(fence_sizes=(2000,))
        assert result.fence[0].trace_inflation > 1.0
