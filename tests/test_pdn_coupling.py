"""Tests for the fast PDN coupling surrogate and its mesh calibration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pdn.coupling import (
    CouplingModel,
    LoadSite,
    REGION_SUPPLY_FACTORS,
    fit_to_mesh,
)
from repro.pdn.mesh import PDNMesh


@pytest.fixture(scope="module")
def coupling(basys3_device):
    return CouplingModel(basys3_device)


class TestKappa:
    def test_positive_everywhere(self, coupling, basys3_device):
        k = coupling.kappa((5, 5), (40, 140))
        assert k > 0

    def test_decays_with_distance(self, coupling):
        near = coupling.kappa((10, 10), (12, 10))
        far = coupling.kappa((10, 10), (10, 120))
        assert near > far

    def test_floor_keeps_far_coupling_alive(self, coupling, basys3_device):
        c = coupling.constants
        far = coupling.kappa((1, 1), (40, 148))
        sensor_g = coupling.supply_factor(1, 1)
        assert far > 0.9 * c.coupling_r0 * c.coupling_floor / sensor_g

    def test_supply_factor_divides(self, basys3_device):
        cm = CouplingModel(
            basys3_device, supply_factors={"X0Y0": 2.0, "X1Y0": 1.0}
        )
        load = (20, 25)
        weak = cm.kappa((30, 25), load)   # in X1Y0, factor 1.0
        strong = cm.kappa((10, 25), load)  # in X0Y0, factor 2.0
        # Equal distance on both sides: only the factor differs.
        assert weak > strong

    def test_vector_matches_scalar(self, coupling):
        loads = [LoadSite(3, 4), LoadSite(30, 100)]
        vec = coupling.coupling_vector((10, 10), loads)
        for i, l in enumerate(loads):
            assert vec[i] == pytest.approx(coupling.kappa((10, 10), l.position))

    def test_empty_loads(self, coupling):
        assert coupling.coupling_vector((0, 0), []).shape == (0,)

    def test_unknown_region_factor_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            CouplingModel(basys3_device, supply_factors={"X7Y7": 1.0})

    def test_nonpositive_factor_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            CouplingModel(basys3_device, supply_factors={"X0Y0": 0.0})

    def test_default_factor_maps_exist(self, basys3_device, zu3eg_device):
        for dev in (basys3_device, zu3eg_device):
            factors = REGION_SUPPLY_FACTORS[dev.name]
            region_names = {r.name for r in dev.clock_regions}
            assert set(factors) == region_names


class TestFiltering:
    def test_constant_current_passes_through(self, coupling):
        # An idle load (zero current) stays idle: no droop appears.
        for level in (3e-3, 0.0):
            x = np.full(100, level)
            y = coupling.filter_currents(x, dt=3.33e-9)
            np.testing.assert_allclose(y, x, rtol=1e-9)

    def test_step_rises_with_tau(self, coupling):
        x = np.concatenate([np.zeros(1), np.ones(200)])
        y = coupling.filter_currents(x, dt=1e-9)
        tau = coupling.constants.pdn_tau
        k = int(round(tau / 1e-9))
        # After one time constant the step reaches ~63%.
        assert y[k] == pytest.approx(1 - np.exp(-1), abs=0.08)

    def test_filter_preserves_shape_2d(self, coupling):
        x = np.random.default_rng(0).random((4, 50))
        y = coupling.filter_currents(x, dt=1e-9)
        assert y.shape == x.shape

    def test_filter_is_causal_smoothing(self, coupling):
        x = np.zeros(100)
        x[50] = 1.0
        y = coupling.filter_currents(x, dt=1e-9)
        assert np.all(y[:50] < 1e-12)
        assert y[50] < 1.0  # impulse is attenuated


class TestMeshCalibration:
    def test_fitted_kernel_matches_mesh_shape(self):
        mesh = PDNMesh(21, 21, r_grid=0.5, r_via=25.0)
        r0, decay, floor = fit_to_mesh(mesh, (10, 10))
        assert r0 > 0
        assert decay > 0
        assert 0 < floor < 1
        # The fitted kernel reproduces the mesh profile within ~20%
        # over the near field.
        profile = mesh.coupling_profile((10, 10), 1e-3) / 1e-3
        ys, xs = np.mgrid[0:21, 0:21]
        d = np.hypot(xs - 10, ys - 10)
        pred = r0 * (floor + (1 - floor) * np.exp(-d / decay))
        near = d < 8
        err = np.abs(pred[near] - profile[near]) / profile[near].max()
        assert err.max() < 0.2
