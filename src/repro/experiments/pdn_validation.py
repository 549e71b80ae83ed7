"""Ablation — validating the fast PDN surrogate against the RC mesh.

Every experiment's voltage numbers come from the distance-decay
surrogate (:mod:`repro.pdn.coupling`); this study quantifies how well
its kernel family reproduces the reference RC-mesh physics:

* fit the kernel to a mesh coupling profile (:func:`fit_to_mesh`) and
  report the residual;
* check that the surrogate's two structural predictions — droop
  superposition over loads and a non-decaying far-field floor — hold in
  the mesh;
* compare the mesh's step-response settling against the surrogate's
  single-pole filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.experiments import registry
from repro.pdn.coupling import fit_to_mesh
from repro.runtime import Engine


@dataclass
class PdnValidationResult:
    """Surrogate-vs-mesh comparison metrics."""

    fitted_r0: float
    fitted_decay: float
    fitted_floor: float
    #: Max |kernel - mesh| over the near field, relative to peak.
    near_field_error: float
    #: Mesh far-field droop over peak droop (the floor the kernel models).
    mesh_far_over_peak: float
    #: Relative superposition error of two simultaneous mesh loads.
    superposition_error: float
    #: Mesh 10-90% step-rise time [s] (the pdn_tau analogue).
    step_rise_time: float

    def formatted(self) -> list:
        """Summary lines."""
        return [
            f"kernel fit: r0={self.fitted_r0:.4f} V/A, "
            f"decay={self.fitted_decay:.1f} tiles, floor={self.fitted_floor:.2f}",
            f"near-field error: {self.near_field_error:.1%}",
            f"far-field floor (mesh): {self.mesh_far_over_peak:.2f}",
            f"superposition error: {self.superposition_error:.2e}",
            f"step rise time: {self.step_rise_time * 1e9:.1f} ns",
        ]


def run_pdn_validation(
    nx: int = 25,
    ny: int = 25,
    load_current: float = 10e-3,
    r_grid: float = 0.5,
    r_via: float = 150.0,
) -> PdnValidationResult:
    """Run the surrogate-vs-mesh validation on an ``nx x ny`` mesh.

    The default via resistance is the device-representative value: weak
    per-node supply taps relative to the grid, which produces the long
    decay lengths and substantial far-field floor the fast surrogate
    assumes.  Note the known fidelity limit: the 2-D mesh's coupling
    profile is not a single exponential, so the kernel-family fit error
    grows from ~10% on region-sized meshes toward ~25% at full-die
    ranges — acceptable because the experiments' voltage deltas are
    dominated by the near field plus the floor, both captured well.
    """
    from repro.pdn.mesh import PDNMesh

    mesh = PDNMesh(nx, ny, r_grid=r_grid, r_via=r_via)
    center = (nx // 2, ny // 2)

    r0, decay, floor = fit_to_mesh(mesh, center, load_current)
    profile = mesh.coupling_profile(center, load_current) / load_current
    ys, xs = np.mgrid[0:ny, 0:nx]
    d = np.hypot(xs - center[0], ys - center[1])
    kernel = r0 * (floor + (1 - floor) * np.exp(-d / decay))
    near = d < min(nx, ny) / 3
    near_err = float(
        np.abs(kernel[near] - profile[near]).max() / profile.max()
    )

    far_over_peak = float(profile[0, 0] / profile.max())

    # Superposition: mesh droop of two loads vs. sum of singles.
    a, b = (nx // 4, ny // 4), (3 * nx // 4, 3 * ny // 4)
    da = 1.0 - mesh.solve_static({a: load_current})
    db = 1.0 - mesh.solve_static({b: load_current})
    dab = 1.0 - mesh.solve_static({a: load_current, b: load_current})
    superposition_err = float(
        np.abs(dab - (da + db)).max() / np.abs(dab).max()
    )

    # Step response rise time at the load node (fine step: the local
    # RC product is sub-nanosecond).
    dt = 5e-11
    steps = 600
    currents = np.full((1, steps), load_current)
    v = mesh.transient([center], currents, dt=dt)
    node = v[:, center[1], center[0]]
    droop = (1.0 - node) / (1.0 - node[-1])
    t10 = int(np.argmax(droop >= 0.1)) * dt
    t90 = int(np.argmax(droop >= 0.9)) * dt
    rise = t90 - t10

    return PdnValidationResult(
        fitted_r0=r0,
        fitted_decay=decay,
        fitted_floor=floor,
        near_field_error=near_err,
        mesh_far_over_peak=far_over_peak,
        superposition_error=superposition_err,
        step_rise_time=float(rise),
    )


def render(result: PdnValidationResult) -> List[str]:
    """Report lines."""
    return list(result.formatted())


def _metrics(result: PdnValidationResult) -> Dict[str, float]:
    return {
        "near_field_error": round(result.near_field_error, 4),
        "superposition_error": float(result.superposition_error),
        "step_rise_time_ns": round(result.step_rise_time * 1e9, 2),
    }


@registry.register(
    "pdn-validation",
    title="Ablation — PDN surrogate vs. RC-mesh reference",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(
    config: registry.ExperimentConfig, engine: Engine
) -> PdnValidationResult:
    # Deterministic linear algebra: no RNG, no acquisition engine.
    params = config.params(quick={"nx": 17, "ny": 17}, paper={})
    return run_pdn_validation(**params)


run = registry.protocol_entry("pdn-validation")
