"""The fused acquisition kernel and stage-level profiling.

The hot path of every campaign is ``acquire_block`` — AES round states,
switching currents, the PDN low-pass, and the sensor's moment-matched
readout draw.  This package holds the fused implementation of that path
(:mod:`repro.kernels.aes_trace`), the shared-pass fan-out layer that
amortises one AES+PDN pass across N sensors
(:mod:`repro.kernels.fanout`, with an optional self-tested C inner loop
in :mod:`repro.kernels._csampler`), the precomputed PDN step-response
basis the fused kernel multiplies against (:mod:`repro.kernels.basis`),
and the structured per-stage cost accounting
(:mod:`repro.kernels.profile`).

There is one compute path: an acquisition's ``kernel=None`` resolves to
the shared :class:`FusedAcquisitionKernel`.  Passing an
:class:`AcquisitionKernel` instance instead is the seam the
differential tests use to run the unfused oracle.
"""

from repro.kernels.aes_trace import (
    LEAD_IN_CYCLES,
    AcquisitionKernel,
    FusedAcquisitionKernel,
    get_kernel,
)
from repro.kernels.basis import StepResponseBasis, step_response_basis, unit_boxcars
from repro.kernels.profile import StageAccount, StageProfile, StageStats

__all__ = [
    "LEAD_IN_CYCLES",
    "AcquisitionKernel",
    "FusedAcquisitionKernel",
    "StageAccount",
    "StageProfile",
    "StageStats",
    "StepResponseBasis",
    "get_kernel",
    "step_response_basis",
    "unit_boxcars",
]
