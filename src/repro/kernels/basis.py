"""Precomputed PDN step-response basis for piecewise-constant loads.

The acquisition hot path used to low-pass filter a dense ``(m,
n_samples)`` current matrix per chunk (the reference filter,
:meth:`repro.pdn.coupling.CouplingModel.filter_currents`, a sequential
recurrence along the sample axis).  But the PDN surrogate's
filter is *linear and time-invariant*, and the AES current waveform is
piecewise constant over exactly ``AES128.CYCLES_PER_BLOCK`` victim
cycles:

``i(t) = base + per_bit * sum_c hd[c] * boxcar_c(t)``

where ``boxcar_c`` is the indicator of cycle ``c``'s sensor-sample
window.  Filtering commutes with the sum, so the filtered droop of every
trace is a *matmul* against a tiny precomputed basis:

``lowpass(i)(t) = base + per_bit * (hd @ B)[t]``

with ``B[c] = lowpass(boxcar_c)`` (zero initial state) an ``(n_cycles,
n_samples)`` matrix that depends only on the clock ratio, the trace
length and the filter pole — computed once per configuration and shared
by every chunk, worker and campaign.  The constant ``base`` term is
exact because the reference filter starts in steady state at the first
sample's value, which *is* the base current whenever the trace has at
least one lead-in cycle.

The decomposition is exact in real arithmetic; in floats the matmul
reorders sums, so fused results differ from the reference recurrence at
the level of a few ULPs (see ``tests/test_kernels.py`` for the bound).

The basis rows are filtered by a numpy one-pole recurrence
(:func:`one_pole_lowpass`) rather than ``scipy.signal.lfilter``: it runs
the same float operations in the same order, so the rows are
bit-identical to ``lfilter``'s (``tests/test_kernels.py`` pins this),
and a campaign never has to import ``scipy.signal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Cache of built bases.  A campaign touches a handful of
#: configurations (one per AES frequency / trace length), so an
#: unbounded-feeling dict with a simple size cap is plenty.
_BASIS_CACHE: Dict[Tuple[int, int, int, int, float], "StepResponseBasis"] = {}
_BASIS_CACHE_MAX = 128


@dataclass(frozen=True)
class StepResponseBasis:
    """The filtered unit-boxcar basis for one acquisition configuration.

    Attributes
    ----------
    n_cycles:
        Victim clock cycles per block (11 for round-per-cycle AES-128).
    samples_per_cycle:
        Sensor samples per victim cycle.
    n_samples:
        Trace length the basis spans.
    lead_in_cycles:
        Idle victim cycles before the first boxcar starts.
    pole:
        The first-order low-pass pole ``exp(-dt / tau)``.
    matrix:
        ``(n_cycles, n_samples)`` filtered unit boxcars (zero-state
        response), read-only.
    """

    n_cycles: int
    samples_per_cycle: int
    n_samples: int
    lead_in_cycles: int
    pole: float
    matrix: np.ndarray

    def scaled(self, gain: float) -> np.ndarray:
        """A scaled copy of the basis matrix (``gain * B``)."""
        return gain * self.matrix


def unit_boxcars(
    n_cycles: int,
    samples_per_cycle: int,
    n_samples: int,
    lead_in_cycles: int,
) -> np.ndarray:
    """The unfiltered ``(n_cycles, n_samples)`` unit-boxcar matrix: row
    ``c`` is 1.0 over cycle ``c``'s sample window, clipped to the trace."""
    out = np.zeros((n_cycles, n_samples), dtype=np.float64)
    start = lead_in_cycles * samples_per_cycle
    for cycle in range(n_cycles):
        lo = start + cycle * samples_per_cycle
        hi = min(n_samples, lo + samples_per_cycle)
        if lo < n_samples:
            out[cycle, lo:hi] = 1.0
    return out


def one_pole_lowpass(x: np.ndarray, pole: float) -> np.ndarray:
    """Zero-state first-order low-pass of ``x`` along its last axis:
    ``y[..., n] = x[..., n] * (1 - pole) + y[..., n-1] * pole``.

    This is the recurrence ``scipy.signal.lfilter([1 - pole], [1, -pole],
    x, axis=-1)`` runs, in the same float operations, so the result is
    bit-identical to it."""
    b0 = 1.0 - pole
    y = np.empty(x.shape, dtype=np.float64)
    y[..., 0] = x[..., 0] * b0
    for n in range(1, x.shape[-1]):
        y[..., n] = x[..., n] * b0 + y[..., n - 1] * pole
    return y


def step_response_basis(
    n_cycles: int,
    samples_per_cycle: int,
    n_samples: int,
    lead_in_cycles: int,
    pole: float,
) -> StepResponseBasis:
    """Build (or fetch from cache) the filtered unit-boxcar basis.

    ``pole`` is ``exp(-dt / tau)`` — the same coefficient the reference
    :meth:`repro.pdn.coupling.CouplingModel.filter_currents` derives —
    and the rows are filtered with the identical first-order recurrence
    (zero initial state, :func:`one_pole_lowpass`), so the basis is the
    reference filter's exact zero-state response to each cycle window.
    """
    if n_cycles < 1:
        raise ConfigurationError("basis needs at least one cycle")
    if samples_per_cycle < 1:
        raise ConfigurationError("samples_per_cycle must be >= 1")
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    if lead_in_cycles < 0:
        raise ConfigurationError("lead_in_cycles must be >= 0")
    if not 0.0 <= pole < 1.0:
        raise ConfigurationError(
            f"filter pole must lie in [0, 1), got {pole!r}"
        )
    key = (n_cycles, samples_per_cycle, n_samples, lead_in_cycles, float(pole))
    cached = _BASIS_CACHE.get(key)
    if cached is not None:
        return cached

    boxcars = unit_boxcars(n_cycles, samples_per_cycle, n_samples, lead_in_cycles)
    matrix = one_pole_lowpass(boxcars, float(pole))
    matrix.setflags(write=False)
    basis = StepResponseBasis(
        n_cycles=n_cycles,
        samples_per_cycle=samples_per_cycle,
        n_samples=n_samples,
        lead_in_cycles=lead_in_cycles,
        pole=float(pole),
        matrix=matrix,
    )
    if len(_BASIS_CACHE) >= _BASIS_CACHE_MAX:
        _BASIS_CACHE.clear()
    _BASIS_CACHE[key] = basis
    return basis
