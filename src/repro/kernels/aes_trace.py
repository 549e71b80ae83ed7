"""The acquisition kernel: the trace-generation hot path.

:class:`FusedAcquisitionKernel` computes the model pipeline (AES round
states -> switching currents -> PDN low-pass -> sensor sampling) as an
algebraically fused rewrite of the literal pipeline:

- the PDN droop is a single BLAS matmul against the precomputed
  step-response basis (:mod:`repro.kernels.basis`) instead of filtering
  an ``(m, n_samples)`` current matrix — the dense current matrix is
  never materialized;
- the moments-table lookup exploits the table's *uniform* grid: one
  shared index/fraction computation replaces two binary-searching
  ``numpy.interp`` passes;
- the readout draw is one ``standard_normal`` fill plus two fused
  in-place passes (bit-identical to ``Generator.normal(mu, sigma)``,
  which computes ``loc + scale * z`` elementwise).

It consumes the RNG stream of the literal pipeline (same draws, same
order), so for a fixed seed the two differ only by floating-point
summation order — a few ULPs of voltage, which virtually never moves a
rounded integer readout.  The literal pipeline lives on as the test
oracle (``tests/oracles.py``), injected through the
:class:`AcquisitionKernel` seam.  Determinism across worker counts is
inherited unchanged: a kernel is a pure function of
(block, rng), and the engine's shard plan fixes both.

Kernels are stateless apart from caches; ``kernel=None`` resolves to
one shared instance (:func:`get_kernel`), which travels to worker
processes with the pickled acquisition harness (caches are dropped on
pickle and rebuilt once per worker).
"""

from __future__ import annotations

import abc
import threading
import weakref
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from repro.core.sensor import check_table_range
from repro.errors import ConfigurationError
from repro.kernels import fanout
from repro.kernels.basis import step_response_basis
from repro.kernels.profile import StageProfile
from repro.victims.aes.core import AES128

#: Lead-in cycles the acquisition path uses (pre-trigger margin).  The
#: fused droop decomposition needs at least one: it is what pins the
#: filter's initial steady state to the base current.
LEAD_IN_CYCLES = 1

#: Floor applied to the interpolated readout sigma (matches the
#: ``VoltageSensor.sample_readouts`` floor).
SIGMA_FLOOR = 1e-9

#: Elements per tile in the fused sensor stage.  The stage is ~15
#: elementwise passes; run whole-array they stream ~190 MB through DRAM
#: per 4096-trace block, tiled at 64k elements (512 kB) the working set
#: stays cache-resident and each array crosses DRAM once.  Tiling is
#: value-exact: every op is elementwise, so the tile split does not
#: change a single float.
SENSOR_TILE = 1 << 16


class AcquisitionKernel(abc.ABC):
    """One implementation of the AES-trace acquisition block."""

    #: Kernel name recorded in trace-set metadata.
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def acquire(
        self,
        acquisition,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one vectorized block.

        ``acquisition`` is the :class:`repro.traces.acquisition.
        AESTraceAcquisition` harness (duck-typed here to keep the
        dependency one-directional).  Returns ``(readouts, ciphertexts)``
        with shapes ``(m, n_samples)`` int16 and ``(m, 16)`` uint8.
        """

    def acquire_many(
        self,
        acquisitions,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
        skip=(),
    ) -> list:
        """Fan one block out to several acquisitions.

        The contract every implementation must honour: ``results[i]`` is
        bit-identical to restoring ``rng`` to its state at entry and
        running ``acquire(acquisitions[i], ...)`` alone, and on return
        the generator is left exactly where that single ``acquire``
        would have left it (the fan-out acquisitions model N sensors
        observing *one* victim run, so they share one RNG stream).  With
        heterogeneous noise models the final state is that of the last
        non-skipped acquisition's run.

        Indices in ``skip`` (e.g. per-sensor cache hits) yield ``None``
        without being computed; at least one index must remain, or the
        generator is left untouched.

        This generic fallback replays the block per acquisition by
        saving and restoring the bit-generator state — correct for any
        kernel, with no shared-pass savings.  Subclasses may override
        with a fused implementation.
        """
        skip = frozenset(skip)
        results: list = [None] * len(acquisitions)
        if not acquisitions:
            return results
        state = rng.bit_generator.state
        for index, acquisition in enumerate(acquisitions):
            if index in skip:
                continue
            rng.bit_generator.state = state
            results[index] = self.acquire(
                acquisition, aes, plaintexts, rng, n_samples, profile=profile
            )
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def _aes_stage(hw_model, aes: AES128, plaintexts, profile, acct):
    """Shared single-pass AES stage: round states once, HDs and
    ciphertexts derived from the same array."""
    states = aes.round_states(plaintexts)
    hd = hw_model.cycle_hamming_distances(aes, plaintexts, states=states)
    cts = states[:, -1].copy()
    acct.account(states, hd, cts)
    return hd, cts


class _TableInterpolant:
    """Uniform-grid view of a sensor's voltage->moments table.

    Precomputes per-cell slopes so the fused kernel evaluates both the
    mean and sigma tables from one shared index/fraction pass.
    """

    __slots__ = ("table", "lo", "inv_step", "last_cell", "mu", "dmu", "sigma", "dsigma")

    def __init__(self, table: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        grid, mu_t, sigma_t = table
        self.table = table
        self.lo = float(grid[0])
        self.inv_step = (len(grid) - 1) / float(grid[-1] - grid[0])
        self.last_cell = len(grid) - 2
        self.mu = mu_t
        self.dmu = np.diff(mu_t)
        self.sigma = sigma_t
        self.dsigma = np.diff(sigma_t)


#: Per-process interpolant cache, keyed by sensor instance.  Entries are
#: invalidated by identity of the sensor's cached table tuple, so
#: ``invalidate_table()`` (tap changes) naturally refreshes them.
_TABLE_INTERPOLANTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _table_interpolant(sensor) -> _TableInterpolant:
    table = sensor._moments_table()
    interp = _TABLE_INTERPOLANTS.get(sensor)
    if interp is None or interp.table is not table:
        interp = _TableInterpolant(table)
        _TABLE_INTERPOLANTS[sensor] = interp
    return interp


class _Workspace(threading.local):
    """One kernel's scratch arrays, per thread: the campaign service
    runs campaigns on several threads at once, all through the shared
    kernel."""

    def __init__(self) -> None:
        self.size = -1
        self.arrays: Dict[str, np.ndarray] = {}
        self.fanout: Dict[str, np.ndarray] = {}


class FusedAcquisitionKernel(AcquisitionKernel):
    """Fused LTI acquisition kernel.

    See the module docstring for the algebra.  Per-configuration
    weights — the sign-folded, gain-scaled basis and the nominal-voltage
    offset — are cached on the instance and rebuilt lazily after
    pickling (worker processes pay the tiny basis build once).
    """

    name: ClassVar[str] = "fused"

    def __init__(self) -> None:
        self._weights: Dict[tuple, Tuple[np.ndarray, float]] = {}
        self._scratch = _Workspace()

    # -- pickling: caches are per-process ------------------------------
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._weights = {}
        self._scratch = _Workspace()

    def _workspace(self, size: int) -> Dict[str, np.ndarray]:
        """This thread's scratch arrays for one flattened block.

        The big temporaries of the sensor stage (~6 MB each at the
        default block shape) are reused across blocks, so the steady
        state allocates nothing but the returned readouts.
        """
        scratch = self._scratch
        if scratch.size != size:
            tile = min(size, SENSOR_TILE)
            scratch.arrays = {
                "volts": np.empty(size),
                "noise": np.empty(size),
                "draw": np.empty(size),
                "pos": np.empty(tile),
                "idx": np.empty(tile, dtype=np.intp),
            }
            scratch.size = size
        return scratch.arrays

    # ------------------------------------------------------------------
    def _droop_weights(
        self, acquisition, kappa: float, n_samples: int
    ) -> Tuple[np.ndarray, float]:
        """``(weights, offset)`` such that ``volts = offset + hd @ weights``
        (before noise): ``weights = -(kappa * per_bit) * B`` and
        ``offset = v_nominal - kappa * base``."""
        hw = acquisition.hw_model
        spc = hw.samples_per_cycle
        dt = hw.sensor_clock.period
        pole = float(np.exp(-dt / acquisition.coupling.constants.pdn_tau))
        per_bit = hw.constants.aes_current_per_bit
        base = hw.constants.aes_base_current
        v_nominal = acquisition.sensor.constants.v_nominal
        key = (spc, n_samples, pole, kappa, per_bit, base, v_nominal)
        cached = self._weights.get(key)
        if cached is not None:
            return cached
        basis = step_response_basis(
            AES128.CYCLES_PER_BLOCK, spc, n_samples, LEAD_IN_CYCLES, pole
        )
        weights = basis.scaled(-(kappa * per_bit))
        offset = v_nominal - kappa * base
        if len(self._weights) >= 64:
            self._weights.clear()
        self._weights[key] = (weights, offset)
        return weights, offset

    # ------------------------------------------------------------------
    def acquire(
        self,
        acquisition,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        profile = profile if profile is not None else StageProfile()
        m = plaintexts.shape[0]
        sensor = acquisition.sensor
        sensor_pos = sensor.require_position()
        kappa = acquisition.coupling.kappa(sensor_pos, acquisition.aes_position)

        with profile.stage("aes", items=m) as acct:
            hd, cts = _aes_stage(acquisition.hw_model, aes, plaintexts, profile, acct)

        with profile.stage("pdn", items=m) as acct:
            weights, offset = self._droop_weights(acquisition, kappa, n_samples)
            ws = self._workspace(m * n_samples)
            # (m, 11) @ (11, n_samples): the filtered droop of the whole
            # block in one BLAS call; the dense current matrix and the
            # sequential recurrence are gone.
            volts = ws["volts"].reshape(m, n_samples)
            np.matmul(hd.astype(np.float64), weights, out=volts)
            volts += offset
            acct.account(volts)

        with profile.stage("sensor", items=m) as acct:
            self._add_noise(acquisition.noise, volts, rng, ws)
            readouts = self._sample_normal(sensor, volts, rng, ws)
            acct.account(readouts)
        return readouts, cts

    # ------------------------------------------------------------------
    @staticmethod
    def _add_noise(noise, volts: np.ndarray, rng: np.random.Generator, ws) -> None:
        """Add voltage noise in place, consuming the RNG exactly like
        ``noise.sample(volts.size, rng)``.

        The default campaign noise is white-only; that case is one
        ``standard_normal`` fill of a reused buffer plus an in-place
        scale/add (``Generator.normal(0, rms, n)`` computes ``rms * z``
        elementwise, so the values are bit-identical).  Drift or burst
        components fall back to the model's own sampler.
        """
        flat = volts.ravel()
        if noise.drift_rms or noise.burst_rate:
            flat += noise.sample(flat.size, rng)
            return
        if not noise.white_rms:
            return
        buf = ws["noise"]
        rng.standard_normal(out=buf)
        buf *= noise.white_rms
        flat += buf

    # ------------------------------------------------------------------
    def _sample_normal(
        self, sensor, volts: np.ndarray, rng: np.random.Generator, ws
    ) -> np.ndarray:
        """Moment-matched normal sampling, fused.

        Semantically :meth:`VoltageSensor.sample_readouts` with
        ``method="normal"`` — same moments table, same range guard, same
        RNG consumption — but the two ``numpy.interp`` binary searches
        are replaced by one shared uniform-grid index computation, and
        the parameterized normal draw by a single ``standard_normal``
        fill plus in-place scale/shift.
        """
        flat = volts.ravel()
        interp = _table_interpolant(sensor)
        check_table_range(sensor, flat, interp.table[0])

        # One RNG fill for the whole block, up front: sample_readouts
        # draws all its readout gaussians in one call, and a sequential
        # fill is the same stream.
        full_draw = ws["draw"]
        rng.standard_normal(out=full_draw)
        out = np.empty(flat.size, dtype=np.int16)

        for start in range(0, flat.size, SENSOR_TILE):
            stop = min(start + SENSOR_TILE, flat.size)
            n = stop - start
            pos = np.subtract(flat[start:stop], interp.lo, out=ws["pos"][:n])
            pos *= interp.inv_step
            # The range guard proved pos >= 0, so the truncating cast
            # is a floor, and only the table's top edge needs clamping
            # (where numpy.interp saturates).
            idx = ws["idx"][:n]
            np.copyto(idx, pos, casting="unsafe")
            np.minimum(idx, interp.last_cell, out=idx)
            frac = pos
            frac -= idx
            np.minimum(frac, 1.0, out=frac)

            mu = interp.dmu[idx]
            mu *= frac
            mu += interp.mu[idx]
            sigma = interp.dsigma[idx]
            sigma *= frac
            sigma += interp.sigma[idx]
            np.maximum(sigma, SIGMA_FLOOR, out=sigma)

            draw = full_draw[start:stop]
            draw *= sigma
            draw += mu
            np.rint(draw, out=draw)
            np.clip(draw, 0, sensor.output_width, out=draw)
            np.copyto(out[start:stop], draw, casting="unsafe")
        return out.reshape(volts.shape)

    # ------------------------------------------------------------------
    @staticmethod
    def _fanout_shareable(acquisitions) -> bool:
        """Whether one shared AES+noise+draw pass serves every
        acquisition bit-exactly.

        Requires value-equal hardware and noise models (sensors,
        couplings and AES positions are free to differ — they only feed
        the per-sensor droop), and white-only noise: drift and burst
        terms route through ``NoiseModel.sample`` whose consumption is
        not a single reusable ``standard_normal`` fill.
        """
        first = acquisitions[0]
        if first.noise.drift_rms or first.noise.burst_rate:
            return False
        hw_token = first.hw_model.cache_token()
        noise_token = first.noise.cache_token()
        for acquisition in acquisitions[1:]:
            if (
                acquisition.hw_model is not first.hw_model
                and acquisition.hw_model.cache_token() != hw_token
            ):
                return False
            if (
                acquisition.noise is not first.noise
                and acquisition.noise.cache_token() != noise_token
            ):
                return False
        return True

    def acquire_many(
        self,
        acquisitions,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
        skip=(),
    ) -> list:
        """Shared-pass fan-out (see the base method for the contract).

        The AES stage, the white-noise fill and the quantisation draws
        are computed once for the whole fan-out; each sensor then pays
        only its own droop matmul and a single-pass sampling loop
        (:mod:`repro.kernels.fanout`).  At N=8 placements on the
        default campaign this is ~5x the cost of one acquire instead
        of 8x.  Returned tuples share one ciphertext array.

        A single acquisition takes the same pass (its one-pass sampler
        beats the generic replay's tiled one).  Falls back to the
        generic replay when the acquisitions cannot share a pass (mixed
        hardware/noise models, drift or burst noise).
        """
        skip = frozenset(skip)
        live = len(acquisitions) - len(skip & set(range(len(acquisitions))))
        if live <= 0 or not self._fanout_shareable(acquisitions):
            return super().acquire_many(
                acquisitions, aes, plaintexts, rng, n_samples,
                profile=profile, skip=skip,
            )
        profile = profile if profile is not None else StageProfile()
        m = plaintexts.shape[0]
        size = m * n_samples
        first = acquisitions[0]

        with profile.stage("aes", items=m) as acct:
            hd, cts = _aes_stage(first.hw_model, aes, plaintexts, profile, acct)
        hdf = hd.astype(np.float64)

        # Shared RNG consumption, in single-acquire order: white-noise
        # fill (skipped when the model is silent, exactly like
        # ``_add_noise``), then the quantisation draws.
        ws = self._workspace(size)
        noise_buf = ws["noise"]
        if first.noise.white_rms:
            rng.standard_normal(out=noise_buf)
            noise_buf *= first.noise.white_rms
        else:
            noise_buf[:] = 0.0
        draw_buf = ws["draw"]
        rng.standard_normal(out=draw_buf)

        if not self._scratch.fanout:
            self._scratch.fanout = fanout.make_scratch()
        results: list = [None] * len(acquisitions)
        volts = ws["volts"]
        for index, acquisition in enumerate(acquisitions):
            if index in skip:
                continue
            sensor = acquisition.sensor
            kappa = acquisition.coupling.kappa(
                sensor.require_position(), acquisition.aes_position
            )
            with profile.stage("pdn", items=m) as acct:
                weights, offset = self._droop_weights(acquisition, kappa, n_samples)
                np.matmul(hdf, weights, out=volts.reshape(m, n_samples))
                acct.account(volts)
            with profile.stage("sensor", items=m) as acct:
                out = np.empty(size, dtype=np.int16)
                fanout.sample_sensor(
                    sensor,
                    _table_interpolant(sensor),
                    volts,
                    offset,
                    noise_buf,
                    draw_buf,
                    SIGMA_FLOOR,
                    out,
                    self._scratch.fanout,
                )
                acct.account(out)
            results[index] = (out.reshape(m, n_samples), cts)
        return results




#: The process-wide fused kernel that ``kernel=None`` resolves to.
_SHARED_FUSED = FusedAcquisitionKernel()


def get_kernel(kernel: Optional[AcquisitionKernel] = None) -> AcquisitionKernel:
    """Resolve an acquisition's ``kernel`` argument.

    ``None`` is the shared :class:`FusedAcquisitionKernel`; an
    :class:`AcquisitionKernel` instance is returned unchanged (the seam
    differential tests use to inject an oracle kernel).  Anything else
    raises :class:`~repro.errors.ConfigurationError`.
    """
    if kernel is None:
        return _SHARED_FUSED
    if isinstance(kernel, AcquisitionKernel):
        return kernel
    raise ConfigurationError(
        f"kernel must be None or an AcquisitionKernel instance, got {kernel!r}"
    )
