"""Acquisition harnesses: drive victims, run the PDN, sample sensors.

* :class:`AESTraceAcquisition` — the key-extraction campaign (Section
  IV-B): per encryption, the AES core's per-cycle switching current is
  injected at its placement, propagated through the PDN surrogate, and
  the sensor's readouts over the encryption window form one trace.
  Canonically constructed from an :class:`AcquisitionSpec`.
* :class:`MultiSensorAcquisition` — N sensors/placements observing the
  *same* victim campaign: one shared AES+PDN pass per block fans out to
  per-sensor trace sets, bit-identical to N independent campaigns.
* :func:`characterize_droop` / :func:`characterize_block` — the
  characterization workloads (Section IV-A): sample a sensor under a
  steady power-virus activity level.

Each exposes a *block* primitive (:meth:`AESTraceAcquisition.
acquire_block`, :meth:`MultiSensorAcquisition.acquire_block_many`,
:func:`characterize_block`) that computes one fully vectorized batch
from an explicit RNG.  Campaigns run through :class:`repro.runtime.
Engine`, which runs one block per shard against per-shard spawned
generators — which is what makes acquisition deterministic at any
worker count.

One deliberate substitution: the paper chains plaintexts (each
ciphertext becomes the next plaintext) to avoid repetition, which would
serialize trace generation.  We draw plaintexts uniformly at random
instead — statistically equivalent for CPA (uniform, non-repeating with
overwhelming probability) — while still modelling the chained protocol's
register history (the pre-load register value of the model is the trace's
own plaintext, exactly as chaining would leave it).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sensor import SamplingMethod, VoltageSensor
from repro.errors import AcquisitionError
from repro.kernels import AcquisitionKernel, StageProfile, get_kernel
from repro.pdn.coupling import CouplingModel
from repro.pdn.noise import NoiseModel
from repro.victims.aes import AES128, AESHardwareModel
from repro.victims.power_virus import PowerVirusBank


def _coerce_group_count(active_groups, n_groups: int) -> int:
    """Validate an ``active_groups`` argument into a plain int.

    Accepts ints, numpy integers and integer-valued floats (a common
    by-product of sweeping levels with ``numpy.linspace``); rejects
    fractional values and anything outside ``0..n_groups``.
    """
    if isinstance(active_groups, bool):
        raise AcquisitionError(
            f"active_groups must be an integer, got {active_groups!r}"
        )
    if isinstance(active_groups, numbers.Integral):
        count = int(active_groups)
    elif isinstance(active_groups, numbers.Real):
        as_float = float(active_groups)
        if not as_float.is_integer():
            raise AcquisitionError(
                f"active_groups must be a whole number of groups, "
                f"got {active_groups!r}"
            )
        count = int(as_float)
    else:
        raise AcquisitionError(
            f"active_groups must be an integer, got {active_groups!r}"
        )
    if not 0 <= count <= n_groups:
        raise AcquisitionError(
            f"active_groups must be 0..{n_groups}, got {active_groups}"
        )
    return count


@dataclass(frozen=True)
class AcquisitionSpec:
    """Declarative description of one (sensor, placement) acquisition.

    The single construction currency of the acquisition API: harnesses
    are built from specs (``AESTraceAcquisition(spec=spec)`` or
    ``spec.build()``), fan-out campaigns take lists of them
    (:class:`MultiSensorAcquisition`), and the experiment modules'
    placement helpers (:func:`repro.experiments.common.placement_spec`)
    return them.

    Fields
    ------
    sensor:
        A placed, calibrated sensor.
    coupling:
        The PDN surrogate for the shared device.
    hw_model:
        The AES hardware/power model (clocks and currents).
    aes_position:
        Die position of the AES core (its placement centroid).
    noise:
        Voltage noise model; ``None`` means white noise at the sensor
        constants' RMS level.
    kernel:
        The kernel behind :meth:`AESTraceAcquisition.acquire_block`:
        ``None`` (the shared :class:`~repro.kernels.
        FusedAcquisitionKernel`) or an
        :class:`~repro.kernels.AcquisitionKernel` instance.
    """

    sensor: VoltageSensor
    coupling: CouplingModel
    hw_model: AESHardwareModel
    aes_position: Tuple[float, float]
    noise: Optional[NoiseModel] = None
    kernel: Optional[AcquisitionKernel] = None

    def build(self) -> "AESTraceAcquisition":
        """Construct the acquisition harness this spec describes."""
        return AESTraceAcquisition(spec=self)


class AESTraceAcquisition:
    """Collect AES power traces through an on-chip sensor.

    Constructed from a single :class:`AcquisitionSpec`::

        acq = AESTraceAcquisition(spec=spec)   # or spec.build()

    See the spec's field documentation for parameter semantics.
    """

    def __init__(self, *, spec: AcquisitionSpec) -> None:
        if not isinstance(spec, AcquisitionSpec):
            raise TypeError(
                f"spec must be an AcquisitionSpec, got {type(spec).__name__}"
            )
        self.sensor = spec.sensor
        self.coupling = spec.coupling
        self.hw_model = spec.hw_model
        self.aes_position = spec.aes_position
        self.kernel = get_kernel(spec.kernel)
        constants = spec.sensor.constants
        # White noise only by default: campaign-scale drift is a
        # separate, explicitly-opted-in effect (pass a NoiseModel with
        # drift_rms set) so that trace-count results stay comparable
        # across AES frequencies, whose traces differ in length.
        self.noise = spec.noise or NoiseModel(
            white_rms=constants.voltage_noise_rms, drift_rms=0.0
        )

    @property
    def spec(self) -> AcquisitionSpec:
        """This harness's configuration as a (normalized) spec — noise
        and kernel are the resolved instances, not the ``None``
        placeholders they may have been built from."""
        return AcquisitionSpec(
            sensor=self.sensor,
            coupling=self.coupling,
            hw_model=self.hw_model,
            aes_position=self.aes_position,
            noise=self.noise,
            kernel=self.kernel,
        )

    def default_n_samples(self) -> int:
        """Trace length used when ``n_samples`` is not given: the
        encryption span plus one cycle of margin on either side."""
        return self.hw_model.samples_per_block + 2 * self.hw_model.samples_per_cycle

    def cache_token(self) -> Dict[str, object]:
        """Deterministic fingerprint of everything this harness feeds
        into a trace block, for :mod:`repro.traces.blockstore` keys.

        Combines the behavioral tokens of the sensor, the PDN
        surrogate, the hardware model and the noise model with the AES
        placement.  The acquisition *kernel* is deliberately excluded:
        a kernel must be bit-identical to the literal pipeline
        (differentially tested against the oracle in
        ``tests/test_kernels.py``), so a block is valid whichever
        kernel computed it.
        """
        return {
            "kind": "aes-trace",
            "sensor": self.sensor.cache_token(),
            "coupling": self.coupling.cache_token(),
            "hw_model": self.hw_model.cache_token(),
            "noise": self.noise.cache_token(),
            "aes_position": [float(p) for p in self.aes_position],
        }

    def acquire_block(
        self,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One fully vectorized acquisition block.

        Runs the model pipeline (AES round states -> switching currents
        -> PDN filter -> sensor sampling) for a batch of plaintexts,
        drawing noise and sampling randomness from ``rng``.  The work is
        delegated to the harness's :attr:`kernel`; per-stage costs
        accumulate into ``profile`` when given.

        Returns ``(readouts, ciphertexts)`` with shapes
        ``(m, n_samples)`` int16 and ``(m, 16)`` uint8.
        """
        return self.kernel.acquire(
            self, aes, plaintexts, rng, n_samples, profile=profile
        )

    def trace_metadata(self, key) -> Dict[str, object]:
        """The acquisition-parameter metadata attached to trace sets."""
        aes = key if isinstance(key, AES128) else AES128(key)
        sensor_pos = self.sensor.require_position()
        return {
            "sensor": self.sensor.name,
            "sensor_type": type(self.sensor).__name__,
            "sensor_position": list(map(float, sensor_pos)),
            "aes_position": list(map(float, self.aes_position)),
            "aes_frequency_hz": self.hw_model.aes_clock.frequency,
            "sensor_frequency_hz": self.hw_model.sensor_clock.frequency,
            "samples_per_cycle": self.hw_model.samples_per_cycle,
            "kernel": self.kernel.name,
        }


class MultiSensorAcquisition:
    """N sensors/placements observing one AES victim campaign.

    Accepts a list of :class:`AcquisitionSpec` (or built
    :class:`AESTraceAcquisition`) entries and fans every block's shared
    AES+PDN pass out to all of them via
    :meth:`~repro.kernels.AcquisitionKernel.acquire_many`.  Sensor
    type, placement, coupling and AES position are free to vary per
    entry; the hardware model and noise model must be value-equal and
    the kernel must be the same instance (the fan-out models one
    physical victim run, so there is exactly one cipher schedule and
    one acquisition RNG stream).

    The per-sensor results are bit-identical to N independent
    single-sensor campaigns over the same seed — that is the
    ``acquire_many`` contract, differentially tested in
    ``tests/test_fanout.py`` — so fan-out is purely a cost optimization
    and per-sensor cache blocks stay interchangeable with single-sensor
    ones.
    """

    def __init__(
        self,
        acquisitions: Sequence[Union[AcquisitionSpec, AESTraceAcquisition]],
    ) -> None:
        harnesses: List[AESTraceAcquisition] = []
        for entry in acquisitions:
            if isinstance(entry, AESTraceAcquisition):
                harnesses.append(entry)
            elif isinstance(entry, AcquisitionSpec):
                harnesses.append(entry.build())
            else:
                raise AcquisitionError(
                    "MultiSensorAcquisition entries must be AcquisitionSpec "
                    f"or AESTraceAcquisition, got {type(entry).__name__}"
                )
        if not harnesses:
            raise AcquisitionError(
                "MultiSensorAcquisition needs at least one acquisition"
            )
        first = harnesses[0]
        hw_token = first.hw_model.cache_token()
        noise_token = first.noise.cache_token()
        for harness in harnesses[1:]:
            if harness.hw_model.cache_token() != hw_token:
                raise AcquisitionError(
                    "fan-out acquisitions must share one hardware-model "
                    "configuration (same clocks and currents)"
                )
            if harness.noise.cache_token() != noise_token:
                raise AcquisitionError(
                    "fan-out acquisitions must share one noise-model "
                    "configuration"
                )
            if harness.kernel is not first.kernel:
                raise AcquisitionError(
                    "fan-out acquisitions must share one kernel instance"
                )
        self.acquisitions = harnesses
        self.kernel = first.kernel

    def __len__(self) -> int:
        return len(self.acquisitions)

    def __iter__(self) -> Iterator[AESTraceAcquisition]:
        return iter(self.acquisitions)

    def __getitem__(self, index: int) -> AESTraceAcquisition:
        return self.acquisitions[index]

    def default_n_samples(self) -> int:
        """Shared trace length (the hardware models are value-equal)."""
        return self.acquisitions[0].default_n_samples()

    def cache_tokens(self) -> List[Dict[str, object]]:
        """Per-sensor cache tokens — each is exactly the token the
        sensor's standalone harness would produce, which is what keeps
        fan-out and single-sensor campaigns cache-compatible."""
        return [harness.cache_token() for harness in self.acquisitions]

    def acquire_block_many(
        self,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
        skip=(),
    ) -> list:
        """One fan-out block: per-sensor ``(readouts, ciphertexts)``
        tuples (``None`` at skipped indices), under the shared-kernel
        :meth:`~repro.kernels.AcquisitionKernel.acquire_many`
        contract."""
        return self.kernel.acquire_many(
            self.acquisitions, aes, plaintexts, rng, n_samples,
            profile=profile, skip=skip,
        )


def characterize_droop(
    sensor: VoltageSensor,
    coupling: CouplingModel,
    virus: PowerVirusBank,
    active_groups: int,
) -> float:
    """Steady-state droop [V] at the sensor for a virus activity level
    (the deterministic part of :meth:`repro.runtime.Engine.
    characterize_many`); ``active_groups`` must be a whole number of groups
    in ``0 .. virus.n_groups``."""
    active_groups = _coerce_group_count(active_groups, virus.n_groups)
    sensor_pos = sensor.require_position()
    enables = np.zeros(virus.n_groups)
    enables[:active_groups] = 1.0
    return float(virus.droop_at(coupling, sensor_pos, enables))


def characterize_block(
    sensor: VoltageSensor,
    droop: float,
    noise: NoiseModel,
    n_readouts: int,
    rng: np.random.Generator,
    profile: Optional[StageProfile] = None,
) -> np.ndarray:
    """One vectorized characterization block: noisy voltages around a
    precomputed droop, sampled with the exact per-bit method."""
    if profile is None:
        profile = StageProfile()
    with profile.stage("pdn", items=n_readouts) as acct:
        volts = sensor.constants.v_nominal - droop + noise.sample(n_readouts, rng)
        acct.account(volts)
    with profile.stage("sensor", items=n_readouts) as acct:
        readouts = sensor.sample_readouts(volts, rng=rng, method=SamplingMethod.EXACT)
        acct.account(readouts)
    return readouts
