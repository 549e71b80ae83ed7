"""Exception hierarchy for the LeakyDSP reproduction library.

All library-raised errors derive from :class:`ReproError` so that callers
can catch the whole family with a single handler while still being able
to distinguish configuration problems (bad primitive attributes, illegal
placements) from runtime problems (calibration failure, attack failure).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent parameters."""


class PrimitiveConfigError(ConfigurationError):
    """A vendor primitive (DSP48, IDELAY, ...) was given an illegal
    attribute value or an attribute combination the silicon does not
    support."""


class NetlistError(ReproError):
    """Structural netlist inconsistency (dangling net, duplicate cell,
    port mismatch, ...)."""


class PlacementError(ReproError):
    """A cell could not be legally placed (no free compatible site,
    Pblock violation, out-of-grid coordinates, ...)."""


class CalibrationError(ReproError):
    """Sensor calibration could not find a usable operating point."""


class AcquisitionError(ReproError):
    """Trace acquisition failed (no trigger, shape mismatch, ...)."""


class SensorRangeError(AcquisitionError):
    """A supply voltage fell below the sensor's tabulated operating
    range.

    The moment-matched ``"normal"`` sampling path interpolates a
    precomputed voltage->moments table; droops below its floor used to
    be silently clamped, flattening deep droops into the table edge.
    Raising instead makes an out-of-model operating point (an enormous
    power virus, a miscalibrated coupling surrogate) loud.  Excursions
    above the table are still clamped: there the readout genuinely
    saturates at its maximum."""


class CacheError(ReproError):
    """The trace block cache could not be set up or operated (bad root
    directory, invalid size cap, unwritable store)."""


class RemoteCacheError(CacheError):
    """A remote cache tier could not be reached or refused a request
    (connection failure, protocol error, rejected publish).

    The tiered store treats transient remote failures as misses — a
    dead artifact server degrades a fleet to local-only speed, it never
    breaks a campaign — but raises this from operations whose whole
    point is the remote side (an explicit publish, ``repro cache stats``
    against a server that is not there)."""


class CacheIntegrityWarning(UserWarning):
    """A cached trace block failed validation (truncated file, header
    corruption, digest mismatch).

    This is a *warning*, not an error, by design: a damaged block is
    indistinguishable from a missing one for correctness purposes — the
    engine discards it and re-acquires the shard, so results stay
    bit-identical.  The warning makes the silent repair visible (a
    recurring stream of them points at a failing disk or a writer that
    does not use the atomic temp-file + rename protocol)."""


class WorkerLostError(ReproError):
    """A pool worker process died mid-campaign (killed, crashed, out of
    memory), taking the shards it held with it.

    ``shards`` lists the plan indices of the shards whose results never
    arrived: those in flight when the pool broke and those not yet
    started."""

    def __init__(self, message: str, shards=()) -> None:
        super().__init__(message)
        self.shards = tuple(shards)


class AttackError(ReproError):
    """A side-channel attack could not be carried out as requested."""


class ServiceError(ReproError):
    """The campaign service could not carry out a request (unknown job,
    bad submission, broken quota accounting)."""


class QuotaExceededError(ServiceError):
    """A tenant's submission was refused by admission control: its
    active job count (queued + running) is at the tenant's quota."""


class JobCancelled(ServiceError):
    """A campaign job was cancelled.

    Raised *inside* the job's progress hook to unwind a running
    campaign cooperatively at the next checkpoint or shard boundary;
    the service catches it and marks the job ``cancelled``."""


class CovertChannelError(ReproError):
    """Covert-channel transmission could not be decoded as requested."""
