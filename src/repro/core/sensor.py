"""The common on-chip voltage-sensor interface.

Every sensor in this library (LeakyDSP, the TDC baseline, the RO
counter) is a transducer from supply voltage to an integer *readout*
with quantization and metastability noise.  The interface splits cleanly
into:

* a *structural* side — ``netlist()`` and ``place()`` — which is what
  the placer, the bitstream generator and the defense checker see, and
* a *behavioural* side — ``expected_readout()``, ``readout_std()`` and
  ``sample_readouts()`` — which is what trace acquisition uses.

``sample_readouts`` offers two sampling methods: ``"exact"`` draws every
output bit as a Bernoulli trial of its capture probability (faithful but
O(bits) per sample) and ``"normal"`` uses a moment-matched normal
approximation via a precomputed voltage->moments table (used for bulk
trace generation; the approximation error is characterized in the test
suite).  ``"auto"`` switches on sample count.
"""

from __future__ import annotations

import abc
import enum
from typing import Optional, Tuple, Union

import numpy as np

from repro.config import DEFAULT_CONSTANTS, PhysicalConstants, RngLike, make_rng
from repro.errors import ConfigurationError, SensorRangeError
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Pblock, Placement, Placer

#: Above this many requested samples, "auto" switches to the normal
#: approximation.
AUTO_EXACT_LIMIT = 20_000


class SamplingMethod(str, enum.Enum):
    """How :meth:`VoltageSensor.sample_readouts` draws readouts.

    The members are plain strings, so the historical string arguments
    (``"exact"``, ``"normal"``, ``"auto"``) keep working unchanged.
    """

    EXACT = "exact"
    NORMAL = "normal"
    AUTO = "auto"


def resolve_sampling_method(method: Union[str, SamplingMethod]) -> SamplingMethod:
    """Validate a sampling-method argument (string or enum member)."""
    try:
        return SamplingMethod(method)
    except ValueError:
        raise ConfigurationError(
            f"unknown sampling method {method!r}; expected one of "
            f"{[m.value for m in SamplingMethod]}"
        ) from None

#: Voltage grid used for the moments lookup table, as fractions of the
#: nominal supply.
TABLE_SPAN = (0.80, 1.06)
TABLE_POINTS = 2048


def check_table_range(sensor: "VoltageSensor", voltages: np.ndarray, grid: np.ndarray) -> None:
    """Reject droops below the moments table's floor.

    ``numpy.interp`` silently clamps to the table edges.  On the *high*
    edge that clamp is benign — the delay chain is fully settled and the
    readout genuinely rails at its maximum — but below ``TABLE_SPAN[0] *
    v_nominal`` the clamp would quietly flatten a deep droop into the
    table edge, erasing exactly the signal the attack measures.  Raise
    :class:`~repro.errors.SensorRangeError` instead so an out-of-model
    operating point (an enormous power virus, a miscalibrated coupling
    surrogate) is loud.
    """
    if voltages.size == 0:
        return
    lo = float(voltages.min())
    if lo < grid[0]:
        raise SensorRangeError(
            f"sensor {sensor.name!r} saw a supply droop down to "
            f"{lo:.4f} V, below the tabulated operating floor "
            f"{grid[0]:.4f} V ({TABLE_SPAN[0]:.2f} x nominal); the "
            "normal-approximation table would silently clamp it — "
            "reduce the load, rescale the coupling, or sample with "
            "method='exact'"
        )


class VoltageSensor(abc.ABC):
    """Abstract on-chip voltage sensor."""

    def __init__(
        self,
        name: str,
        output_width: int,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
    ) -> None:
        if output_width <= 0:
            raise ConfigurationError("sensor output width must be positive")
        self.name = name
        self.output_width = output_width
        self.constants = constants
        self.position: Optional[Tuple[float, float]] = None
        self._table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- structural side ------------------------------------------------
    @abc.abstractmethod
    def netlist(self) -> Netlist:
        """The sensor's structural netlist (built once, cached)."""

    def place(self, placer: Placer, pblock: Optional[Pblock] = None) -> Placement:
        """Place the sensor netlist and record its position (the
        centroid of the placed cells)."""
        placement = placer.place(self.netlist(), pblock=pblock)
        self.position = placement.centroid()
        return placement

    def require_position(self) -> Tuple[float, float]:
        """The sensor's position; raises if it was never placed."""
        if self.position is None:
            raise ConfigurationError(
                f"sensor {self.name!r} has no position; call place() or set "
                "sensor.position"
            )
        return self.position

    # -- behavioural side -------------------------------------------------
    @abc.abstractmethod
    def bit_probabilities(self, voltages: np.ndarray) -> np.ndarray:
        """Per-output-bit probability of capturing the settled value.

        ``voltages`` is ``(m,)``; the result is ``(m, output_width)``.
        The readout is the number of settled bits, so its distribution
        is Poisson-binomial with these probabilities.
        """

    def expected_readout(self, voltages) -> np.ndarray:
        """Mean readout at each supply voltage (vectorized)."""
        v = np.atleast_1d(np.asarray(voltages, dtype=float))
        return self.bit_probabilities(v).sum(axis=1)

    def readout_std(self, voltages) -> np.ndarray:
        """Readout standard deviation at each supply voltage
        (Poisson-binomial variance)."""
        v = np.atleast_1d(np.asarray(voltages, dtype=float))
        p = self.bit_probabilities(v)
        return np.sqrt((p * (1.0 - p)).sum(axis=1))

    def sensitivity(self, voltage: Optional[float] = None, dv: float = 1e-3) -> float:
        """Readout change per volt at an operating point [1/V]
        (central finite difference).  Positive for these sensors: a
        droop slows the chain, fewer bits settle, the readout falls —
        hence the *negative* correlation with victim activity."""
        v0 = voltage if voltage is not None else self.constants.v_nominal
        lo, hi = v0 - dv, v0 + dv
        readouts = self.expected_readout(np.array([lo, hi]))
        return float((readouts[1] - readouts[0]) / (2 * dv))

    # -- moments table ------------------------------------------------------
    def invalidate_table(self) -> None:
        """Drop the cached moments table (call after changing taps)."""
        self._table = None

    def precompute_moments(self) -> None:
        """Build (and cache) the voltage->moments table now.

        The table is otherwise built lazily on the first ``"normal"``
        sampling call.  The acquisition engine calls this before
        shipping a sensor to worker processes, so every worker inherits
        the precomputed table instead of redoing the
        ``O(TABLE_POINTS x output_width)`` probability sweep.
        """
        self._moments_table()

    def _moments_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._table is None:
            v_nom = self.constants.v_nominal
            grid = np.linspace(
                TABLE_SPAN[0] * v_nom, TABLE_SPAN[1] * v_nom, TABLE_POINTS
            )
            p = self.bit_probabilities(grid)
            mu = p.sum(axis=1)
            sigma = np.sqrt((p * (1.0 - p)).sum(axis=1))
            self._table = (grid, mu, sigma)
        return self._table

    def cache_token(self) -> dict:
        """Deterministic fingerprint of this sensor's sampling behavior
        (for :mod:`repro.traces.blockstore` keys).

        Readouts depend on the sensor only through
        :meth:`bit_probabilities` (plus the output width and position),
        so instead of enumerating every subclass parameter — delay taps,
        calibration offsets, primitive attributes — the token hashes the
        voltage->moments table, which *is* the behavior sampled on a
        dense grid.  Any change to the delay chain or its calibration
        moves table entries and therefore the token; cosmetic changes
        (renamed attributes, refactors) do not.
        """
        import hashlib

        grid, mu, sigma = self._moments_table()
        digest = hashlib.sha256()
        for arr in (grid, mu, sigma):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return {**self._base_token(), "moments_digest": digest.hexdigest()}

    def _base_token(self) -> dict:
        """The :meth:`cache_token` fields every sensor shares: its type,
        output width, position and physical constants."""
        import dataclasses

        return {
            "type": type(self).__name__,
            "output_width": int(self.output_width),
            "position": [float(p) for p in self.require_position()],
            "constants": dataclasses.asdict(self.constants),
        }

    # -- sampling --------------------------------------------------------
    def sample_readouts(
        self,
        voltages,
        *,
        rng: RngLike = None,
        method: Union[str, SamplingMethod] = SamplingMethod.AUTO,
    ) -> np.ndarray:
        """Draw noisy integer readouts for an array of supply voltages.

        All arguments after ``voltages`` are keyword-only.

        Parameters
        ----------
        voltages:
            Any-shaped array of supply voltages [V].
        rng:
            Randomness source.
        method:
            A :class:`SamplingMethod` or its string value:
            ``"exact"`` (per-bit Bernoulli), ``"normal"``
            (moment-matched normal, table-interpolated) or ``"auto"``.
        """
        rng = make_rng(rng)
        method = resolve_sampling_method(method)
        v = np.asarray(voltages, dtype=float)
        flat = np.atleast_1d(v).ravel()
        if method is SamplingMethod.AUTO:
            method = (
                SamplingMethod.EXACT
                if flat.size <= AUTO_EXACT_LIMIT
                else SamplingMethod.NORMAL
            )
        if method is SamplingMethod.EXACT:
            p = self.bit_probabilities(flat)
            bits = rng.random(p.shape) < p
            out = bits.sum(axis=1).astype(np.int64)
        else:
            grid, mu_t, sigma_t = self._moments_table()
            check_table_range(self, flat, grid)
            mu = np.interp(flat, grid, mu_t)
            sigma = np.interp(flat, grid, sigma_t)
            draw = rng.normal(mu, np.maximum(sigma, 1e-9))
            out = np.clip(np.rint(draw), 0, self.output_width).astype(np.int64)
        return out.reshape(np.shape(v)) if np.ndim(v) else out.reshape(())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, width={self.output_width})"
