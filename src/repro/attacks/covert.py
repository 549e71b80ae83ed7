"""The LeakyDSP covert channel (Section IV-C).

Colluding sender and receiver share an FPGA: the sender encodes a '0'
by enabling all of its power-virus instances (plundering the shared
supply) and a '1' by idling them; the receiver loops on LeakyDSP
readouts, averages them per bit window, and thresholds.

What limits the channel at millisecond bit times is *not* white sensor
noise (which averages away over the ~10^5 raw readouts per bit) but
low-frequency ambient noise — regulator ripple, temperature, other
tenants — whose correlation time is comparable to the bit time.  We
model the receiver's effective readout stream at a modest
post-averaging rate and inject an AR(1) low-frequency voltage noise
process on top of the white component; averaging a longer bit window
then genuinely buys error rate, reproducing the paper's BER-vs-bit-time
trade-off (Fig. 7), while the per-packet threshold training absorbs
slow drift.

Framing: each packet carries a preamble of alternating bits used to
train the decision threshold, plus a short sync/guard overhead.  The
reported transmission rate counts payload bits against total wall time
including that overhead — with the paper's 4 ms bit time the 10 kb
payload yields 247.94 b/s, under 250 b/s by exactly the framing tax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import RngLike, make_rng
from repro.core.sensor import VoltageSensor
from repro.errors import CovertChannelError
from repro.pdn.coupling import CouplingModel
from repro.victims.power_virus import PowerVirusBank


@dataclass(frozen=True)
class CovertChannelConfig:
    """Channel/receiver parameters.

    Attributes
    ----------
    readout_rate:
        Effective receiver readout stream rate after on-chip averaging
        [samples/s].
    lf_noise_rms:
        RMS of the low-frequency ambient voltage noise [V].
    lf_tau:
        Correlation time of the low-frequency noise [s].
    white_noise_rms:
        White voltage noise per effective readout [V].
    preamble_bits:
        Alternating training bits per packet.
    sync_bits:
        Sync-word overhead bits per packet.
    guard_bits:
        Idle guard bit-times per packet.
    """

    readout_rate: float = 2000.0
    lf_noise_rms: float = 6.0e-3
    lf_tau: float = 1.0e-3
    white_noise_rms: float = 1.6e-3
    preamble_bits: int = 64
    sync_bits: int = 16
    guard_bits: int = 3

    @property
    def overhead_bits(self) -> int:
        """Non-payload bit-times per packet."""
        return self.preamble_bits + self.sync_bits + self.guard_bits


@dataclass
class CovertResult:
    """Outcome of one covert-channel transmission."""

    bit_time: float
    n_payload: int
    n_errors: int
    threshold: float
    transmission_rate: float
    decoded: np.ndarray = field(repr=False, default=None)

    @property
    def ber(self) -> float:
        """Bit error rate over the payload."""
        return self.n_errors / self.n_payload


class CovertChannel:
    """A sender/receiver pair on one shared FPGA.

    Parameters
    ----------
    sensor:
        The receiver's placed, calibrated sensor (LeakyDSP in the
        paper).
    coupling:
        PDN surrogate of the shared device.
    sender:
        The sender's placed power-virus bank.
    config:
        Channel parameters.
    """

    def __init__(
        self,
        sensor: VoltageSensor,
        coupling: CouplingModel,
        sender: PowerVirusBank,
        config: Optional[CovertChannelConfig] = None,
    ) -> None:
        self.sensor = sensor
        self.coupling = coupling
        self.sender = sender
        self.config = config or CovertChannelConfig()
        sensor_pos = sensor.require_position()
        kappas = sender.group_kappas(coupling, sensor_pos)
        all_on = sender.group_currents(np.ones(sender.n_groups))
        #: Steady droop when the sender transmits a '0' [V].
        self.droop_on = float(kappas @ all_on)

    # ------------------------------------------------------------------
    def samples_per_bit(self, bit_time: float) -> int:
        """Effective readouts averaged per bit window."""
        if bit_time <= 0:
            raise CovertChannelError("bit time must be positive")
        n = int(round(bit_time * self.config.readout_rate))
        if n < 1:
            raise CovertChannelError(
                f"bit time {bit_time} too short for readout rate "
                f"{self.config.readout_rate}"
            )
        return n

    def _lf_noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        if cfg.lf_noise_rms <= 0:
            return np.zeros(n)
        dt = 1.0 / cfg.readout_rate
        a = float(np.exp(-dt / cfg.lf_tau))
        innovations = rng.normal(0.0, cfg.lf_noise_rms * np.sqrt(1 - a * a), size=n)
        noise = np.empty(n)
        state = rng.normal(0.0, cfg.lf_noise_rms)
        # Scalar AR(1) loop is fine: n is tens of thousands at most.
        for i in range(n):
            state = a * state + innovations[i]
            noise[i] = state
        return noise

    def _window_means(self, bits: np.ndarray, bit_time: float, rng: np.random.Generator) -> np.ndarray:
        """Simulate the receiver's per-bit-window mean readouts for a
        bit sequence (1 = sender idle, 0 = sender active)."""
        cfg = self.config
        spb = self.samples_per_bit(bit_time)
        n = bits.size * spb
        droop = np.repeat(np.where(bits == 0, self.droop_on, 0.0), spb)
        volts = self.sensor.constants.v_nominal - droop
        volts = volts + self._lf_noise(n, rng)
        if cfg.white_noise_rms > 0:
            volts = volts + rng.normal(0.0, cfg.white_noise_rms, size=n)
        readouts = self.sensor.sample_readouts(volts, rng=rng, method="normal")
        return readouts.reshape(bits.size, spb).mean(axis=1)

    # ------------------------------------------------------------------
    def transmit(
        self,
        payload: np.ndarray,
        bit_time: float,
        rng: RngLike = None,
    ) -> CovertResult:
        """Send a payload and decode it at the receiver.

        Parameters
        ----------
        payload:
            0/1 bit array.
        bit_time:
            Seconds per bit (the paper sweeps 2-7.5 ms).
        """
        rng = make_rng(rng)
        payload = np.asarray(payload).astype(np.int64).ravel()
        if payload.size == 0:
            raise CovertChannelError("payload is empty")
        if not np.isin(payload, (0, 1)).all():
            raise CovertChannelError("payload must be 0/1 bits")
        cfg = self.config

        preamble = np.arange(cfg.preamble_bits) % 2  # 0101...
        frame = np.concatenate([preamble, payload])
        means = self._window_means(frame, bit_time, rng)

        pre = means[: cfg.preamble_bits]
        ones_level = pre[preamble == 1].mean()
        zeros_level = pre[preamble == 0].mean()
        if ones_level <= zeros_level:
            raise CovertChannelError(
                "preamble levels inverted: sender droop not visible at the receiver"
            )
        threshold = 0.5 * (ones_level + zeros_level)

        decoded = (means[cfg.preamble_bits :] > threshold).astype(np.int64)
        n_errors = int(np.count_nonzero(decoded != payload))
        total_bit_times = payload.size + cfg.overhead_bits
        rate = payload.size / (total_bit_times * bit_time)
        return CovertResult(
            bit_time=bit_time,
            n_payload=payload.size,
            n_errors=n_errors,
            threshold=float(threshold),
            transmission_rate=rate,
            decoded=decoded,
        )

    def sweep_bit_times(
        self,
        bit_times,
        payload_bits: int = 10_000,
        n_runs: int = 1,
        rng: RngLike = None,
    ) -> List[CovertResult]:
        """The Fig. 7 sweep: random payloads at each bit time, results
        averaged over runs by the caller."""
        rng = make_rng(rng)
        results: List[CovertResult] = []
        for bit_time in bit_times:
            for _run in range(n_runs):
                payload = rng.integers(0, 2, size=payload_bits)
                results.append(self.transmit(payload, float(bit_time), rng))
        return results
