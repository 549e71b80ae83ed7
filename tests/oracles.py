"""Differential-test oracles for the one production compute path.

Production acquires traces with the fused kernel and accumulates CPA
with the batched stacked-GEMM engine.  This module keeps the literal
implementations they rewrite, so the differential suites
(``test_kernels.py``, ``test_cpa_batched.py``, ``test_fanout.py``,
``test_oracle_campaign.py``) can hold production to them bit for bit:

* :class:`ReferenceAcquisitionKernel` — the unfused pipeline: dense
  per-sample current matrix, sequential ``scipy.signal.lfilter``
  recurrence, ``numpy.interp`` moments lookup.  It consumes the same
  RNG stream as the fused kernel and is injected through the
  ``AcquisitionSpec(kernel=...)`` seam.
* :class:`PerByteCPA` — the 16-small-GEMM CPA engine over per-byte
  :class:`~repro.analysis.streaming.StreamingPearson` accumulators.  It
  is a :class:`~repro.attacks.cpa.CPAAttack` (same ``update``,
  ``update_many`` tiling and validation) whose accumulators are
  per-byte; its dumps use the per-byte ``b{j:02d}_*`` layout older
  builds wrote, which production attacks still load.
"""

from typing import Optional, Tuple

import numpy as np

from repro.analysis.streaming import StreamingPearson
from repro.attacks.cpa import CPAAttack, hypothesis_table
from repro.core.sensor import SamplingMethod
from repro.errors import AttackError
from repro.kernels import AcquisitionKernel, StageProfile, get_kernel
from repro.victims.aes import AES128
from repro.victims.aes.core import SHIFT_ROWS_IDX


class ReferenceAcquisitionKernel(AcquisitionKernel):
    """The unfused acquisition pipeline (the kernel oracle)."""

    name = "reference"

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
        kappa = acquisition.coupling.kappa(
            sensor.require_position(), acquisition.aes_position
        )
        dt = acquisition.hw_model.sensor_clock.period

        with profile.stage("aes", items=m) as acct:
            states = aes.round_states(plaintexts)
            hd = acquisition.hw_model.cycle_hamming_distances(
                aes, plaintexts, states=states
            )
            cts = states[:, -1].copy()
            acct.account(states, hd, cts)
        with profile.stage("pdn", items=m) as acct:
            currents = acquisition.hw_model.current_waveform(hd, n_samples=n_samples)
            droop = kappa * acquisition.coupling.filter_currents(currents, dt)
            acct.account(currents, droop)
        with profile.stage("sensor", items=m) as acct:
            volts = sensor.constants.v_nominal - droop
            volts += acquisition.noise.sample(m * n_samples, rng).reshape(m, n_samples)
            readouts = sensor.sample_readouts(
                volts, rng=rng, method=SamplingMethod.NORMAL
            ).astype(np.int16)
            acct.account(volts, readouts)
        return readouts, cts


#: One oracle instance, so fan-out tests can share it across specs.
REFERENCE_KERNEL = ReferenceAcquisitionKernel()

#: The kernels a differential test can name: production and oracle.
KERNELS = {"fused": get_kernel(None), "reference": REFERENCE_KERNEL}


class PerByteCPA(CPAAttack):
    """The per-byte CPA engine (the accumulate oracle): one
    :class:`StreamingPearson` and one small GEMM per key byte."""

    def __init__(
        self,
        n_samples: int,
        sample_window: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(n_samples, sample_window)
        del self._stacked
        self._corr_cache: Optional[np.ndarray] = None
        self._byte_corr = [
            StreamingPearson(self.N_GUESSES, self._window_size)
            for _ in range(self.N_BYTES)
        ]

    @property
    def n_traces(self) -> int:
        return self._byte_corr[0].n

    def _fold(self, traces: np.ndarray, tile) -> None:
        if self.sample_window is not None:
            traces = traces[:, self.sample_window[0] : self.sample_window[1]]
        y = np.asarray(traces, dtype=np.float64)
        self._corr_cache = None
        table = hypothesis_table()
        cts = tile.cts
        for j in range(self.N_BYTES):
            h = table[:, cts[:, j], cts[:, int(SHIFT_ROWS_IDX[j])]]  # (256, m)
            self._byte_corr[j].update(h.T, y)

    def merge(self, other: "CPAAttack") -> "PerByteCPA":
        if type(other) is not type(self):
            raise AttackError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if (
            other.n_samples != self.n_samples
            or other.sample_window != self.sample_window
        ):
            raise AttackError(
                "cannot merge CPA attacks with different sample configuration"
            )
        self._corr_cache = None
        for mine, theirs in zip(self._byte_corr, other._byte_corr):
            mine.merge(theirs)
        return self

    def cache_token(self) -> dict:
        # Its dumps load into production attacks: one snapshot address.
        return {**super().cache_token(), "type": CPAAttack.__name__}

    def state_arrays(self) -> dict:
        return {
            f"b{j:02d}_{name}": arr
            for j, corr in enumerate(self._byte_corr)
            for name, arr in corr.state_arrays().items()
        }

    def load_state_arrays(self, arrays) -> "PerByteCPA":
        self._corr_cache = None
        stacked = self._stacked_layout(arrays)
        shape = (self.N_BYTES, self.N_GUESSES)
        s_xy = np.asarray(stacked["s_xy"], dtype=np.float64).reshape(
            *shape, self._window_size
        )
        s_x = np.asarray(stacked["s_x"], dtype=np.float64).reshape(shape)
        s_x2 = np.asarray(stacked["s_x2"], dtype=np.float64).reshape(shape)
        for j, corr in enumerate(self._byte_corr):
            corr.load_state_arrays(
                {
                    "n": stacked["n"],
                    "s_x": s_x[j],
                    "s_x2": s_x2[j],
                    "s_y": stacked["s_y"],
                    "s_y2": stacked["s_y2"],
                    "s_xy": s_xy[j],
                }
            )
        return self

    #: No in-place reset: the engine gives the oracle a fresh
    #: accumulator per segment.
    reset = None

    def peak_correlations(self) -> np.ndarray:
        return np.abs(self.correlations()).max(axis=2)

    def correlations(self) -> np.ndarray:
        if self.n_traces < 2:
            raise AttackError("need at least two traces to correlate")
        if self._corr_cache is None:
            rho = np.stack([corr.finalize() for corr in self._byte_corr])
            rho.flags.writeable = False
            self._corr_cache = rho
        return self._corr_cache
