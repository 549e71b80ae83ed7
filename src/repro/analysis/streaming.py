"""Streaming one-pass statistics for large trace campaigns.

The attack statistic in this repository — Pearson correlation (CPA) —
reduces to a handful of running sums over the trace stream.  The
classes here maintain exactly those sums behind a uniform
``update(chunk) / merge(other) / finalize()`` protocol, so trace
matrices never have to be materialized: shards from
:class:`repro.runtime.Engine` (or chunks from any other producer) can be
folded in as they arrive, in any order.

Reproducibility contract
------------------------
Sensor readouts are small integers (int16), and hypothesis values are
0..8 Hamming weights, so every running sum these accumulators keep is an
integer whose magnitude stays far below 2**53.  Each partial sum is then
*exactly* representable in float64 and float64 addition of exact values
is associative, which makes the accumulators **bit-reproducible for
integer-valued inputs at any chunk size and any merge order** — the
property the differential tests in ``tests/test_runtime.py`` and the
hypothesis suite in ``tests/test_streaming_properties.py`` pin down.
For general float inputs the same sums agree with a batch two-pass
computation to ~1e-10 on well-scaled data; variances are clamped at
zero against the raw-sums cancellation of badly scaled columns.
"""

from __future__ import annotations

import numbers
import threading
from typing import Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.errors import AttackError, ConfigurationError

__all__ = [
    "validate_chunk_size",
    "iter_chunk_slices",
    "SharedTraceMoments",
    "StreamingPearson",
    "StackedStreamingPearson",
]


# ----------------------------------------------------------------------
# Chunk validation — shared by every chunked path (acquisition.collect,
# Engine.stream_attack, the accumulators themselves) so bad sizes fail
# with a ReproError instead of a NumPy broadcasting error or an
# infinite loop.
# ----------------------------------------------------------------------


def validate_chunk_size(chunk_size, *, allow_none: bool = False) -> Optional[int]:
    """Validate a ``chunk_size`` argument into a positive int.

    ``None`` is passed through when ``allow_none`` (meaning "one chunk
    per shard/block").  Anything that is not a positive integer raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if chunk_size is None:
        if allow_none:
            return None
        raise ConfigurationError("chunk_size is required")
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, numbers.Integral):
        raise ConfigurationError(
            f"chunk_size must be a positive integer, got {chunk_size!r}"
        )
    if chunk_size <= 0:
        raise ConfigurationError(
            f"chunk_size must be a positive integer, got {chunk_size}"
        )
    return int(chunk_size)


def iter_chunk_slices(
    n_items: int, chunk_size: Optional[int]
) -> Iterator[slice]:
    """Slices covering ``0..n_items`` in ``chunk_size`` steps.

    ``chunk_size=None`` yields the whole range as one slice.  Rejects
    non-positive ``n_items`` and invalid chunk sizes with a
    :class:`~repro.errors.ReproError` subclass.
    """
    chunk_size = validate_chunk_size(chunk_size, allow_none=True)
    if n_items <= 0:
        raise ConfigurationError(f"n_items must be positive, got {n_items}")
    if chunk_size is None:
        yield slice(0, n_items)
        return
    for start in range(0, n_items, chunk_size):
        yield slice(start, min(start + chunk_size, n_items))


def _as_chunk(x, name: str, n_columns: Optional[int] = None) -> np.ndarray:
    """Validate one ``(m, k)`` chunk: 2-D, non-empty, optionally with a
    fixed column count.  Returns a float64 view/copy."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise AttackError(f"{name} chunk must be 2-D (rows, columns), got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise AttackError(f"{name} chunk is empty (0 rows); chunked feeds must skip empty chunks")
    if n_columns is not None and arr.shape[1] != n_columns:
        raise AttackError(
            f"{name} chunk must have {n_columns} columns, got {arr.shape[1]}"
        )
    return arr


def _check_mergeable(a, b, attrs: Tuple[str, ...]) -> None:
    """Raise unless ``b`` is a compatible accumulator of ``a``'s type."""
    if type(a) is not type(b):
        raise AttackError(
            f"cannot merge {type(b).__name__} into {type(a).__name__}"
        )
    for attr in attrs:
        if getattr(a, attr) != getattr(b, attr):
            raise AttackError(
                f"cannot merge accumulators with different {attr}: "
                f"{getattr(a, attr)!r} != {getattr(b, attr)!r}"
            )


# ----------------------------------------------------------------------
# Trace moments.
# ----------------------------------------------------------------------


class SharedTraceMoments:
    """Per-sample trace count / sum / sum-of-squares, shared across
    hypothesis groups.

    A CPA campaign correlates the *same* trace stream against 16
    independent hypothesis groups; the per-byte accumulators used to
    keep 16 identical copies of ``s_y`` / ``s_y2`` and recompute them
    16 times per chunk.  This accumulator holds the one shared copy.
    The sums are exact (hence bit-reproducible under any chunking or
    merge order) for integer-valued inputs.
    """

    def __init__(self, n_samples: int) -> None:
        if n_samples <= 0:
            raise AttackError("n_samples must be positive")
        self.n_samples = int(n_samples)
        self.n = 0
        self._s = np.zeros(self.n_samples)
        self._s2 = np.zeros(self.n_samples)

    def update(self, chunk) -> "SharedTraceMoments":
        """Fold one ``(m, n_samples)`` trace chunk in."""
        arr = _as_chunk(chunk, "trace", self.n_samples)
        self.n += arr.shape[0]
        self._s += arr.sum(axis=0)
        self._s2 += np.einsum("ij,ij->j", arr, arr)
        return self

    def fold_sums(self, m: int, s_y, s_y2) -> "SharedTraceMoments":
        """Fold precomputed exact partial sums for ``m`` traces in.

        The entry point for external hot paths (the batched CPA
        accumulator) that compute the sums in narrower dtypes under an
        integer-exactness guard; the values must equal what
        :meth:`update` would have accumulated.
        """
        if m <= 0:
            raise AttackError("m must be positive")
        s_y = np.asarray(s_y)
        s_y2 = np.asarray(s_y2)
        if s_y.shape != (self.n_samples,) or s_y2.shape != (self.n_samples,):
            raise AttackError(
                f"partial sums must have shape ({self.n_samples},), "
                f"got {s_y.shape} and {s_y2.shape}"
            )
        self.n += int(m)
        self._s += s_y
        self._s2 += s_y2
        return self

    def merge(self, other: "SharedTraceMoments") -> "SharedTraceMoments":
        """Fold another accumulator in."""
        _check_mergeable(self, other, ("n_samples",))
        self.n += other.n
        self._s += other._s
        self._s2 += other._s2
        return self

    def reset(self) -> "SharedTraceMoments":
        """Zero the accumulator in place, keeping its buffers."""
        self.n = 0
        self._s.fill(0.0)
        self._s2.fill(0.0)
        return self

    def state_arrays(self) -> dict:
        """The accumulator's full state as named arrays (exact sums)."""
        return {
            "n": np.array([self.n], dtype=np.int64),
            "s_y": self._s.copy(),
            "s_y2": self._s2.copy(),
        }

    def load_state_arrays(self, arrays: Mapping) -> "SharedTraceMoments":
        """Overwrite this accumulator with a :meth:`state_arrays` dump."""
        s = np.array(arrays["s_y"], dtype=np.float64)
        s2 = np.array(arrays["s_y2"], dtype=np.float64)
        if s.shape != (self.n_samples,) or s2.shape != (self.n_samples,):
            raise AttackError(
                f"state arrays do not match {self.n_samples} samples"
            )
        self.n = int(np.asarray(arrays["n"]).reshape(-1)[0])
        self._s = s
        self._s2 = s2
        return self

    @property
    def mean(self) -> np.ndarray:
        """Per-sample mean so far."""
        if self.n == 0:
            raise AttackError("no data accumulated")
        return self._s / self.n

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-sample variance, clamped at zero against cancellation."""
        if self.n <= ddof:
            raise AttackError(f"need more than {ddof} rows for ddof={ddof}")
        centered = self._s2 - self._s**2 / self.n
        return np.maximum(centered, 0.0) / (self.n - ddof)

    def finalize(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(n, mean, sample variance)``."""
        return self.n, self.mean, self.variance(ddof=1)


# ----------------------------------------------------------------------
# Pearson correlation — the CPA statistic.
# ----------------------------------------------------------------------


class StreamingPearson:
    """One-pass Pearson correlation between hypothesis columns and
    trace samples.

    ``update(x, y)`` takes an ``(m, n_vars)`` hypothesis chunk and an
    ``(m, n_samples)`` trace chunk; ``finalize()`` returns the
    ``(n_vars, n_samples)`` correlation matrix.  Undefined correlations
    (zero variance on either side) finalize to 0, matching the batch
    CPA convention.
    """

    def __init__(self, n_vars: int, n_samples: int) -> None:
        if n_vars <= 0 or n_samples <= 0:
            raise AttackError("n_vars and n_samples must be positive")
        self.n_vars = int(n_vars)
        self.n_samples = int(n_samples)
        self.n = 0
        self._s_x = np.zeros(self.n_vars)
        self._s_x2 = np.zeros(self.n_vars)
        self._s_y = np.zeros(self.n_samples)
        self._s_y2 = np.zeros(self.n_samples)
        self._s_xy = np.zeros((self.n_vars, self.n_samples))
        self._rho: Optional[np.ndarray] = None

    def update(self, x, y) -> "StreamingPearson":
        """Fold one chunk in: ``x`` is ``(m, n_vars)``, ``y`` is
        ``(m, n_samples)``."""
        x = _as_chunk(x, "hypothesis", self.n_vars)
        y = _as_chunk(y, "trace", self.n_samples)
        if x.shape[0] != y.shape[0]:
            raise AttackError(
                f"hypothesis and trace chunks disagree on rows: "
                f"{x.shape[0]} != {y.shape[0]}"
            )
        self.n += x.shape[0]
        self._s_x += x.sum(axis=0)
        self._s_x2 += (x**2).sum(axis=0)
        self._s_y += y.sum(axis=0)
        self._s_y2 += (y**2).sum(axis=0)
        self._s_xy += x.T @ y
        self._rho = None
        return self

    def merge(self, other: "StreamingPearson") -> "StreamingPearson":
        """Fold another accumulator in."""
        _check_mergeable(self, other, ("n_vars", "n_samples"))
        self.n += other.n
        self._s_x += other._s_x
        self._s_x2 += other._s_x2
        self._s_y += other._s_y
        self._s_y2 += other._s_y2
        self._s_xy += other._s_xy
        self._rho = None
        return self

    #: Names of the arrays a state dump carries.
    STATE_FIELDS = ("n", "s_x", "s_x2", "s_y", "s_y2", "s_xy")

    def state_arrays(self) -> dict:
        """The accumulator's full state as named arrays (exact sums, so
        a restore reproduces :meth:`finalize` bit for bit)."""
        return {
            "n": np.array([self.n], dtype=np.int64),
            "s_x": self._s_x.copy(),
            "s_x2": self._s_x2.copy(),
            "s_y": self._s_y.copy(),
            "s_y2": self._s_y2.copy(),
            "s_xy": self._s_xy.copy(),
        }

    def load_state_arrays(self, arrays: Mapping) -> "StreamingPearson":
        """Overwrite this accumulator with a :meth:`state_arrays` dump."""
        shapes = {
            "s_x": (self.n_vars,),
            "s_x2": (self.n_vars,),
            "s_y": (self.n_samples,),
            "s_y2": (self.n_samples,),
            "s_xy": (self.n_vars, self.n_samples),
        }
        loaded = {}
        for name, shape in shapes.items():
            arr = np.array(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise AttackError(
                    f"state array {name!r} has shape {arr.shape}, "
                    f"expected {shape}"
                )
            loaded[name] = arr
        self.n = int(np.asarray(arrays["n"]).reshape(-1)[0])
        self._s_x = loaded["s_x"]
        self._s_x2 = loaded["s_x2"]
        self._s_y = loaded["s_y"]
        self._s_y2 = loaded["s_y2"]
        self._s_xy = loaded["s_xy"]
        self._rho = None
        return self

    def telemetry_counters(self) -> dict:
        """Numeric progress counters for checkpoint telemetry spans."""
        return {
            "n_traces": self.n,
            "n_vars": self.n_vars,
            "n_samples": self.n_samples,
        }

    def finalize(self) -> np.ndarray:
        """The ``(n_vars, n_samples)`` Pearson correlation matrix.

        The result is memoized until the next ``update``/``merge``/
        state load, so repeated evaluations of unchanged state (the
        checkpointed key-rank pattern) pay nothing; the cached array is
        returned read-only.
        """
        if self.n < 2:
            raise AttackError("need at least two rows to correlate")
        if self._rho is not None:
            return self._rho
        n = float(self.n)
        var_x = n * self._s_x2 - self._s_x**2
        var_y = n * self._s_y2 - self._s_y**2
        cov = n * self._s_xy - self._s_x[:, None] * self._s_y[None, :]
        denom = np.sqrt(
            np.maximum(var_x[:, None], 0.0) * np.maximum(var_y[None, :], 0.0)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = cov / denom
        rho = np.nan_to_num(rho, nan=0.0)
        rho.flags.writeable = False
        self._rho = rho
        return rho


#: Samples per row block of :meth:`StackedStreamingPearson.finalize`:
#: a block's temporaries stay cache-resident.
_FINALIZE_ROWS = 16


class _FinalizeScratch(threading.local):
    """Per-thread temporaries of :meth:`StackedStreamingPearson.
    finalize`, grow-only (the campaign service finalizes on several
    threads at once)."""

    def __init__(self) -> None:
        self.cov = np.empty(0)
        self.denom = np.empty(0)

    def blocks(self, shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        size = shape[0] * shape[1]
        if self.cov.size < size:
            self.cov, self.denom = np.empty(size), np.empty(size)
        return self.cov[:size].reshape(shape), self.denom[:size].reshape(shape)


_FINALIZE_SCRATCH = _FinalizeScratch()


class StackedStreamingPearson:
    """One-pass Pearson correlation of ``n_groups`` independent
    hypothesis groups against one shared trace stream.

    The batched counterpart of ``n_groups`` separate
    :class:`StreamingPearson` accumulators (one per CPA key byte):
    a chunk is folded with **one** stacked GEMM over an
    ``(m, n_groups * n_vars)`` hypothesis matrix instead of
    ``n_groups`` small per-group GEMMs, and the trace sums live in one
    :class:`SharedTraceMoments` instead of ``n_groups`` identical
    copies.  Every sum is the exact integer-in-float64 quantity the
    per-group accumulators keep, so the finalized correlations are
    bit-identical to theirs for integer-valued inputs, at any chunk
    size and merge order.

    The cross sums are stored sample-major, ``(n_samples, n_groups *
    n_vars)``: the layout of the ``Y.T @ X`` GEMM, so a fold is one
    contiguous add.  Every public array (:meth:`fold_sums`,
    :meth:`state_arrays`, :meth:`finalize`) keeps the
    ``(n_groups, n_vars, n_samples)`` shape.
    """

    def __init__(self, n_groups: int, n_vars: int, n_samples: int) -> None:
        if n_groups <= 0 or n_vars <= 0 or n_samples <= 0:
            raise AttackError("n_groups, n_vars and n_samples must be positive")
        self.n_groups = int(n_groups)
        self.n_vars = int(n_vars)
        self.n_samples = int(n_samples)
        self.traces = SharedTraceMoments(self.n_samples)
        self._s_x = np.zeros((self.n_groups, self.n_vars))
        self._s_x2 = np.zeros((self.n_groups, self.n_vars))
        self._s_yx = np.zeros((self.n_samples, self.n_groups * self.n_vars))
        #: The memoized :meth:`finalize` matrix; ``_peak`` is valid
        #: while it is set.
        self._rho: Optional[np.ndarray] = None
        self._peak: Optional[np.ndarray] = None

    # -- pickling: keep shard result pipes slim ------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_rho"] = state["_peak"] = None
        return state

    @property
    def n(self) -> int:
        """Traces accumulated so far."""
        return self.traces.n

    def update(self, x, y) -> "StackedStreamingPearson":
        """Fold one chunk in: ``x`` is ``(m, n_groups * n_vars)`` (or
        ``(m, n_groups, n_vars)``), ``y`` is ``(m, n_samples)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 3:
            x = x.reshape(x.shape[0], -1)
        x = _as_chunk(x, "hypothesis", self._s_yx.shape[1])
        y = _as_chunk(y, "trace", self.n_samples)
        if x.shape[0] != y.shape[0]:
            raise AttackError(
                f"hypothesis and trace chunks disagree on rows: "
                f"{x.shape[0]} != {y.shape[0]}"
            )
        self._s_x += x.sum(axis=0).reshape(self.n_groups, self.n_vars)
        self._s_x2 += np.einsum("ij,ij->j", x, x).reshape(
            self.n_groups, self.n_vars
        )
        self._s_yx += y.T @ x
        self.traces.update(y)
        self._rho = None
        return self

    def fold_sums(self, m: int, s_x, s_x2, s_xy, s_y, s_y2) -> "StackedStreamingPearson":
        """Fold precomputed exact partial sums for ``m`` traces in, with
        the cross sums ``s_xy`` shaped ``(n_groups, n_vars, n_samples)``.

        The values must equal what :meth:`update` would have
        accumulated; accumulation itself stays float64.
        """
        s_xy = np.asarray(s_xy).reshape(self._s_yx.shape[::-1])
        return self.fold_sample_major(m, s_x, s_x2, s_xy.T, s_y, s_y2)

    def fold_sample_major(
        self, m: int, s_x, s_x2, s_yx, s_y, s_y2
    ) -> "StackedStreamingPearson":
        """:meth:`fold_sums` with the cross sums sample-major:
        ``s_yx`` is ``(n_samples, n_groups * n_vars)``, the output of a
        ``Y.T @ X`` GEMM.

        The entry point for the gathered CPA hot path, which computes
        the chunk sums in narrower dtypes (uint16/int32 hypothesis
        sums, an exactness-guarded float32 GEMM).
        """
        s_x = np.asarray(s_x).reshape(self.n_groups, self.n_vars)
        s_x2 = np.asarray(s_x2).reshape(self.n_groups, self.n_vars)
        s_yx = np.asarray(s_yx).reshape(self._s_yx.shape)
        self.traces.fold_sums(m, s_y, s_y2)
        self._s_x += s_x
        self._s_x2 += s_x2
        self._s_yx += s_yx
        self._rho = None
        return self

    def merge(self, other: "StackedStreamingPearson") -> "StackedStreamingPearson":
        """Fold another accumulator in."""
        _check_mergeable(self, other, ("n_groups", "n_vars", "n_samples"))
        self.traces.merge(other.traces)
        self._s_x += other._s_x
        self._s_x2 += other._s_x2
        self._s_yx += other._s_yx
        self._rho = None
        return self

    def reset(self) -> "StackedStreamingPearson":
        """Zero the accumulator in place, keeping its buffers: a reused
        accumulator skips the page faults of fresh zeroed ones."""
        self.traces.reset()
        self._s_x.fill(0.0)
        self._s_x2.fill(0.0)
        self._s_yx.fill(0.0)
        self._rho = None
        return self

    #: Names of the arrays a state dump carries.
    STATE_FIELDS = ("n", "s_x", "s_x2", "s_y", "s_y2", "s_xy")

    def state_arrays(self) -> dict:
        """The accumulator's full state as named arrays (exact sums, so
        a restore reproduces :meth:`finalize` bit for bit).  ``s_xy`` is
        a C-contiguous ``(n_groups, n_vars, n_samples)`` copy."""
        out = self.traces.state_arrays()
        out["s_x"] = self._s_x.copy()
        out["s_x2"] = self._s_x2.copy()
        out["s_xy"] = np.ascontiguousarray(self._s_yx.T).reshape(
            self.n_groups, self.n_vars, self.n_samples
        )
        return out

    def load_state_arrays(self, arrays: Mapping) -> "StackedStreamingPearson":
        """Overwrite this accumulator with a :meth:`state_arrays` dump."""
        shapes = {
            "s_x": (self.n_groups, self.n_vars),
            "s_x2": (self.n_groups, self.n_vars),
            "s_xy": (self.n_groups, self.n_vars, self.n_samples),
        }
        loaded = {}
        for name, shape in shapes.items():
            arr = np.array(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise AttackError(
                    f"state array {name!r} has shape {arr.shape}, "
                    f"expected {shape}"
                )
            loaded[name] = arr
        self.traces.load_state_arrays(arrays)
        self._s_x = loaded["s_x"]
        self._s_x2 = loaded["s_x2"]
        self._s_yx = np.ascontiguousarray(
            loaded["s_xy"].reshape(self._s_yx.shape[::-1]).T
        )
        self._rho = None
        return self

    def telemetry_counters(self) -> dict:
        """Numeric progress counters for checkpoint telemetry spans."""
        return {
            "n_traces": self.n,
            "n_groups": self.n_groups,
            "n_vars": self.n_vars,
            "n_samples": self.n_samples,
        }

    def finalize(self) -> np.ndarray:
        """The ``(n_groups, n_vars, n_samples)`` correlation stack.

        Memoized until the next ``update``/``fold_sums``/``merge``/
        state load/``reset``; the cached array is returned read-only.
        Each element is computed by the exact expression sequence of
        :meth:`StreamingPearson.finalize`, all of it elementwise, so it
        is bit-identical to what a per-group accumulator holding the
        same sums would return.  The pass runs in row blocks of the
        sample-major sums with per-thread temporaries, allocates only
        the result (of which the array is a view), and memoizes
        :meth:`peak_magnitudes` on the way.
        """
        if self.n < 2:
            raise AttackError("need at least two rows to correlate")
        if self._rho is not None:
            return self._rho
        n = float(self.n)
        s_x = self._s_x.reshape(-1)
        s_y = self.traces._s
        var_x = np.maximum(n * self._s_x2.reshape(-1) - s_x**2, 0.0)
        var_y = np.maximum(n * self.traces._s2 - s_y**2, 0.0)
        rho = np.empty(self._s_yx.shape)
        peak = np.zeros(rho.shape[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            for start in range(0, rho.shape[0], _FINALIZE_ROWS):
                rows = slice(start, min(start + _FINALIZE_ROWS, rho.shape[0]))
                block = rho[rows]
                cov, denom = _FINALIZE_SCRATCH.blocks(block.shape)
                np.multiply(n, self._s_yx[rows], out=cov)
                np.multiply(s_x[None, :], s_y[rows, None], out=denom)
                cov -= denom
                np.multiply(var_x[None, :], var_y[rows, None], out=denom)
                np.sqrt(denom, out=denom)
                np.divide(cov, denom, out=block)
                np.nan_to_num(block, copy=False, nan=0.0)
                np.abs(block, out=cov)
                np.maximum(peak, cov.max(axis=0), out=peak)
        rho.flags.writeable = False
        peak.flags.writeable = False
        self._peak = peak.reshape(self.n_groups, self.n_vars)
        self._rho = rho.T.reshape(self.n_groups, self.n_vars, self.n_samples)
        return self._rho

    def peak_magnitudes(self) -> np.ndarray:
        """``|correlation|`` maximized over samples, ``(n_groups,
        n_vars)``, read-only: memoized by :meth:`finalize`'s pass."""
        self.finalize()
        return self._peak
