"""Correlation power analysis against the round-per-cycle AES core.

The attack targets the *last-round* register transition: byte ``b`` of
the round register flips from the round-9 state to the ciphertext, and
the round-9 byte is computable from the ciphertext under a guess of one
last-round-key byte:

``state9[SHIFT_ROWS_IDX[j]] = InvSBox(ct[j] ^ k10[j])``

so the hypothesis for key byte ``j``, guess ``g`` is

``h = HW(InvSBox(ct[j] ^ g) ^ ct[SHIFT_ROWS_IDX[j]])``.

Pearson correlation between ``h`` and every trace sample, maximized
over samples, ranks the 256 guesses; the recovered last-round key is
inverted through the key schedule to the master key.

The engine is *incremental*: it maintains the five running sums the
correlation needs, so rank-vs-trace-count curves (Fig. 5/6) reuse all
earlier work, and it is fully vectorized — hypotheses for all 256
guesses of a byte come from one ``(256, 256)`` table of
``InvSBox(ct ^ g)`` and a popcount (the numpy stand-in for the paper's
GPU CPA tool [8]).

Chunks are cut into row tiles; each tile is folded with **one**
stacked GEMM over an ``(m, 16*256)`` hypothesis matrix, and the trace
sums are computed once per tile in a shared accumulator instead of 16
times.  The matrix is built 64 rows at a time, each chunk gathered,
popcounted and summed in a 256 KiB uint8 scratch and copied straight
into its float rows, so no whole-tile uint8 block exists.  The
hypothesis sums are exact narrow sums, and the cross GEMM
runs in float32 whenever an exactness bound proves every partial sum
is an integer below 2**24 — narrower arithmetic, identical bits.  The
cross sums are kept sample-major, the GEMM's own output layout, so a
fold is one contiguous add.  The legacy
16-small-GEMM per-byte engine is kept only as the test oracle
(``tests/oracles.py``) and as the CPA bench's timed reference.

Several sensors watching one victim see the same ciphertexts, and the
hypotheses depend on nothing else.  :meth:`CPAAttack.update_many` folds
one ciphertext batch into one attack per sensor.  Each tile carries its
*peers*, the ``(attack, traces)`` pairs that will fold it; its
hypotheses (gather, hypothesis sums, float blocks) are prepared once,
and the first fold runs one float32 ``Y.T @ X`` whose ``Y`` stacks the
windowed traces of every peer within the float32 bound.  Each attack
still folds the tile in its own ``update`` call, taking its rows of
that product; a peer past the bound, or with non-integer traces, runs
its own float64 GEMM.  A single attack's ``update`` builds tiles with
itself as the only peer, so a fan-out of N is bit-identical to N
separate attacks.

The engine keeps the exact integer-in-float64 sums of the
reproducibility contract, so correlations, key ranks and state
snapshots equal the per-byte oracle's bit for bit at any chunk size or
merge order — the property ``tests/test_cpa_batched.py`` pins down.
"""

from __future__ import annotations

import numbers
import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.streaming import StackedStreamingPearson
from repro.errors import AttackError
from repro.victims.aes.core import SHIFT_ROWS_IDX
from repro.victims.aes.key_schedule import invert_key_schedule
from repro.victims.aes.sbox import HW8, INV_SBOX

_HYP_TABLE: Optional[np.ndarray] = None

#: ``SROW[c, g] = InvSBox(c ^ g)``: the round-9 byte under guess ``g``
#: of a ciphertext byte ``c`` (64 KiB).  A tile's hypotheses are the
#: popcount of its rows XOR the partner ciphertext bytes.
SROW = INV_SBOX[np.bitwise_xor.outer(np.arange(256), np.arange(256))]

#: Rows per internal tile of the batched engine: bounds the hypothesis
#: / GEMM scratch (a ~16 MB float32 block) however large a chunk
#: callers feed.  1024 rows measured faster than 2048/4096 and than 512
#: (the 5-sensor fan-out row ~10 % slower) on the bench campaign.
#: Tiling is sum-exact, so it never changes a bit of the result.
_BATCH_TILE_ROWS = 1024

#: Rows per hypothesis chunk of :meth:`_HypothesisTile.block`: a
#: 64-row uint8 chunk is 256 KiB, so its gather, XOR, popcount, sums
#: and float copy all run in cache, and a tile never holds a
#: whole-tile uint8 block next to its float one.
_HYP_CHUNK_ROWS = 64

#: The float32 GEMM is used when every partial sum is provably an
#: integer below this (2**24): float32 addition of exact integers in
#: range is itself exact.
_F32_EXACT_LIMIT = float(1 << 24)

#: Largest hypothesis value (a Hamming weight of one byte).
_MAX_HW = 8.0

class _Scratch(threading.local):
    """Per-thread scratch for the batched engine, shared by every
    :class:`CPAAttack` on the thread (engine workers build one attack
    per shard; per-instance buffers would re-fault ~25 MB of pages per
    shard).  Buffers are grow-only; the hypothesis blocks in them
    belong to one prepared tile at a time, the ``owner`` (see
    :class:`_HypothesisTile`), so sharing is safe even with
    interleaved attacks.  Per thread, because the campaign service
    runs campaigns on several threads at once."""

    def __init__(self) -> None:
        self.pool: dict = {}
        #: ``id`` of the tile whose blocks occupy the buffers (an id,
        #: not a reference: a finished tile must not pin its chunk).
        self.owner = 0


_SCRATCH = _Scratch()


def _pool_array(name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """This thread's reusable C-contiguous scratch buffer ``name``,
    viewed to ``shape``."""
    size = int(np.prod(shape))
    pool = _SCRATCH.pool
    arr = pool.get(name)
    if arr is None or arr.size < size:
        arr = np.empty(size, dtype=dtype)
        pool[name] = arr
    return arr[:size].reshape(shape)


def hypothesis_table() -> np.ndarray:
    """The ``(guess, ct_target, ct_partner) -> HW`` lookup table of the
    per-byte oracle and the benches (16 MiB, built on first use)."""
    global _HYP_TABLE
    if _HYP_TABLE is None:
        g = np.arange(256, dtype=np.uint8)[:, None]
        ct = np.arange(256, dtype=np.uint8)[None, :]
        pred = INV_SBOX[ct ^ g]  # (256 guesses, 256 ct_target)
        partner = np.arange(256, dtype=np.uint8)[None, None, :]
        _HYP_TABLE = HW8[pred[:, :, None] ^ partner]  # (256, 256, 256)
    return _HYP_TABLE


def _checked_ciphertexts(ciphertexts) -> np.ndarray:
    cts = np.asarray(ciphertexts, dtype=np.uint8)
    if cts.ndim != 2 or cts.shape[1] != 16:
        raise AttackError("ciphertexts must be (m, 16)")
    if cts.shape[0] == 0:
        raise AttackError("empty trace chunk; chunked feeds must skip empty chunks")
    return cts


def _f32_exact(traces: np.ndarray) -> bool:
    """Whether ``Y.T @ X`` of these (windowed) traces against a tile's
    hypotheses is exact in float32: integer readouts, and every partial
    sum ``rows * 8 * max|y|`` below 2**24."""
    if not np.issubdtype(traces.dtype, np.integer):
        return False
    y_max = max(int(traces.max()), -int(traces.min()), 1)
    return len(traces) * _MAX_HW * y_max < _F32_EXACT_LIMIT


class _HypothesisTile:
    """The hypotheses of one ciphertext tile (at most
    :data:`_BATCH_TILE_ROWS` rows) and its *peers*, the ``(attack,
    traces)`` pairs that fold it, prepared on first use and shared by
    every peer.

    Preparing means building, per GEMM dtype asked for, the float
    hypothesis block in :data:`_HYP_CHUNK_ROWS`-row chunks: each chunk
    is a :data:`SROW` gather, an XOR with the partner ciphertext bytes
    and a popcount in a small uint8 scratch, copied straight into its
    rows of the block.  While the chunk is still in cache, the build
    also adds it to the tile's exact hypothesis sums: ``s_x`` in
    uint16 (at most ``8*rows <= 8192``) and ``s_x2`` in the block's
    dtype (every partial sum an integer at most ``64*rows < 2**24``,
    so exact in float32).  A first fold then runs one float32 ``Y.T @
    X`` whose ``Y`` stacks, column-wise, the windowed traces of every
    peer that passes the float32 exactness bound.  The blocks and the
    product live in the thread's scratch pool; a tile that finds the
    pool taken over by another tile rebuilds them, so an older tile
    never reads a newer tile's data.
    """

    __slots__ = ("cts", "peers", "_blocks", "_sums", "_product")

    def __init__(self, cts: np.ndarray, peers=()) -> None:
        self.cts = cts
        self.peers = tuple(peers)
        self._blocks: dict = {}
        self._sums: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._product: Optional[list] = None

    def __len__(self) -> int:
        return len(self.cts)

    def _claim(self) -> None:
        """Take the thread's scratch pool, dropping the blocks and
        product another tile has since overwritten."""
        if _SCRATCH.owner != id(self):
            _SCRATCH.owner = id(self)
            self._blocks = {}
            self._product = None

    def sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """The tile's exact hypothesis sums ``(s_x, s_x2)``, from
        whichever float block was built first."""
        if self._sums is None:
            self.block(np.float32)
        return self._sums

    def block(self, dtype) -> np.ndarray:
        """The hypotheses as a ``(rows, 16 * 256)`` ``dtype`` matrix,
        ``HW(InvSBox(ct[j] ^ g) ^ ct[SHIFT_ROWS_IDX[j]])``, built chunk
        by chunk into the pool, summing each chunk while it is in
        cache."""
        self._claim()
        name = np.dtype(dtype).name
        if name in self._blocks:
            return self._blocks[name]
        shape = (CPAAttack.N_BYTES, CPAAttack.N_GUESSES)
        x = _pool_array(name, (len(self.cts), shape[0] * shape[1]), dtype)
        scratch = _pool_array("hyp_chunk", (_HYP_CHUNK_ROWS, *shape), np.uint8)
        s_x = np.zeros(shape, dtype=np.uint16)
        s_x2 = np.zeros(x.shape[1], dtype=dtype)
        for start in range(0, len(x), _HYP_CHUNK_ROWS):
            cts = self.cts[start : start + _HYP_CHUNK_ROWS]
            h = scratch[: len(cts)]
            # uint8 codes never clip; "clip" spares the buffered copy
            # that mode="raise" makes of an ``out`` array.
            np.take(SROW, cts, axis=0, out=h, mode="clip")
            np.bitwise_xor(h, cts[:, SHIFT_ROWS_IDX, None], out=h)
            np.bitwise_count(h, out=h)
            chunk = x[start : start + len(cts)]
            np.copyto(chunk.reshape(h.shape), h, casting="unsafe")
            s_x += h.sum(axis=0, dtype=np.uint16)
            s_x2 += np.einsum("ij,ij->j", chunk, chunk)
        if self._sums is None:
            self._sums = (s_x, s_x2)
        self._blocks[name] = x
        return x

    def f32_product(self, attack: "CPAAttack", traces: np.ndarray):
        """``attack``'s rows of the tile's stacked float32 product: its
        exact ``(window, 16 * 256)`` cross sums, or ``None`` when its
        traces fail :func:`_f32_exact` and need the float64 GEMM.

        The stacked product is computed once, by the first peer that
        asks.  A pair that is not one of the tile's peers gets a
        product of its own, outside the scratch pool.
        """
        self._claim()  # drops a product another tile overwrote
        for i, (peer, peer_traces) in enumerate(self.peers):
            if peer is attack and peer_traces is traces:
                if self._product is None:
                    self._product = self._stacked_product(self.peers, pooled=True)
                return self._product[i]
        return self._stacked_product([(attack, traces)], pooled=False)[0]

    def _stacked_product(self, peers, pooled: bool) -> list:
        """One float32 ``Y.T @ X`` over the peers that pass the float32
        bound, split into per-peer rows (``None`` for the others)."""
        spans, total = [], 0
        windows = [peer._windowed(traces) for peer, traces in peers]
        for window in windows:
            if _f32_exact(window):
                spans.append(slice(total, total + window.shape[1]))
                total += window.shape[1]
            else:
                spans.append(None)
        if not total:
            return spans
        y = _pool_array("y32", (len(self.cts), total), np.float32)
        for window, span in zip(windows, spans):
            if span is not None:
                np.copyto(y[:, span], window, casting="unsafe")
        x = self.block(np.float32)
        out = _pool_array("yx32", (total, x.shape[1]), np.float32) if pooled else None
        product = np.matmul(y.T, x, out=out)
        return [None if span is None else product[span] for span in spans]


def _hypothesis_tiles(cts: np.ndarray, attacks, traces_list):
    """Tiles covering ``cts`` in order, each with its ``(attack,
    traces)`` peers."""
    for start in range(0, len(cts), _BATCH_TILE_ROWS):
        rows = slice(start, min(start + _BATCH_TILE_ROWS, len(cts)))
        yield _HypothesisTile(
            cts[rows],
            [(attack, traces[rows]) for attack, traces in zip(attacks, traces_list)],
        )


def _checked_count(name: str, value) -> int:
    """``value`` as a plain int; non-integral values (floats, bools)
    raise :class:`~repro.errors.AttackError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise AttackError(f"{name} must be an integer, got {value!r}")
    return int(value)


class CPAAttack:
    """Incremental last-round CPA.

    A thin attack-specific shell over one
    :class:`~repro.analysis.streaming.StackedStreamingPearson`
    accumulator: ``update`` (alias ``add_traces``) folds chunks in,
    :meth:`update_many` folds one chunk into one attack per sensor,
    :meth:`merge` combines independently built attacks (the shard path
    of :meth:`repro.runtime.Engine.stream_attack_many`), and because
    readouts and hypotheses are small integers the accumulated sums —
    hence the correlations and key ranks — are bit-identical for any
    chunking or merge order.

    Parameters
    ----------
    n_samples:
        Samples per trace (an integer).
    sample_window:
        Optional integer ``(start, stop)`` restriction of the correlated
        sample range (the attacker knows the trigger-to-last-round
        timing, so correlating the whole trace is wasted work; ``None``
        correlates everything).
    """

    N_BYTES = 16
    N_GUESSES = 256

    def __init__(
        self,
        n_samples: int,
        sample_window: Optional[Tuple[int, int]] = None,
    ) -> None:
        n_samples = _checked_count("n_samples", n_samples)
        if n_samples <= 0:
            raise AttackError("n_samples must be positive")
        if sample_window is not None:
            start, stop = (
                _checked_count("sample window bound", bound)
                for bound in sample_window
            )
            if not 0 <= start < stop <= n_samples:
                raise AttackError(
                    f"sample window {sample_window} invalid for {n_samples} samples"
                )
            sample_window = (start, stop)
        self.n_samples = n_samples
        self.sample_window = sample_window
        self._stacked = StackedStreamingPearson(
            self.N_BYTES, self.N_GUESSES, self._window_size
        )

    @property
    def _window_size(self) -> int:
        if self.sample_window is None:
            return self.n_samples
        return self.sample_window[1] - self.sample_window[0]

    @property
    def n_traces(self) -> int:
        """Traces accumulated so far."""
        return self._stacked.n

    def telemetry_counters(self) -> dict:
        """Numeric progress counters for checkpoint telemetry spans."""
        return {"n_traces": self.n_traces, "n_samples": self.n_samples}

    # ------------------------------------------------------------------
    def _checked_traces(self, traces, m: int) -> np.ndarray:
        """``traces`` validated against ``m`` rows of this attack."""
        traces = np.asarray(traces)
        if traces.ndim != 2 or traces.shape[1] != self.n_samples:
            raise AttackError(
                f"traces must be (m, {self.n_samples}), got {traces.shape}"
            )
        if traces.shape[0] != m:
            raise AttackError(f"{traces.shape[0]} traces for {m} ciphertexts")
        return traces

    def update(self, traces: np.ndarray, ciphertexts) -> None:
        """Accumulate a batch of traces and their ciphertexts.

        ``ciphertexts`` is the ``(m, 16)`` ciphertext array, or one
        prepared tile of :meth:`update_many` (whose per-sensor folds
        each run inside their own ``update`` call).  A plain call is a
        fan-out of one: its tiles have this attack as their only peer.
        """
        if isinstance(ciphertexts, _HypothesisTile):
            self._fold(self._checked_traces(traces, len(ciphertexts)), ciphertexts)
            return
        cts = _checked_ciphertexts(ciphertexts)
        traces = self._checked_traces(traces, len(cts))
        for tile in _hypothesis_tiles(cts, [self], [traces]):
            ((_, chunk),) = tile.peers
            self._fold(chunk, tile)

    #: Historical name of :meth:`update`.
    add_traces = update

    @staticmethod
    def update_many(
        attacks: Sequence["CPAAttack"],
        traces_list: Sequence[np.ndarray],
        ciphertexts: np.ndarray,
    ) -> None:
        """Fold one ciphertext batch observed by several sensors, one
        attack per sensor (``traces_list[i]`` into ``attacks[i]``).

        Every sensor sees the same ciphertexts, so each row tile's
        hypotheses (gather, hypothesis sums, float blocks) are prepared
        once, and one float32 GEMM serves every sensor whose traces
        pass the exactness bound.  Each attack then folds the tile in
        its own :meth:`update` call and ends bit-identical to a
        separate ``update(traces_list[i], ciphertexts)``.
        """
        if len(attacks) != len(traces_list):
            raise AttackError(
                f"{len(traces_list)} trace batches for {len(attacks)} attacks"
            )
        cts = _checked_ciphertexts(ciphertexts)
        traces_list = [
            attack._checked_traces(traces, len(cts))
            for attack, traces in zip(attacks, traces_list)
        ]
        for tile in _hypothesis_tiles(cts, attacks, traces_list):
            for attack, chunk in tile.peers:
                attack.update(chunk, tile)

    def _windowed(self, traces: np.ndarray) -> np.ndarray:
        """``traces`` restricted to the sample window."""
        if self.sample_window is None:
            return traces
        return traces[:, self.sample_window[0] : self.sample_window[1]]

    def _fold(self, traces: np.ndarray, tile: "_HypothesisTile") -> None:
        """Fold one tile's traces: the trace sums, this attack's rows of
        the tile's float32 product (or, past the float32 bound, its own
        float64 GEMM) and the tile's shared hypothesis sums.

        Every folded quantity equals the per-byte engine's sum bit for
        bit: hypothesis values and integer readouts make all partial
        sums exact, so neither summation order, the stacking of other
        sensors' columns into the GEMM, nor narrow accumulators
        (uint16/int32 hypothesis sums, the float32 GEMM under the 2**24
        bound) can change them.
        """
        y = np.asarray(self._windowed(traces), dtype=np.float64)
        s_y = y.sum(axis=0)
        s_y2 = np.einsum("ij,ij->j", y, y)
        s_yx = tile.f32_product(self, traces)
        if s_yx is None:
            x = tile.block(np.float64)
            s_yx = np.matmul(
                y.T, x, out=_pool_array("yx64", (y.shape[1], x.shape[1]), np.float64)
            )
        self._stacked.fold_sample_major(len(tile), *tile.sums(), s_yx, s_y, s_y2)

    def merge(self, other: "CPAAttack") -> "CPAAttack":
        """Fold another attack's accumulated sums in.

        Both attacks must be of the same type and share ``n_samples``
        and ``sample_window``.  Merging is exact, so shard-local attacks
        merged in any order equal one attack fed the same traces
        serially, bit for bit.
        """
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
        self._stacked.merge(other._stacked)
        return self

    # ------------------------------------------------------------------
    # Snapshot protocol — lets :meth:`repro.runtime.Engine.
    # stream_attack_many` memoize accumulator states in the trace block
    # store, so a repeated campaign replays the attack from stored sums
    # instead of re-paying acquisition *and* accumulation.
    # ------------------------------------------------------------------
    def cache_token(self) -> dict:
        """Everything that determines this attack's accumulated state
        besides the traces themselves (the content-address companion of
        the acquisition's ``cache_token``).

        No engine is named: :meth:`load_state_arrays` also reads the
        per-byte layout that older builds wrote, so their snapshots
        replay under the same key.
        """
        return {
            "type": type(self).__name__,
            "n_samples": self.n_samples,
            "sample_window": (
                None if self.sample_window is None else list(self.sample_window)
            ),
        }

    def state_arrays(self) -> dict:
        """The full accumulator state as named arrays (the compact
        stacked layout: one shared copy of the trace sums).

        The sums are exact (see :mod:`repro.analysis.streaming`), so
        restoring a dump reproduces :meth:`correlations` — and every
        rank derived from it — bit for bit.
        """
        return self._stacked.state_arrays()

    def load_state_arrays(self, arrays) -> "CPAAttack":
        """Overwrite this attack with a :meth:`state_arrays` dump."""
        self._stacked.load_state_arrays(self._stacked_layout(arrays))
        return self

    def _stacked_layout(self, arrays) -> dict:
        """A dump in the stacked layout, whichever layout it was
        written in: per-byte ``b{j:02d}_*`` dumps (from older builds)
        are restacked."""
        if "s_xy" in arrays:
            return {
                name: arrays[name]
                for name in ("n", "s_x", "s_x2", "s_y", "s_y2", "s_xy")
            }
        if "b00_s_xy" in arrays:
            return self._stack_per_byte_arrays(arrays)
        raise AttackError(
            "unrecognized CPA state dump: expected stacked arrays "
            "('s_xy', ...) or per-byte arrays ('b00_s_xy', ...)"
        )

    def _stack_per_byte_arrays(self, arrays) -> dict:
        """Convert a legacy per-byte dump into the stacked layout.

        A legacy dump carries 16 copies of the shared quantities
        (``n``, ``s_y``, ``s_y2``); they are required to agree, which
        doubles as a consistency check on the dump.
        """
        def field(j: int, name: str) -> np.ndarray:
            return np.asarray(arrays[f"b{j:02d}_{name}"])

        n0 = field(0, "n")
        s_y = field(0, "s_y")
        s_y2 = field(0, "s_y2")
        for j in range(1, self.N_BYTES):
            if not (
                np.array_equal(field(j, "n"), n0)
                and np.array_equal(field(j, "s_y"), s_y)
                and np.array_equal(field(j, "s_y2"), s_y2)
            ):
                raise AttackError(
                    "inconsistent per-byte CPA state dump: shared trace "
                    f"sums of byte {j} disagree with byte 0"
                )
        return {
            "n": n0,
            "s_x": np.stack([field(j, "s_x") for j in range(self.N_BYTES)]),
            "s_x2": np.stack([field(j, "s_x2") for j in range(self.N_BYTES)]),
            "s_y": s_y,
            "s_y2": s_y2,
            "s_xy": np.stack([field(j, "s_xy") for j in range(self.N_BYTES)]),
        }

    # ------------------------------------------------------------------
    def correlations(self) -> np.ndarray:
        """Pearson correlation per (key byte, guess, sample):
        ``(16, 256, window)``.

        Returned read-only; the accumulator holds it only weakly, so
        repeated calls share one array while a caller holds it.
        """
        if self.n_traces < 2:
            raise AttackError("need at least two traces to correlate")
        return self._stacked.finalize()

    def peak_correlations(self) -> np.ndarray:
        """Per (byte, guess) |correlation| maximized over samples:
        ``(16, 256)`` — the guess-ranking statistic, read-only and
        memoized until the sums change (only then is
        :meth:`correlations` run, its matrix dropped at once)."""
        if self._stacked._peak is None:
            self.correlations()
        return self._stacked.peak_magnitudes()

    def best_guesses(self) -> np.ndarray:
        """The most-correlated guess of each last-round-key byte."""
        return self.peak_correlations().argmax(axis=1).astype(np.uint8)

    def recover_master_key(self) -> np.ndarray:
        """Best-guess last-round key inverted to the 16-byte master
        key."""
        return invert_key_schedule(self.best_guesses(), round_index=10)

    def byte_ranks(self, true_last_round_key) -> np.ndarray:
        """Rank (0 = best) of each true last-round-key byte among the
        guesses — the per-byte convergence diagnostic."""
        true = np.asarray(true_last_round_key, dtype=np.uint8)
        if true.shape != (16,):
            raise AttackError("true_last_round_key must be 16 bytes")
        peaks = self.peak_correlations()
        order = np.argsort(-peaks, axis=1)
        ranks = np.empty(16, dtype=np.int64)
        for j in range(16):
            ranks[j] = int(np.where(order[j] == true[j])[0][0])
        return ranks

