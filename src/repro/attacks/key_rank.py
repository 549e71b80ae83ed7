"""Key-rank estimation by histogram convolution.

The paper reports attack progress as the key-rank metric: how many key
candidates an attacker would have to test before reaching the true key,
given per-byte scores from the CPA.  Enumerating 2^128 candidates is
impossible; the standard estimator (Glowacz et al., FSE 2015) bins each
byte's 256 scores into a histogram, convolves the sixteen histograms to
get the distribution of full-key scores, and reads the rank off as the
mass above the true key's score.  Binning introduces bounded error,
which is why the metric is reported as an upper and a lower bound —
exactly the two curves in the paper's Fig. 5 and Fig. 6.

Each bound reads one tail mass, computed over the live band of each
convolution step only (the bins that can still reach the tail).  While
a band's values stay below 2^53 they are counted exactly, which is what
the float convolution chain computes there too; from the first step
past it, each band value is the chain's own dot product.  Either way
the bits equal those of convolving the whole distribution.
"""

from __future__ import annotations

import numbers
from typing import Tuple

import numpy as np

from repro.errors import AttackError


def scores_from_correlations(peak_correlations: np.ndarray, n_traces: int) -> np.ndarray:
    """Convert per-(byte, guess) peak |correlations| to additive
    scores via the Fisher z-transform.

    ``z = atanh(rho) * sqrt(n - 3)`` is monotone in the correlation and
    approximately normal under the null, so summing byte scores ranks
    full keys sensibly.  Shape in = shape out = ``(16, 256)``.
    """
    rho = np.asarray(peak_correlations, dtype=np.float64)
    if rho.ndim != 2 or rho.shape[1] != 256:
        raise AttackError(f"peak correlations must be (16, 256), got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise AttackError("peak correlations must be finite (got NaN or inf)")
    if n_traces < 4:
        raise AttackError("need at least 4 traces for Fisher scoring")
    clipped = np.clip(np.abs(rho), 0.0, 0.9999)
    return np.arctanh(clipped) * np.sqrt(n_traces - 3)


#: Float64 represents every integer below this exactly.
_EXACT_LIMIT = float(2**53)


def _byte_histograms(bins: np.ndarray, size: int) -> np.ndarray:
    """``(16, size)`` float counts of each byte's bins."""
    flat = (bins + size * np.arange(16)[:, None]).ravel()
    counts = np.bincount(flat, minlength=16 * size).reshape(16, size)
    return counts.astype(np.float64)


def _float_step(
    dist: np.ndarray, top: int, hist: np.ndarray, end: int, lo: int, hi: int
) -> np.ndarray:
    """One step of the float convolution chain, on its live band only.

    ``dist`` holds the previous step's values, the last of them at
    full-key bin ``top``; ``end`` is where the full chain's input to
    this step ends (``j * n_bins`` at step ``j``).  Returns this step's
    values at bins ``max(lo, 0)..hi``, each the very ``ddot`` the full
    chain computes for it: the same input window, the same reversed
    histogram, the same length, so the same bits.

    The input is a zero-padded slice of the chain's input.  It starts
    at 0 when the band reaches the left edge (the chain's partial
    windows there start at 0 too), and otherwise ``n_bins`` below the
    band, so that every kept output is a full window; full windows
    alone are ``mode="valid"``.  It ends where the chain's input ends
    when the band has right-edge windows, which then keep their
    length, and at ``hi`` otherwise.  It is never shorter than the
    histogram, below which ``np.convolve`` swaps its arguments and
    sums in a different order.  Zero padding changes no term: an input
    above ``top`` is zero in the chain too, and one below ``dist``
    meets a histogram bin above the byte's top bin, which is zero.
    """
    n_bins = hist.shape[0] - 1
    lo = max(lo, 0)
    start = min(max(lo - n_bins, 0), end - n_bins)
    stop = end if hi > end else max(hi, start + n_bins)
    padded = np.zeros(stop - start + 1)
    padded[top - dist.shape[0] + 1 - start : top + 1 - start] = dist
    if start and hi <= end:
        out, first = np.convolve(padded, hist, mode="valid"), start + n_bins
    else:
        out, first = np.convolve(padded, hist), start
    return out[lo - first : hi + 1 - first]


def _tail_mass(bins: np.ndarray, n_bins: int, b: int) -> float:
    """Mass of the 16-fold convolution of the per-byte histograms of
    ``bins`` at or above full-key bin ``b``, bit-identical to reading
    it off the full 15-step float convolution chain.

    Only the live band of each step is computed.  After byte ``j`` a
    prefix sum can still reach ``b`` only from ``b - Σ_{i>j} top_i``
    up, and no prefix exceeds ``Σ_{i≤j} top_i``; with ``slack = Σ_i
    top_i - b`` that band is the top ``slack + 1`` values, and byte
    ``j`` feeds it only from its top ``slack + 1`` bins.

    Exact steps first.  Every band value is a sum of products of
    non-negative integer counts drawn from the previous band (a term
    from below it has zero weight and adds +0.0), so while every value
    of a band is below 2^53, every term and partial sum behind it is an
    integer float64 holds exactly: the value equals the chain's bits
    whatever the summation order, and the sliced histograms compute it
    cheaply.  Rounding is monotone and 2^53 is a float, so a computed
    value reaches 2^53 exactly when the true one does.  From the first
    step with such a value on, :func:`_float_step` computes each band
    as the chain does.

    Direct convolution throughout: each output bin is a dot product of
    non-negative terms, so its floating-point error is relative to its
    own magnitude.  (FFT convolution is unusable here: its error scales
    with the distribution's peak, ~2^128, and obliterates the tail mass
    that defines small ranks.)  The final tail sum runs from the top
    bin down, the order of the full ``cumsum``; no limit is checked on
    it, since each bin can be below 2^53 while their sum is not.
    """
    if b >= 16 * n_bins + 1:
        return 0.0
    b = max(b, 0)
    tops = bins.max(axis=1)
    slack = int(tops.sum()) - b
    if slack < 0:
        return 0.0
    hists = _byte_histograms(bins, n_bins + 1)
    starts = np.maximum(bins.min(axis=1), tops - slack)
    dist, top = hists[0, starts[0] : tops[0] + 1], int(tops[0])
    exact = True
    for j in range(1, 16):
        hi = top + int(tops[j])
        if exact:
            out = np.convolve(dist, hists[j, starts[j] : tops[j] + 1])[-(slack + 1):]
            exact = out.max() < _EXACT_LIMIT
        if not exact:
            out = _float_step(dist, top, hists[j], j * n_bins, hi - slack, hi)
        dist, top = out, hi
    return float(np.cumsum(dist[::-1])[-1])


def key_rank_bounds(
    scores: np.ndarray,
    true_key_bytes,
    n_bins: int = 1024,
) -> Tuple[float, float]:
    """Histogram-convolution rank bounds.

    Parameters
    ----------
    scores:
        ``(16, 256)`` finite additive per-byte guess scores (higher =
        more likely).
    true_key_bytes:
        The 16 true (last-round) key bytes to rank, integers in 0..255.
    n_bins:
        Histogram resolution (an integer >= 2); the bound gap shrinks
        as it grows.

    Returns
    -------
    (float, float)
        ``(log2 lower bound, log2 upper bound)`` of the key rank.  A
        fully recovered key gives ``lower = 0``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    true = np.asarray(true_key_bytes)
    if scores.shape != (16, 256):
        raise AttackError(f"scores must be (16, 256), got {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise AttackError("scores must be finite (got NaN or inf)")
    if true.shape != (16,):
        raise AttackError("true_key_bytes must be 16 bytes")
    if true.dtype.kind not in "iuf" or not np.all(
        (true >= 0) & (true <= 255) & (np.floor(true) == true)
    ):
        raise AttackError(
            f"true_key_bytes must be integers in 0..255, got {true.tolist()}"
        )
    if not isinstance(n_bins, numbers.Integral) or n_bins < 2:
        raise AttackError(f"n_bins must be an integer >= 2, got {n_bins!r}")
    true = true.astype(np.intp)

    lo = float(scores.min())
    hi = float(scores.max())
    if hi <= lo:
        # Degenerate: all guesses tie; the rank is the full key space.
        return (0.0, 128.0)
    width = (hi - lo) / (n_bins - 1)

    # Directional rounding (the Glowacz et al. construction): for the
    # *upper* bound every competitor's score is rounded up while the
    # true key's is rounded down, guaranteeing an overcount; vice versa
    # for the lower bound.
    bins_down = np.clip(
        np.floor((scores - lo) / width).astype(np.int64), 0, n_bins - 1
    )
    bins_up = bins_down + 1
    true_down = int(bins_down[np.arange(16), true].sum())
    true_up = int(bins_up[np.arange(16), true].sum())

    upper_mass = _tail_mass(bins_up, n_bins, true_down)
    # Lower bound: competitors rounded down must STRICTLY beat the true
    # key rounded up; the true key itself always counts (rank >= 1).
    lower_mass = _tail_mass(bins_down, n_bins, true_up + 1) + 1.0

    upper = float(np.log2(max(upper_mass, 1.0)))
    lower = float(np.log2(max(lower_mass, 1.0)))
    return (min(lower, upper), upper)
