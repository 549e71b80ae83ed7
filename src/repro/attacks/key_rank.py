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


def _tail_mass(bins: np.ndarray, n_bins: int, b: int) -> float:
    """Mass of the 16-fold convolution of the per-byte histograms of
    ``bins`` at or above full-key bin ``b``.

    Direct convolution: each output bin is a dot product of
    non-negative terms, so its floating-point error is relative to its
    own magnitude.  (FFT convolution is unusable here: its error scales
    with the distribution's peak, ~2^128, and obliterates the tail mass
    that defines small ranks.)

    Tail only: the rank reads nothing below bin ``b``, and output ``k``
    of step ``j`` feeds only outputs ``k..k + (15 - j) * n_bins`` of
    the final distribution, so step ``j`` needs just its outputs from
    ``b - (15 - j) * n_bins`` up.  Each step slices its input to start
    ``n_bins`` below that point and drops the partial-window head of
    its output.  Every kept output is then the full-window ``ddot``
    that a convolution of the whole chain computes for it: the same
    input segment, the same reversed histogram, the same length — so
    the same bits.  An input is never sliced shorter than the
    histogram (``n_bins + 1``), below which ``np.convolve`` swaps its
    arguments and sums in a different order.  The final tail sum runs
    from the top bin down, the order of the full ``cumsum``.
    """
    size = n_bins + 1
    if b >= 16 * n_bins + 1:
        return 0.0
    b = max(b, 0)
    hists = np.zeros((16, size))
    np.add.at(hists, (np.arange(16)[:, None], bins), 1.0)
    dist, offset = hists[0], 0  # dist[i] is full-key bin offset + i
    for j in range(1, 16):
        need = b - (15 - j) * n_bins
        start = min(max(need - n_bins, offset), offset + dist.shape[0] - size)
        out = np.convolve(dist[start - offset:], hists[j])
        if start > 0:
            out = out[n_bins:]  # partial windows: terms below start missing
            start += n_bins
        dist, offset = out, start
    return float(np.cumsum(dist[b - offset:][::-1])[-1])


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
