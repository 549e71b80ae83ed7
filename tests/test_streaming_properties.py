"""Property-based tests (hypothesis) for the streaming accumulators.

The contract under test (see :mod:`repro.analysis.streaming`):

* streamed statistics match the batch NumPy computation to 1e-10 on
  arbitrary float matrices, for arbitrary chunk splits;
* on integer-valued inputs (the acquisition regime: int16 readouts,
  0..8 Hamming-weight hypotheses) results are **bit-identical** across
  chunkings and merge orders;
* the raw-sums variance is clamped non-negative for any input.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.streaming import SharedTraceMoments, StreamingPearson

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def float_matrix(draw, max_rows=64, max_cols=8, min_rows=2):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, max_cols))
    return draw(hnp.arrays(np.float64, (rows, cols), elements=floats))


@st.composite
def conditioned_matrix(draw, max_rows=64, max_cols=6, min_rows=3):
    """A float matrix normalized to zero mean / unit std per column —
    the "well-scaled data" regime of the 1e-10 agreement contract
    (near-constant columns at large offsets only have to keep a
    non-negative variance, stressed separately).

    Constructive rather than ``assume``-filtered: planting a ±spread
    pair in the first two rows guarantees every column's std is at
    least ``spread / sqrt(rows)`` — far above the degenerate-scale
    threshold — so no draw is ever rejected.
    """
    mat = draw(float_matrix(max_rows=max_rows, max_cols=max_cols, min_rows=min_rows))
    spread = 1.0 + float(np.abs(mat).max())
    mat[0, :] = spread
    mat[1, :] = -spread
    return (mat - mat.mean(axis=0)) / mat.std(axis=0)


@st.composite
def int_xy(draw, max_rows=64):
    """An integer hypothesis/trace pair in the acquisition regime."""
    rows = draw(st.integers(2, max_rows))
    k = draw(st.integers(1, 4))
    w = draw(st.integers(1, 6))
    x = draw(
        hnp.arrays(np.int64, (rows, k), elements=st.integers(0, 8))
    )
    y = draw(
        hnp.arrays(np.int16, (rows, w), elements=st.integers(-2048, 2047))
    )
    return x, y


@st.composite
def split_points(draw, n):
    """A sorted list of cut positions partitioning ``range(n)``."""
    n_cuts = draw(st.integers(0, min(6, n - 1)))
    cuts = draw(
        st.lists(
            st.integers(1, n - 1), min_size=n_cuts, max_size=n_cuts, unique=True
        )
    )
    return sorted(cuts)


def chunks_of(data, cuts):
    bounds = [0] + list(cuts) + [data.shape[0]]
    return [
        data[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]


class TestStreamedMatchesBatch:
    @given(st.data())
    @settings(max_examples=60)
    def test_moments_match_numpy_for_floats(self, data):
        mat = data.draw(float_matrix())
        cuts = data.draw(split_points(mat.shape[0]))
        peak = float(np.abs(mat).max())
        # Raw-sums accuracy is bounded by eps * n * peak^2 (variance)
        # and eps * n * peak (mean); scale the tolerances accordingly.
        mean_atol = 1e-13 * mat.shape[0] * (1.0 + peak)
        var_atol = 1e-12 * (1.0 + peak**2)
        acc = SharedTraceMoments(mat.shape[1])
        for chunk in chunks_of(mat, cuts):
            acc.update(chunk)
        n, mean, var = acc.finalize()
        assert n == mat.shape[0]
        np.testing.assert_allclose(
            mean, mat.mean(axis=0), rtol=1e-10, atol=mean_atol
        )
        np.testing.assert_allclose(
            var, mat.var(axis=0, ddof=1), rtol=1e-6, atol=var_atol
        )

    @given(st.data())
    @settings(max_examples=40)
    def test_pearson_matches_corrcoef_for_floats(self, data):
        xy = data.draw(conditioned_matrix(min_rows=3, max_cols=6))
        k = data.draw(st.integers(1, xy.shape[1]))
        x, y = xy[:, :k], xy[:, k - 1 :]
        cuts = data.draw(split_points(x.shape[0]))
        acc = StreamingPearson(x.shape[1], y.shape[1])
        for cx, cy in zip(chunks_of(x, cuts), chunks_of(y, cuts)):
            acc.update(cx, cy)
        full = np.corrcoef(np.hstack([x, y]), rowvar=False)
        expected = np.nan_to_num(
            np.atleast_2d(full)[: x.shape[1], x.shape[1] :], nan=0.0
        )
        np.testing.assert_allclose(acc.finalize(), expected, atol=1e-10)


class TestWelfordStability:
    """Variance under a large common offset, the regime a Welford
    accumulator is used for; the raw-sum class clamps at zero instead."""

    @given(st.data())
    @settings(max_examples=80)
    def test_variance_never_negative(self, data):
        mat = data.draw(float_matrix())
        # Inflict a large common offset: the regime where naive
        # sum-of-squares goes negative.
        offset = data.draw(st.floats(-1e12, 1e12, allow_nan=False))
        mat = mat + offset
        cuts = data.draw(split_points(mat.shape[0]))
        acc = SharedTraceMoments(mat.shape[1])
        for chunk in chunks_of(mat, cuts):
            acc.update(chunk)
        assert np.all(acc.variance(ddof=1) >= 0.0)
        assert np.all(acc.variance(ddof=0) >= 0.0)


class TestBitReproducibility:
    @given(st.data())
    @settings(max_examples=60)
    def test_pearson_exact_across_chunkings(self, data):
        x, y = data.draw(int_xy())
        reference = (
            StreamingPearson(x.shape[1], y.shape[1]).update(x, y).finalize()
        )
        cuts = data.draw(split_points(x.shape[0]))
        acc = StreamingPearson(x.shape[1], y.shape[1])
        for cx, cy in zip(chunks_of(x, cuts), chunks_of(y, cuts)):
            acc.update(cx, cy)
        np.testing.assert_array_equal(acc.finalize(), reference)

    @given(st.data())
    @settings(max_examples=60)
    def test_pearson_exact_across_merge_orders(self, data):
        x, y = data.draw(int_xy())
        reference = (
            StreamingPearson(x.shape[1], y.shape[1]).update(x, y).finalize()
        )
        cuts = data.draw(split_points(x.shape[0]))
        parts = [
            StreamingPearson(x.shape[1], y.shape[1]).update(cx, cy)
            for cx, cy in zip(chunks_of(x, cuts), chunks_of(y, cuts))
        ]
        order = data.draw(st.permutations(range(len(parts))))
        acc = StreamingPearson(x.shape[1], y.shape[1])
        for i in order:
            acc.merge(parts[i])
        np.testing.assert_array_equal(acc.finalize(), reference)


@st.composite
def stacked_int_xy(draw, max_rows=48):
    """An integer grouped-hypothesis/trace pair (the stacked CPA
    regime: G groups of 0..8 hypotheses against one trace stream)."""
    rows = draw(st.integers(2, max_rows))
    groups = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 4))
    w = draw(st.integers(1, 5))
    x = draw(
        hnp.arrays(np.int64, (rows, groups, nvars), elements=st.integers(0, 8))
    )
    y = draw(
        hnp.arrays(np.int16, (rows, w), elements=st.integers(-2048, 2047))
    )
    return x, y


class TestStackedAccumulators:
    @given(st.data())
    @settings(max_examples=60)
    def test_stacked_matches_per_group_bit_for_bit(self, data):
        from repro.analysis.streaming import StackedStreamingPearson

        x, y = data.draw(stacked_int_xy())
        rows, groups, nvars = x.shape
        stacked = StackedStreamingPearson(groups, nvars, y.shape[1])
        cuts = data.draw(split_points(rows))
        for cx, cy in zip(chunks_of(x, cuts), chunks_of(y, cuts)):
            stacked.update(cx, cy)
        rho = stacked.finalize()
        for g in range(groups):
            ref = StreamingPearson(nvars, y.shape[1]).update(x[:, g, :], y)
            np.testing.assert_array_equal(rho[g], ref.finalize())

    @given(st.data())
    @settings(max_examples=60)
    def test_stacked_exact_across_merge_orders(self, data):
        from repro.analysis.streaming import StackedStreamingPearson

        x, y = data.draw(stacked_int_xy())
        rows, groups, nvars = x.shape
        reference = (
            StackedStreamingPearson(groups, nvars, y.shape[1])
            .update(x, y)
            .finalize()
        )
        cuts = data.draw(split_points(rows))
        parts = [
            StackedStreamingPearson(groups, nvars, y.shape[1]).update(cx, cy)
            for cx, cy in zip(chunks_of(x, cuts), chunks_of(y, cuts))
        ]
        order = data.draw(st.permutations(range(len(parts))))
        acc = StackedStreamingPearson(groups, nvars, y.shape[1])
        for i in order:
            acc.merge(parts[i])
        np.testing.assert_array_equal(acc.finalize(), reference)

    @given(st.data())
    @settings(max_examples=60)
    def test_shared_moments_exact_across_merge_orders(self, data):
        from repro.analysis.streaming import SharedTraceMoments

        _, y = data.draw(stacked_int_xy())
        reference = SharedTraceMoments(y.shape[1]).update(y)
        cuts = data.draw(split_points(y.shape[0]))
        parts = [
            SharedTraceMoments(y.shape[1]).update(c) for c in chunks_of(y, cuts)
        ]
        order = data.draw(st.permutations(range(len(parts))))
        acc = SharedTraceMoments(y.shape[1])
        for i in order:
            acc.merge(parts[i])
        assert acc.n == reference.n
        np.testing.assert_array_equal(acc._s, reference._s)
        np.testing.assert_array_equal(acc._s2, reference._s2)

    @given(st.data())
    @settings(max_examples=40)
    def test_fold_sums_equals_update_for_integers(self, data):
        from repro.analysis.streaming import StackedStreamingPearson

        x, y = data.draw(stacked_int_xy())
        rows, groups, nvars = x.shape
        updated = StackedStreamingPearson(groups, nvars, y.shape[1]).update(
            x, y
        )
        flat = x.reshape(rows, -1).astype(np.float64)
        y64 = y.astype(np.float64)
        folded = StackedStreamingPearson(groups, nvars, y.shape[1]).fold_sums(
            rows,
            flat.sum(axis=0),
            (flat**2).sum(axis=0),
            flat.T @ y64,
            y64.sum(axis=0),
            np.einsum("ij,ij->j", y64, y64),
        )
        np.testing.assert_array_equal(folded.finalize(), updated.finalize())
