"""Unit tests for the streaming accumulators
(:mod:`repro.analysis.streaming`): chunk/merge semantics, agreement
with batch NumPy, and input validation."""

import numpy as np
import pytest

from repro.analysis.streaming import (
    SharedTraceMoments,
    StackedStreamingPearson,
    StreamingPearson,
)
from repro.errors import AttackError, ReproError


def chunks(n_rows, size):
    """Slices covering ``0..n_rows`` in ``size``-row steps."""
    return [slice(i, min(i + size, n_rows)) for i in range(0, n_rows, size)]


def batch_pearson(x, y):
    """Reference (n_vars, n_samples) Pearson via np.corrcoef."""
    k, w = x.shape[1], y.shape[1]
    full = np.corrcoef(np.hstack([x, y]), rowvar=False)
    return np.nan_to_num(full[:k, k:], nan=0.0)


class TestEmptyChunks:
    def test_pearson_rejects_empty_chunk(self):
        acc = StreamingPearson(3, 5)
        with pytest.raises(AttackError, match="empty"):
            acc.update(np.empty((0, 3)), np.empty((0, 5)))

    def test_moments_reject_empty_chunk(self):
        with pytest.raises(AttackError, match="empty"):
            SharedTraceMoments(4).update(np.empty((0, 4)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(AttackError, match="2-D"):
            SharedTraceMoments(4).update(np.ones(4))

    def test_rejects_wrong_width(self):
        with pytest.raises(AttackError, match="columns"):
            SharedTraceMoments(4).update(np.ones((3, 5)))


class TestMergeCompatibility:
    def test_rejects_cross_type_merge(self):
        with pytest.raises(AttackError, match="cannot merge"):
            SharedTraceMoments(4).merge(StreamingPearson(1, 4))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(AttackError, match="n_samples"):
            SharedTraceMoments(4).merge(SharedTraceMoments(5))
        with pytest.raises(AttackError, match="n_samples"):
            StreamingPearson(3, 5).merge(StreamingPearson(3, 6))
        with pytest.raises(AttackError, match="n_vars"):
            StreamingPearson(2, 5).merge(StreamingPearson(3, 5))


class TestMoments:
    # The case ids name the two accumulators these inputs were checked on
    # before SharedTraceMoments became the one moments class: integer
    # readouts (the raw-sum regime) and normal floats (the Welford one).
    @pytest.mark.parametrize(
        "kind",
        [
            pytest.param("readouts", id="SumMoments"),
            pytest.param("floats", id="WelfordMoments"),
        ],
    )
    def test_matches_numpy(self, kind, rng):
        if kind == "readouts":
            data = rng.integers(-500, 500, size=(200, 6)).astype(float)
        else:
            data = rng.normal(3.0, 2.0, size=(200, 6))
        acc = SharedTraceMoments(6)
        for sl in chunks(200, 33):
            acc.update(data[sl])
        n, mean, var = acc.finalize()
        assert n == 200
        np.testing.assert_allclose(mean, data.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(var, data.var(axis=0, ddof=1), rtol=1e-9)

    def test_sum_moments_variance_clamped(self):
        acc = SharedTraceMoments(1).update(np.full((100, 1), 1e9))
        assert np.all(acc.variance() >= 0.0)


class TestStreamingPearson:
    def test_matches_batch_corrcoef(self, rng):
        x = rng.integers(0, 9, size=(300, 4)).astype(float)
        y = rng.integers(-40, 40, size=(300, 7)).astype(float)
        acc = StreamingPearson(4, 7)
        for sl in chunks(300, 41):
            acc.update(x[sl], y[sl])
        np.testing.assert_allclose(acc.finalize(), batch_pearson(x, y), atol=1e-12)

    def test_bit_identical_across_chunkings(self, rng):
        x = rng.integers(0, 9, size=(256, 3)).astype(float)
        y = rng.integers(-40, 40, size=(256, 5)).astype(float)
        reference = StreamingPearson(3, 5).update(x, y).finalize()
        for chunk in (1, 7, 64, 255):
            acc = StreamingPearson(3, 5)
            for sl in chunks(256, chunk):
                acc.update(x[sl], y[sl])
            np.testing.assert_array_equal(acc.finalize(), reference)

    def test_bit_identical_across_merge_orders(self, rng):
        x = rng.integers(0, 9, size=(120, 2)).astype(float)
        y = rng.integers(-40, 40, size=(120, 4)).astype(float)
        parts = [
            StreamingPearson(2, 4).update(x[sl], y[sl])
            for sl in chunks(120, 30)
        ]
        reference = StreamingPearson(2, 4).update(x, y).finalize()
        forward = StreamingPearson(2, 4)
        for p in parts:
            forward.merge(p)
        backward = StreamingPearson(2, 4)
        for p in reversed(parts):
            backward.merge(p)
        np.testing.assert_array_equal(forward.finalize(), reference)
        np.testing.assert_array_equal(backward.finalize(), reference)

    def test_constant_columns_correlate_to_zero(self, rng):
        x = np.ones((50, 2))
        y = rng.normal(size=(50, 3))
        rho = StreamingPearson(2, 3).update(x, y).finalize()
        np.testing.assert_array_equal(rho, np.zeros((2, 3)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(AttackError, match="rows"):
            StreamingPearson(2, 3).update(np.ones((4, 2)), np.ones((5, 3)))

    def test_needs_two_rows(self):
        acc = StreamingPearson(2, 3).update(np.ones((1, 2)), np.ones((1, 3)))
        with pytest.raises(AttackError):
            acc.finalize()


class TestSharedTraceMoments:
    def test_matches_sum_moments(self, rng):
        # Chunked updates give the raw-sum moments of the whole stream
        # bit for bit: the sums of integer readouts are exact in float64.
        y = rng.integers(-500, 500, size=(120, 6)).astype(float)
        shared = SharedTraceMoments(6)
        for sl in chunks(120, 17):
            shared.update(y[sl])
        s, s2 = y.sum(axis=0), (y * y).sum(axis=0)
        n, mean, var = shared.finalize()
        assert n == 120
        np.testing.assert_array_equal(mean, s / 120)
        np.testing.assert_array_equal(var, (s2 - s**2 / 120) / 119)

    def test_fold_sums_equals_update(self, rng):
        y = rng.integers(-100, 100, size=(50, 4)).astype(float)
        updated = SharedTraceMoments(4).update(y)
        folded = SharedTraceMoments(4).fold_sums(
            50, y.sum(axis=0), np.einsum("ij,ij->j", y, y)
        )
        assert folded.n == updated.n
        np.testing.assert_array_equal(folded._s, updated._s)
        np.testing.assert_array_equal(folded._s2, updated._s2)

    def test_fold_sums_validates(self):
        acc = SharedTraceMoments(4)
        with pytest.raises(AttackError, match="positive"):
            acc.fold_sums(0, np.zeros(4), np.zeros(4))
        with pytest.raises(AttackError, match="shape"):
            acc.fold_sums(3, np.zeros(5), np.zeros(4))

    def test_merge_bit_identical(self, rng):
        y = rng.integers(0, 1000, size=(90, 3)).astype(float)
        whole = SharedTraceMoments(3).update(y)
        merged = (
            SharedTraceMoments(3).update(y[:40]).merge(
                SharedTraceMoments(3).update(y[40:])
            )
        )
        np.testing.assert_array_equal(merged._s, whole._s)
        np.testing.assert_array_equal(merged._s2, whole._s2)

    def test_merge_rejects_mismatched_width(self):
        with pytest.raises(ReproError):
            SharedTraceMoments(3).merge(SharedTraceMoments(4))

    def test_state_round_trip(self, rng):
        y = rng.integers(0, 50, size=(30, 5)).astype(float)
        src = SharedTraceMoments(5).update(y)
        dst = SharedTraceMoments(5).load_state_arrays(src.state_arrays())
        assert dst.n == src.n
        np.testing.assert_array_equal(dst._s, src._s)
        with pytest.raises(AttackError, match="samples"):
            SharedTraceMoments(6).load_state_arrays(src.state_arrays())

    def test_guards(self):
        with pytest.raises(AttackError):
            SharedTraceMoments(0)
        with pytest.raises(AttackError, match="no data"):
            SharedTraceMoments(2).mean
        with pytest.raises(AttackError, match="ddof"):
            SharedTraceMoments(2).update(np.ones((1, 2))).variance()


class TestStackedStreamingPearson:
    def per_group_reference(self, x, y, groups, nvars):
        out = []
        for g in range(groups):
            acc = StreamingPearson(nvars, y.shape[1])
            acc.update(x[:, g, :], y)
            out.append(acc.finalize())
        return np.stack(out)

    def test_matches_per_group_accumulators(self, rng):
        groups, nvars, samples = 4, 7, 5
        x = rng.integers(0, 9, size=(160, groups, nvars)).astype(float)
        y = rng.integers(-300, 300, size=(160, samples)).astype(float)
        stacked = StackedStreamingPearson(groups, nvars, samples)
        for sl in chunks(160, 33):
            stacked.update(x[sl], y[sl])
        np.testing.assert_array_equal(
            stacked.finalize(), self.per_group_reference(x, y, groups, nvars)
        )

    def test_flat_and_3d_updates_agree(self, rng):
        x = rng.integers(0, 9, size=(40, 3, 4)).astype(float)
        y = rng.integers(0, 100, size=(40, 2)).astype(float)
        a = StackedStreamingPearson(3, 4, 2).update(x, y)
        b = StackedStreamingPearson(3, 4, 2).update(x.reshape(40, 12), y)
        np.testing.assert_array_equal(a.finalize(), b.finalize())

    def test_fold_sums_equals_update(self, rng):
        groups, nvars, samples = 2, 5, 3
        x = rng.integers(0, 9, size=(60, groups, nvars)).astype(float)
        y = rng.integers(0, 200, size=(60, samples)).astype(float)
        updated = StackedStreamingPearson(groups, nvars, samples).update(x, y)
        flat = x.reshape(60, -1)
        folded = StackedStreamingPearson(groups, nvars, samples).fold_sums(
            60,
            flat.sum(axis=0),
            (flat**2).sum(axis=0),
            flat.T @ y,
            y.sum(axis=0),
            np.einsum("ij,ij->j", y, y),
        )
        np.testing.assert_array_equal(folded.finalize(), updated.finalize())

    def test_merge_bit_identical(self, rng):
        x = rng.integers(0, 9, size=(100, 2, 6)).astype(float)
        y = rng.integers(0, 500, size=(100, 4)).astype(float)
        whole = StackedStreamingPearson(2, 6, 4).update(x, y)
        merged = (
            StackedStreamingPearson(2, 6, 4).update(x[:30], y[:30]).merge(
                StackedStreamingPearson(2, 6, 4).update(x[30:], y[30:])
            )
        )
        np.testing.assert_array_equal(merged.finalize(), whole.finalize())

    def test_state_round_trip(self, rng):
        x = rng.integers(0, 9, size=(50, 3, 4)).astype(float)
        y = rng.integers(0, 100, size=(50, 2)).astype(float)
        src = StackedStreamingPearson(3, 4, 2).update(x, y)
        dst = StackedStreamingPearson(3, 4, 2).load_state_arrays(
            src.state_arrays()
        )
        np.testing.assert_array_equal(dst.finalize(), src.finalize())
        assert set(src.state_arrays()) == set(
            StackedStreamingPearson.STATE_FIELDS
        )

    def test_finalize_memoized_and_read_only(self, rng):
        x = rng.integers(0, 9, size=(20, 2, 3)).astype(float)
        y = rng.integers(0, 50, size=(20, 2)).astype(float)
        acc = StackedStreamingPearson(2, 3, 2).update(x, y)
        rho = acc.finalize()
        assert acc.finalize() is rho
        assert not rho.flags.writeable
        acc.update(x, y)
        assert acc.finalize() is not rho

    def test_guards(self):
        with pytest.raises(AttackError):
            StackedStreamingPearson(0, 1, 1)
        with pytest.raises(AttackError, match="two rows"):
            StackedStreamingPearson(1, 2, 2).finalize()
        acc = StackedStreamingPearson(1, 2, 2)
        with pytest.raises(AttackError, match="rows"):
            acc.update(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(ReproError):
            acc.merge(StackedStreamingPearson(2, 2, 2))


class TestStreamingPearsonMemoization:
    def test_finalize_memoized_and_invalidated(self, rng):
        x = rng.integers(0, 9, size=(30, 4)).astype(float)
        y = rng.integers(0, 50, size=(30, 3)).astype(float)
        acc = StreamingPearson(4, 3).update(x, y)
        rho = acc.finalize()
        assert acc.finalize() is rho
        assert not rho.flags.writeable
        acc.update(x, y)
        assert acc.finalize() is not rho

    def test_merge_and_load_invalidate(self, rng):
        x = rng.integers(0, 9, size=(30, 4)).astype(float)
        y = rng.integers(0, 50, size=(30, 3)).astype(float)
        acc = StreamingPearson(4, 3).update(x, y)
        rho = acc.finalize()
        other = StreamingPearson(4, 3).update(x, y)
        acc.merge(other)
        assert acc.finalize() is not rho
        rho2 = acc.finalize()
        acc.load_state_arrays(other.state_arrays())
        assert acc.finalize() is not rho2
        np.testing.assert_array_equal(acc.finalize(), other.finalize())
