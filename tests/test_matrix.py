"""Matrix core: covariance application, polar normalization, Procrustes
alignment, the subspace potential, the Rayleigh residual, and rescaling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrpca import (DataMatrix, DegenerateIterateError, DimensionMismatchError,
                   OrthonormalFrame, covariance_apply, polar_normalize,
                   numerical_rank, potential, procrustes_rotation,
                   rayleigh_residual, rescale_dataset)
from conftest import random_orthogonal


def frame_of(cols):
    return OrthonormalFrame(np.asarray(cols, dtype=float))


#: (d, k, seed) with 1 <= k <= d <= 8; k = d included
dims = st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d),
                        st.integers(0, 2**32 - 1)))


def random_matrix(d, k, rng, rank=None, lo=-3.0):
    """U diag(s) V^T with U d x r, V k x r orthonormal, r = rank (k by
    default) and singular values s in [10**lo, 1]."""
    r = k if rank is None else rank
    u = random_orthogonal(d, rng)[:, :r]
    v = random_orthogonal(k, rng)[:, :r]
    return (u * 10.0 ** rng.uniform(lo, 0.0, size=r)) @ v.T


class TestDataMatrix:
    def test_r_matches_recomputed_max_norm(self):
        rng = np.random.default_rng(9)
        cols = rng.standard_normal((6, 11))
        X = DataMatrix(cols)
        assert X.r == max(float(c @ c) for c in cols.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("overflow_column", [False, True])
    def test_rejects_every_nonfinite_kind(self, bad, overflow_column):
        # the finiteness check rides on the column norms; an overflowing
        # finite column beside the bad one must not hide it
        cols = np.ones((3, 4))
        if overflow_column:
            cols[:, 0] = 1e200
        cols[1, 2] = bad
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            DataMatrix(cols)

    @pytest.mark.parametrize("shape, message", [
        ((2, 2, 2), "data must be 2-D, got shape (2, 2, 2)"),
        ((0, 3), "empty data matrix (shape (0, 3))"),
        ((3, 0), "empty data matrix (shape (3, 0))")])
    def test_rejects_malformed_shapes(self, shape, message):
        with pytest.raises(DimensionMismatchError) as err:
            DataMatrix(np.ones(shape))
        assert str(err.value) == message

    def test_accepts_overflowing_finite_column(self):
        cols = np.ones((3, 4))
        cols[:, 1] = 1e200  # finite entries, squared norm overflows
        X = DataMatrix(cols)
        assert X.r == np.inf
        assert np.array_equal(X.data, cols)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_gram_of_overflowing_column_refused(self, shape):
        # its Gram matrix would hold inf, which eigh cannot decompose;
        # refused in rescale_dataset's words, naming the column
        cols = np.ones(shape)
        cols[:, 1] = 1e200
        X = DataMatrix(cols)
        match = r"the squared norm of column 1 overflows to inf \(largest"
        with pytest.raises(DegenerateIterateError,
                           match="cannot form the covariance: " + match):
            X.covariance()
        assert X._cov is None
        with pytest.raises(DegenerateIterateError, match=match):
            numerical_rank(X)  # n < d forms X^T X, else the covariance

    def test_covariance_memo(self):
        rng = np.random.default_rng(12)
        X = DataMatrix(rng.standard_normal((5, 40)))
        cov = X.covariance()
        assert np.array_equal(cov, X.data @ X.data.T / X.n)
        assert X.covariance() is cov  # formed once
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0
        with pytest.raises(DimensionMismatchError, match="dense guard"):
            DataMatrix(np.ones((2001, 1))).covariance()

    def test_immutable(self):
        X = DataMatrix(np.eye(3))
        with pytest.raises(ValueError):
            X.data[0, 0] = 2.0

    def test_misaligned_buffer_is_realigned(self):
        vals = np.arange(1.0, 7.0)
        blob = bytes(4) + vals.tobytes()
        skewed = np.frombuffer(blob, dtype=np.float64, offset=4)
        assert not skewed.flags.aligned
        X = DataMatrix(skewed.reshape((2, 3), order="F"))
        assert X.data.flags.aligned and X.data.flags.f_contiguous
        assert np.array_equal(X.data, vals.reshape((2, 3), order="F"))


class TestCovarianceApply:
    def test_rank_one_projector(self):
        X = DataMatrix(np.array([[1.0], [0.0]]))
        out = covariance_apply(X, np.eye(2))
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_zero_operand(self):
        rng = np.random.default_rng(0)
        X = DataMatrix(rng.standard_normal((4, 6)))
        out = covariance_apply(X, np.zeros((4, 2)))
        assert np.all(out == 0.0)

    def test_matches_materialized_covariance(self):
        rng = np.random.default_rng(7)
        X = DataMatrix(rng.standard_normal((4, 3)))
        W = rng.standard_normal((4, 2))
        dense = X.data @ X.data.T / X.n
        np.testing.assert_allclose(covariance_apply(X, W), dense @ W,
                                   atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        X = DataMatrix(rng.standard_normal((5, 9)))
        U = rng.standard_normal((5, 3))
        V = rng.standard_normal((5, 3))
        a, b = 0.37, -2.1
        lhs = covariance_apply(X, a * U + b * V)
        rhs = a * covariance_apply(X, U) + b * covariance_apply(X, V)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        X = DataMatrix(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            covariance_apply(X, np.ones((4, 1)))

    def test_frame_operand_is_its_entries(self):
        rng = np.random.default_rng(22)
        X = DataMatrix(rng.standard_normal((5, 9)))
        W = frame_of(random_orthogonal(5, rng)[:, :2])
        assert np.array_equal(covariance_apply(X, W),
                              covariance_apply(X, W.entries))


class TestOrthonormalFrame:
    def test_vector_becomes_one_column(self):
        W = OrthonormalFrame(np.array([0.6, 0.8]))
        assert (W.d, W.k) == (2, 1)
        assert np.array_equal(W.entries, [[0.6], [0.8]])

    @pytest.mark.parametrize("entries, message", [
        (np.ones((2, 2, 2)), "frame must be 1-D or 2-D, got shape (2, 2, 2)"),
        (np.eye(2, 3), "frame needs 1 <= k <= d, got d=2, k=3"),
        (np.ones((2, 1)),
         "columns are not orthonormal: max |W^T W - I| = 1.000e+00")])
    def test_rejects_malformed_entries(self, entries, message):
        with pytest.raises(DimensionMismatchError) as err:
            OrthonormalFrame(entries)
        assert str(err.value) == message


def test_reprs_name_the_shape():
    assert repr(DataMatrix(np.array([[3.0, 0.0], [4.0, 1.0]]))) == \
        "DataMatrix(d=2, n=2, r=25)"
    assert repr(OrthonormalFrame(np.eye(3, 2))) == "OrthonormalFrame(d=3, k=2)"


class TestPolarNormalize:
    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(2)
        q = random_orthogonal(4, rng)[:, :2]
        out = polar_normalize(q)
        np.testing.assert_allclose(out.entries, q, atol=1e-12)

    def test_scalar_case_is_norm_division(self):
        out = polar_normalize(np.array([[3.0], [0.0]]))
        np.testing.assert_allclose(out.entries, [[1.0], [0.0]])

    def test_polar_factor_is_spd(self):
        # result R must be Wp times a symmetric positive definite factor,
        # recovered here from an independent Gram eigendecomposition
        rng = np.random.default_rng(3)
        wp = rng.standard_normal((5, 2))
        out = polar_normalize(wp).entries
        evals, evecs = np.linalg.eigh(wp.T @ wp)
        m = (evecs / np.sqrt(evals)) @ evecs.T
        np.testing.assert_allclose(out, wp @ m, atol=1e-12)
        np.testing.assert_allclose(m, m.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(m) > 0)
        np.testing.assert_allclose(out.T @ out, np.eye(2), atol=1e-12)

    def test_orthonormality_across_conditioning(self):
        # invariant must hold whenever the Gram min-eigenvalue is > 1e-6
        rng = np.random.default_rng(11)
        for trial in range(25):
            svals = 10.0 ** rng.uniform(-3, 1, size=3)  # min Gram eig >= 1e-6
            u = random_orthogonal(7, rng)[:, :3]
            v = random_orthogonal(3, rng)
            wp = (u * svals) @ v.T
            out = polar_normalize(wp)
            dev = np.max(np.abs(out.entries.T @ out.entries - np.eye(3)))
            assert dev <= 1e-10

    def test_degenerate_gram_raises_with_eigenvalue(self):
        wp = np.zeros((4, 2))
        wp[:, 0] = [1.0, 0, 0, 0]
        wp[:, 1] = [1.0, 1e-9, 0, 0]
        with pytest.raises(DegenerateIterateError, match="min eigenvalue"):
            polar_normalize(wp)


class TestPolarProperties:
    """Invariants of polar_normalize over shapes 1 <= k <= d <= 8."""

    @settings(max_examples=60, deadline=None)
    @given(dims=dims, scale=st.floats(-5.0, 5.0))
    @example(dims=(1, 1, 0), scale=0.0)
    @example(dims=(5, 5, 1), scale=0.0)
    def test_output_is_orthonormal(self, dims, scale):
        d, k, seed = dims
        rng = np.random.default_rng(seed)
        out = polar_normalize(random_matrix(d, k, rng) * 10.0**scale).entries
        assert np.max(np.abs(out.T @ out - np.eye(k))) <= 1e-12

    # singular values within a factor 10**1.5 of each other: the polar
    # factor moves with rounding in proportion to the condition number
    @settings(max_examples=60, deadline=None)
    @given(dims=dims)
    @example(dims=(4, 4, 2))
    def test_commutes_with_right_rotations(self, dims):
        d, k, seed = dims
        rng = np.random.default_rng(seed)
        w = random_matrix(d, k, rng, lo=-1.5)
        r = random_orthogonal(k, rng)
        np.testing.assert_allclose(polar_normalize(w @ r).entries,
                                   polar_normalize(w).entries @ r,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dims=dims, exponent=st.floats(-20.0, 20.0))
    @example(dims=(3, 3, 4), exponent=-20.0)
    @example(dims=(3, 2, 4), exponent=20.0)
    def test_ignores_the_scale(self, dims, exponent):
        d, k, seed = dims
        w = random_matrix(d, k, np.random.default_rng(seed), lo=-1.5)
        np.testing.assert_allclose(polar_normalize(w * 10.0**exponent).entries,
                                   polar_normalize(w).entries,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(dims=dims, rank=st.integers(0, 8),
           exponent=st.floats(-20.0, 20.0))
    @example(dims=(1, 1, 0), rank=0, exponent=0.0)
    @example(dims=(6, 6, 3), rank=5, exponent=-20.0)
    def test_raises_exactly_when_rank_is_short(self, dims, rank, exponent):
        d, k, seed = dims
        rank = min(rank, k)
        w = random_matrix(d, k, np.random.default_rng(seed), rank=rank)
        w *= 10.0**exponent
        if rank < k:
            with pytest.raises(DegenerateIterateError):
                polar_normalize(w)
        else:
            assert polar_normalize(w).k == k


class TestProcrustesProperties:
    @settings(max_examples=60, deadline=None)
    @given(dims=dims)
    @example(dims=(1, 1, 0))
    @example(dims=(4, 4, 7))
    def test_orthogonal_and_beats_random_rotations(self, dims):
        d, k, seed = dims
        rng = np.random.default_rng(seed)
        c = frame_of(random_orthogonal(d, rng)[:, :k])
        d_frame = frame_of(random_orthogonal(d, rng)[:, :k])
        b = procrustes_rotation(c, d_frame)
        assert np.max(np.abs(b.T @ b - np.eye(k))) <= 1e-12
        achieved = np.linalg.norm(c.entries - d_frame.entries @ b)
        for _ in range(20):
            q = random_orthogonal(k, rng)
            assert achieved <= np.linalg.norm(
                c.entries - d_frame.entries @ q) + 1e-12


class TestProcrustes:
    def test_identity_for_equal_frames(self):
        rng = np.random.default_rng(4)
        c = frame_of(random_orthogonal(5, rng)[:, :2])
        b = procrustes_rotation(c, c)
        np.testing.assert_allclose(b, np.eye(2), atol=1e-12)

    def test_recovers_permutation(self):
        rng = np.random.default_rng(5)
        d_frame = frame_of(random_orthogonal(6, rng)[:, :3])
        perm = np.eye(3)[:, [2, 0, 1]]
        c = frame_of(d_frame.entries @ perm)
        b = procrustes_rotation(c, d_frame)
        np.testing.assert_allclose(b, perm, atol=1e-12)

    def test_beats_dense_rotation_grid(self):
        # brute-force O(2) grid: 5000 rotations plus 5000 reflections
        rng = np.random.default_rng(11)
        c = frame_of(random_orthogonal(6, rng)[:, :2])
        d_frame = frame_of(random_orthogonal(6, rng)[:, :2])
        b = procrustes_rotation(c, d_frame)
        achieved = np.linalg.norm(c.entries - d_frame.entries @ b) ** 2
        theta = np.linspace(0.0, 2.0 * np.pi, 5000, endpoint=False)
        ct, st = np.cos(theta), np.sin(theta)
        rots = np.stack([np.stack([ct, -st], -1), np.stack([st, ct], -1)], -2)
        refl = rots.copy()
        refl[..., 1] *= -1.0
        grid = np.concatenate([rots, refl])
        vals = np.linalg.norm(
            c.entries[None] - d_frame.entries[None] @ grid, axis=(1, 2)) ** 2
        assert achieved <= vals.min() + 1e-12

    def test_beats_random_orthogonal(self):
        rng = np.random.default_rng(12)
        for k in (1, 2, 3):
            c = frame_of(random_orthogonal(6, rng)[:, :k])
            d_frame = frame_of(random_orthogonal(6, rng)[:, :k])
            b = procrustes_rotation(c, d_frame)
            achieved = np.linalg.norm(
                c.entries - d_frame.entries @ b) ** 2
            for _ in range(1000 // 3):
                q = random_orthogonal(k, rng)
                assert achieved <= np.linalg.norm(
                    c.entries - d_frame.entries @ q) ** 2 + 1e-12

    def test_alignment_bound(self):
        # ||C - D B||_F^2 <= 2 (k - ||C^T D||_F^2)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            c = frame_of(random_orthogonal(5, rng)[:, :k])
            d_frame = frame_of(random_orthogonal(5, rng)[:, :k])
            b = procrustes_rotation(c, d_frame)
            lhs = np.linalg.norm(c.entries - d_frame.entries @ b) ** 2
            rhs = 2.0 * (k - np.linalg.norm(c.entries.T @ d_frame.entries) ** 2)
            assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("compare", [procrustes_rotation, potential])
@pytest.mark.parametrize("shapes, message", [
    (((3, 1), (4, 1)), "frames disagree: (3,1) vs (4,1)"),
    (((3, 1), (3, 2)), "frames disagree: (3,1) vs (3,2)")])
def test_frames_of_different_shapes_refused(compare, shapes, message):
    C, D = (frame_of(np.eye(*shape)) for shape in shapes)
    with pytest.raises(DimensionMismatchError) as err:
        compare(C, D)
    assert str(err.value) == message


class TestPotential:
    def test_zero_at_same_frame(self):
        rng = np.random.default_rng(6)
        v = frame_of(random_orthogonal(5, rng)[:, :2])
        assert potential(v, v) <= 1e-14

    def test_planar_angle(self):
        theta = np.pi / 6.0
        v = frame_of([[1.0], [0.0]])
        w = frame_of([[np.cos(theta)], [np.sin(theta)]])
        assert potential(v, w) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_frames_give_k(self):
        v = frame_of(np.eye(6)[:, :2])
        w = frame_of(np.eye(6)[:, 3:5])
        assert potential(v, w) == pytest.approx(2.0, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        v = frame_of(random_orthogonal(8, rng)[:, :3])
        w = frame_of(random_orthogonal(8, rng)[:, :3])
        base = potential(v, w)
        for _ in range(20):
            q = random_orthogonal(3, rng)
            rotated = frame_of(w.entries @ q)
            assert potential(v, rotated) == pytest.approx(base, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        v = frame_of(random_orthogonal(9, rng)[:, :3])
        w = frame_of(random_orthogonal(9, rng)[:, :3])
        direct = 3.0 - np.linalg.norm(v.entries.T @ w.entries) ** 2
        assert potential(v, w) == pytest.approx(direct, abs=1e-12)


class TestRayleighResidual:
    def test_invariant_subspace_is_zero(self, small_k1):
        ref = small_k1.reference(2)
        assert rayleigh_residual(small_k1.Xs, ref) <= 1e-10

    def test_eigenvector_of_zero_eigenvalue(self):
        X = DataMatrix(np.array([[1.0], [0.0]]))
        w = frame_of([[0.0], [1.0]])
        assert rayleigh_residual(X, w) <= 1e-14

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        X = DataMatrix(rng.standard_normal((6, 20)))
        w = frame_of(random_orthogonal(6, rng)[:, :2])
        a = X.data @ X.data.T / X.n
        dense = np.linalg.norm(a @ w.entries
                               - w.entries @ (w.entries.T @ a @ w.entries))
        assert rayleigh_residual(X, w) == pytest.approx(dense, abs=1e-12)


class TestRescale:
    def test_halves_columns(self):
        X = DataMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        scaled, scale = rescale_dataset(X)
        assert scale == 4.0
        np.testing.assert_allclose(scaled.data,
                                   [[1.0, 0.0], [0.0, 0.5]])

    def test_unit_data_unchanged(self):
        X = DataMatrix(np.eye(3))
        scaled, scale = rescale_dataset(X)
        assert scale == 1.0
        np.testing.assert_allclose(scaled.data, X.data)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(9)
        X = DataMatrix(rng.standard_normal((7, 15)))
        scaled, scale = rescale_dataset(X)
        norms = np.einsum("ij,ij->j", scaled.data, scaled.data)
        assert abs(norms.max() - 1.0) <= 1e-12
        assert scale == pytest.approx(X.r)

    def test_overflowing_norm_rejected(self):
        # finite entries whose squared column norm overflows (r = inf):
        # dividing by sqrt(r) would turn the data into zeros
        cols = np.ones((2, 5))
        cols[:, 3] = 1e200
        X = DataMatrix(cols)
        assert X.r == np.inf
        with pytest.raises(DegenerateIterateError,
                           match=r"squared norm of column 3 overflows to inf"):
            rescale_dataset(X)

    def test_finite_r_keeps_its_bits(self):
        rng = np.random.default_rng(13)
        X = DataMatrix(rng.standard_normal((4, 9)) * 1e150)
        scaled, scale = rescale_dataset(X)
        assert scale == X.r
        assert np.array_equal(scaled.data, X.data / np.sqrt(X.r))

    def test_zero_dataset_rejected(self):
        X = DataMatrix(np.zeros((3, 2)))
        with pytest.raises(DegenerateIterateError):
            rescale_dataset(X)
