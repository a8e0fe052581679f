"""Oracle: LAPACK-backed dense_eigh checked against the test-side Jacobi
reference, Jacobi correctness and sweep monotonicity, spectrum round-trips
through the synthesizer and its bits on the compiled and the numpy
balancing, the synthesizer's input checks, its one-thread BLAS hold, and
gap warnings."""

import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from vrpca import (DataMatrix, DimensionMismatchError, GapWarning,
                   SpectrumSpec, dense_eigh, leading_subspace,
                   orthogonal_iteration, polar_normalize, potential,
                   synthesize_dataset)
from vrpca import _native, oracle
from conftest import spectrum_k1, spectrum_k3
from jacobi_reference import jacobi_eigh
from synth_reference import synthesize_reference


def random_covariance_data(d, n, seed):
    rng = np.random.default_rng(seed)
    return DataMatrix(rng.standard_normal((d, n)))


class TestJacobi:
    def test_two_by_two_hand_case(self):
        # columns chosen so (1/n) X X^T = [[2,1],[1,2]]
        chol = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        X = DataMatrix(np.sqrt(2.0) * chol)
        spec = dense_eigh(X)
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
        v = spec.eigenvectors.entries
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        for j in range(2):
            ratio = v[:, j] / expected[:, j]
            np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)

    def test_diagonal_input_reads_off(self):
        cols = np.zeros((2, 3))
        cols[0, 0] = 2.0 * np.sqrt(3.0)
        cols[1, 1] = np.sqrt(3.0)
        spec = dense_eigh(DataMatrix(cols))
        np.testing.assert_allclose(spec.eigenvalues, [4.0, 1.0], atol=1e-12)

    def test_reconstruction_identity(self):
        X = random_covariance_data(8, 30, seed=13)
        a = X.data @ X.data.T / X.n
        spec = dense_eigh(X)
        v = spec.eigenvectors.entries
        recon = (v * spec.eigenvalues) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-10

    def test_matches_lapack_eigenvalues(self):
        for d, seed in ((3, 0), (11, 1), (24, 2), (50, 3)):
            X = random_covariance_data(d, 2 * d + 5, seed=seed)
            a = X.data @ X.data.T / X.n
            evals, evecs, _ = jacobi_eigh(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            np.testing.assert_allclose(evals, ref,
                                       atol=1e-11 * max(ref[0], 1.0))
            resid = a @ evecs - evecs * evals
            assert np.linalg.norm(resid) <= 1e-9 * max(ref[0], 1.0)

    def test_off_diagonal_decreases_per_sweep(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((16, 16))
        a = (g + g.T) / 2.0
        _, _, history = jacobi_eigh(a, track_off=True)
        assert len(history) >= 2
        assert all(b < a_ for a_, b in zip(history, history[1:]))

    def test_dense_guard(self):
        X = DataMatrix(np.zeros((1, 1)) + 1.0)
        spec = dense_eigh(X)  # trivial size passes
        assert spec.eigenvalues[0] == pytest.approx(1.0)

        class _TooBig:  # stand-in: the guard fires before data is touched
            d = 2001

        with pytest.raises(DimensionMismatchError):
            dense_eigh(_TooBig())


class TestDenseEighVsJacobi:
    @pytest.mark.parametrize("d", [1, 2, 13, 50])
    def test_matches_jacobi(self, d):
        X = random_covariance_data(d, 2 * d + 5, seed=100 + d)
        a = X.data @ X.data.T / X.n
        spec = dense_eigh(X)
        ref_vals, ref_vecs, _ = jacobi_eigh(a)
        scale = max(float(ref_vals[0]), 1.0)
        np.testing.assert_allclose(spec.eigenvalues, ref_vals,
                                   atol=1e-11 * scale)
        assert np.all(np.diff(spec.eigenvalues) <= 0.0)
        v = spec.eigenvectors.entries
        assert np.linalg.norm((v * spec.eigenvalues) @ v.T - a) <= 1e-10
        # column-matched: each eigenvector agrees with Jacobi's up to sign,
        # within a perturbation bound set by its distance to the rest of
        # the spectrum
        for j in range(d):
            sep = np.min(np.abs(np.delete(ref_vals, j) - ref_vals[j]),
                         initial=np.inf)
            u = ref_vecs[:, j]
            err = np.linalg.norm(v[:, j] - np.sign(v[:, j] @ u) * u)
            assert err <= 1e-11 * scale / sep

    @pytest.mark.parametrize("d", [1, 13, 50])
    def test_bit_equal_to_eigh_of_the_covariance(self, d):
        # dense_eigh decomposes the memo, which is the same expression, so
        # the oracle's bits do not depend on the memo or on who formed it
        X = random_covariance_data(d, 2 * d + 5, seed=200 + d)
        evals, evecs = np.linalg.eigh(X.data @ X.data.T / X.n)
        for Y in (X, DataMatrix(X.data)):
            spec = dense_eigh(Y)
            assert np.array_equal(spec.eigenvalues, evals[::-1])
            assert np.array_equal(spec.eigenvectors.entries, evecs[:, ::-1])

    def test_peak_beyond_the_memo_within_three_and_a_quarter_squares(self):
        # eigh's eigenvectors, the frame's column-major copy and its
        # orthonormality check's W^T W, deviated in place: 3 d x d arrays
        # (the check's identity and difference made it 4 before)
        d = 600
        X = random_covariance_data(d, 700, seed=3)
        X.covariance()  # the memo is the caller's, formed before
        dense_eigh(DataMatrix(np.ones((3, 4))))
        tracemalloc.start()
        try:
            dense_eigh(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 8 * d * d, peak / (8 * d * d)

    def test_identity_spectrum(self):
        X = DataMatrix(np.eye(4) * 2.0)
        spec = dense_eigh(X)
        ref_vals, _, _ = jacobi_eigh(X.data @ X.data.T / X.n)
        np.testing.assert_allclose(spec.eigenvalues, ref_vals, atol=1e-11)
        with pytest.warns(GapWarning):
            leading_subspace(spec, 2)

    def test_zero_matrix(self):
        spec = dense_eigh(DataMatrix(np.zeros((3, 5))))
        assert np.array_equal(spec.eigenvalues, np.zeros(3))
        v = spec.eigenvectors.entries
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-15)
        with pytest.warns(GapWarning):
            leading_subspace(spec, 1)


class TestSpectrumAccess:
    def test_gap_is_stored_difference(self):
        X = random_covariance_data(7, 20, seed=3)
        spec = dense_eigh(X)
        for k in range(1, 7):
            expected = spec.eigenvalues[k - 1] - spec.eigenvalues[k]
            assert spec.gap_at(k) == expected

    def test_leading_subspace_of_diag(self):
        cols = np.zeros((3, 3))
        cols[0, 0] = np.sqrt(3.0 * 3.0)
        cols[1, 1] = np.sqrt(3.0 * 2.0)
        cols[2, 2] = np.sqrt(3.0 * 1.0)
        spec = dense_eigh(DataMatrix(cols))
        v2 = leading_subspace(spec, 2)
        span = v2.entries @ v2.entries.T
        np.testing.assert_allclose(span, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    @pytest.mark.parametrize("call, message", [
        (lambda s: leading_subspace(s, 0), r"k=0 outside \[1, 3\]"),
        (lambda s: leading_subspace(s, 4), r"k=4 outside \[1, 3\]"),
        (lambda s: s.gap_at(0), r"gap index 0 outside \[1, 2\]"),
        (lambda s: s.gap_at(3), r"gap index 3 outside \[1, 2\]")])
    def test_index_out_of_range_refused(self, call, message):
        spec = dense_eigh(random_covariance_data(3, 8, seed=4))
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            call(spec)

    def test_identity_spectrum_warns(self):
        spec = dense_eigh(DataMatrix(np.eye(4) * 2.0))
        with pytest.warns(GapWarning):
            leading_subspace(spec, 2)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_zero_gap_warns_at_every_scale(self, scale):
        spec = dense_eigh(DataMatrix(np.eye(4) * 2.0 * scale))
        with pytest.warns(GapWarning):
            leading_subspace(spec, 2)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_gap_rule_is_relative_to_the_leading_eigenvalue(self, scale):
        # a 5% gap at k=1 at every scale of the data; a rule with an
        # absolute floor warned once the eigenvalues fell below it
        cols = np.diag(np.sqrt(3.0 * np.array([1.0, 0.95, 0.5]))) * scale
        spec = dense_eigh(DataMatrix(cols))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GapWarning)
            leading_subspace(spec, 1)

    def test_cross_validates_orthogonal_iteration(self, small_k1):
        ref = small_k1.reference(1)
        rng = np.random.default_rng(0)
        w0 = polar_normalize(rng.standard_normal((small_k1.Xs.d, 1)))
        trace = orthogonal_iteration(small_k1.Xs, w0, sweeps=200)
        assert potential(ref, trace.final_frame) <= 1e-8


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """No C compiler on PATH: the synthesizer runs its numpy balancing."""
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="numpy steps and row balancing"):
        assert _native._library() is None


#: (eigenvalues, n, seed) instances whose synthesized bits must equal the
#: reference loop's
SYNTH_CASES = [
    ((2.0,), 3, 0),
    ((1.0, 0.7, 0.4), 10, 4),
    (spectrum_k1(d=12), 64, 5),
    (spectrum_k1(), 500, 1),
    (spectrum_k3(), 500, 1),
    (spectrum_k1(d=120), 700, 2),
    ((1.0,) * 8, 64, 3),  # equal norms: argmin/argmax meet exact ties
    ((1.0,), 128, 1),  # d=1; n a power of two fills the trees exactly
    ((2.0,), 129, 2),  # d=1; n one past a power of two: 127 pad leaves
    (spectrum_k1(d=17), 128, 7),
    (spectrum_k1(d=33), 129, 9),
    (spectrum_k1(d=300), 3000, 1),  # the oracle-d300 benchmark instance
]


class TestSynthesize:
    def test_round_trip_small(self):
        spec_req = SpectrumSpec(eigenvalues=(1.0, 0.7, 0.4))
        X = synthesize_dataset(spec_req, 10, seed=4)
        spec = dense_eigh(X)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 0.7, 0.4],
                                   atol=1e-10)

    def test_round_trip_gap(self):
        eigs = (1.0, 0.7, 0.1, 0.05)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), 12, seed=8)
        spec = dense_eigh(X)
        assert spec.gap_at(1) == pytest.approx(0.3, abs=1e-10)

    def test_round_trip_d50(self, std_k1):
        requested = np.asarray(std_k1.spec_req.eigenvalues)
        realized = std_k1.scale * std_k1.spectrum.eigenvalues
        np.testing.assert_allclose(realized, requested, atol=1e-10)

    def test_equal_column_norms(self):
        eigs = (1.0, 0.5, 0.25, 0.1)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), 16, seed=2)
        norms = np.einsum("ij,ij->j", X.data, X.data)
        np.testing.assert_allclose(norms, sum(eigs), rtol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DimensionMismatchError):
            synthesize_dataset(SpectrumSpec(eigenvalues=(0.0, 0.0)), 4, seed=0)

    def test_n_smaller_than_d_rejected(self):
        with pytest.raises(DimensionMismatchError):
            synthesize_dataset(SpectrumSpec(eigenvalues=(1.0, 0.5)), 1, seed=0)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SpectrumSpec(eigenvalues=(1.0, -0.1))

    @pytest.mark.parametrize("eigs, named", [
        ((math.nan,), "nan"), ((math.inf,), "inf"),
        ((math.inf, 1.0), "inf"), ((2.0, math.nan), "nan"),
        ((1.0, -math.inf), "-inf")])
    def test_non_finite_eigenvalue_rejected(self, eigs, named):
        # comparisons with NaN are false, so neither the sign nor the order
        # check would catch it
        with pytest.raises(DimensionMismatchError,
                           match=rf"non-finite eigenvalue {named} requested"):
            SpectrumSpec(eigenvalues=eigs)

    @pytest.mark.parametrize("eigs, k, message", [
        ((), 1, "empty spectrum"),
        ((0.5, 1.0), 1, "eigenvalues must be non-increasing"),
        ((1.0, 0.5), 0, "gap position k=0 out of range"),
        ((1.0, 0.5), 2, "gap position k=2 out of range"),
        ((1.0,), 2, "gap position k=2 out of range")])
    def test_malformed_spec_rejected(self, eigs, k, message):
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            SpectrumSpec(eigenvalues=eigs, k=k)

    @pytest.mark.parametrize("eigs, n", [((1e308,), 10),
                                         ((1e305, 1.0), 10**4)])
    def test_overflowing_scale_rejected_before_any_draw(self, monkeypatch,
                                                        eigs, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the scale")

        monkeypatch.setattr(np.random, "Philox", no_draw)
        named = re.escape(f"n * max eigenvalue = {n} * {eigs[0]} overflows")
        with pytest.raises(DimensionMismatchError, match=named):
            synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n, seed=0)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("eigs", [(1e300,), (1e200, 1e200)])
    def test_overflowing_balancing_rejected(self, request, path, eigs):
        # n * max(s) is finite, but the products of squared row norms in
        # the rotations overflow and leave inf and NaN rows behind
        if path == "numpy":
            request.getfixturevalue("no_compiler")
        named = re.escape(f"n * max eigenvalue = 10 * {eigs[0]} overflows "
                          "the row balancing")
        with pytest.raises(DimensionMismatchError, match=named):
            synthesize_dataset(SpectrumSpec(eigenvalues=eigs), 10, seed=0)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_large_finite_scale_still_balances(self, request, path):
        if path == "numpy":
            request.getfixturevalue("no_compiler")
        X = synthesize_dataset(SpectrumSpec(eigenvalues=(1e154,)), 10, seed=0)
        norms = np.einsum("ij,ij->j", X.data, X.data)
        np.testing.assert_allclose(norms, 1e154, rtol=1e-12)

    @pytest.mark.parametrize("eigs, n, seed", SYNTH_CASES)
    def test_matches_the_original_loop_bitwise(self, eigs, n, seed):
        # the compiled balancing wherever a compiler is present (test_kernel
        # asserts that it is loaded then)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n, seed)
        assert np.array_equal(X.data, synthesize_reference(eigs, n, seed))

    @pytest.mark.parametrize("eigs, n, seed", SYNTH_CASES)
    def test_numpy_fallback_matches_the_original_loop_bitwise(
            self, no_compiler, eigs, n, seed):
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n, seed)
        assert np.array_equal(X.data, synthesize_reference(eigs, n, seed))

    def test_deterministic(self):
        spec_req = SpectrumSpec(eigenvalues=(1.0, 0.3, 0.2))
        a = synthesize_dataset(spec_req, 8, seed=11)
        b = synthesize_dataset(spec_req, 8, seed=11)
        assert np.array_equal(a.data, b.data)


@pytest.fixture
def blas_count():
    """(get, set) of numpy's BLAS thread count, restored afterwards; skips
    where the helper finds no such functions."""
    pair = _native.blas_threads()
    if pair is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    saved = pair[0]()
    yield pair
    pair[1](saved)


@pytest.fixture
def fresh_lookups():
    """Clears _native's cached numpy.linalg lookups before the test and
    again after it, so that a lookup made under the test's patches, a
    None among them, never reaches a later test."""
    def clear():
        for lookup in (_native._numpy_linalg, _native.blas_threads,
                       _native._lapack_qr):
            lookup.cache_clear()

    clear()
    yield
    clear()


def count_opens(monkeypatch):
    """The paths ctypes.CDLL opens from now on, as a list."""
    opened = []
    cdll = _native.ctypes.CDLL
    monkeypatch.setattr(_native.ctypes, "CDLL",
                        lambda path: opened.append(path) or cdll(path))
    return opened


class TestOneBlasThread:
    def test_finds_the_bundled_openblas(self):
        # the speedup and the thread-free bits rest on this lookup; a numpy
        # upgrade that renames the library must fail here, not go quiet
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy is built on {blas.get('name')}")
        assert _native.blas_threads() is not None

    def test_lookup_opens_only_numpy_linalg(self, blas_count, monkeypatch,
                                            fresh_lookups):
        # the functions come from the handle of the module whose QR the
        # hold is for; no other file is opened
        opened = count_opens(monkeypatch)
        get, _ = _native.blas_threads()
        assert opened == [np.linalg._umath_linalg.__file__]
        assert get() == blas_count[0]()

    def test_no_exported_pair_runs_the_body_unheld(self, blas_count,
                                                   monkeypatch,
                                                   fresh_lookups):
        get, set_ = blas_count
        set_(2)
        monkeypatch.setattr(_native, "_BLAS_PAIRS",
                            (("vrpca_no_such_get", "vrpca_no_such_set"),))
        _native.blas_threads.cache_clear()
        assert _native.blas_threads() is None
        seen = []
        with _native.one_blas_thread():
            seen.append(get())
        assert seen == [2]
        assert get() == 2

    @pytest.mark.parametrize("eigs, n, seed", SYNTH_CASES)
    def test_same_bits_at_two_threads_and_one(self, blas_count, eigs, n,
                                              seed, monkeypatch):
        get, set_ = blas_count
        # the factorizations run in place wherever numpy exports the pair
        direct = []
        qr = _native.qr_in_place

        def spy(a):
            diag = qr(a)
            direct.append(diag is not None)
            return diag

        monkeypatch.setattr(_native, "qr_in_place", spy)
        out = []
        for count in (2, 1):
            set_(count)
            out.append(synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n,
                                          seed).data)
            assert get() == count
        assert np.array_equal(*out)
        assert direct == [_native._lapack_qr() is not None] * 4

    def test_count_restored_after_return_and_raise(self, blas_count,
                                                   monkeypatch):
        get, set_ = blas_count
        set_(2)
        seen = []
        balance = oracle._balance_rows
        monkeypatch.setattr(oracle, "_balance_rows",
                            lambda *a: seen.append(get()) or balance(*a))
        synthesize_dataset(SpectrumSpec(eigenvalues=(1.0, 0.5)), 10, seed=0)
        assert get() == 2
        with pytest.raises(DimensionMismatchError, match="row balancing"):
            synthesize_dataset(SpectrumSpec(eigenvalues=(1e300,)), 10, seed=0)
        assert get() == 2
        assert seen == [1, 1]

    def test_concurrent_callers_get_the_one_thread_bits(self, blas_count):
        get, set_ = blas_count
        original = get()
        eigs, n, seed = spectrum_k1(), 500, 1
        set_(1)
        expected = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n,
                                      seed).data
        set_(original)
        # more callers than cores, switching often: a lost update to the
        # depth count would restore the count while a caller is inside
        workers = 4
        barrier = threading.Barrier(workers)
        out = [None] * workers

        def synthesize(i):
            barrier.wait()
            out[i] = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n,
                                        seed).data

        threads = [threading.Thread(target=synthesize, args=(i,))
                   for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(x, expected) for x in out)
        assert get() == original


@pytest.fixture
def lapack_qr():
    """Skips where numpy's LAPACK exports no in-place QR pair, so that
    _native.qr_in_place returns None."""
    if _native.qr_in_place(np.ones((1, 1), order="F")) is None:
        pytest.skip("numpy.linalg resolves no dgeqrf/dorgqr pair")


class TestQrInPlace:
    def test_lookup_opens_only_numpy_linalg(self, lapack_qr, monkeypatch,
                                            fresh_lookups):
        # the pair comes from the handle of numpy.linalg's own QR; no other
        # file is opened
        opened = count_opens(monkeypatch)
        assert _native._lapack_qr() is not None
        assert opened == [np.linalg._umath_linalg.__file__]

    def test_both_lookups_share_one_handle(self, lapack_qr, monkeypatch,
                                           fresh_lookups):
        # the thread-count pair and the QR pair come from one handle,
        # opened once, however often either is asked for
        opened = count_opens(monkeypatch)
        for _ in range(2):
            assert _native.blas_threads() is not None
            assert _native._lapack_qr() is not None
        assert opened == [np.linalg._umath_linalg.__file__]

    @pytest.mark.parametrize("d, n", [(100, 20_000), (300, 3000)])
    def test_synthesis_peak_within_two_and_a_half_instances(self, lapack_qr,
                                                             d, n):
        # numpy reports its buffers to tracemalloc: the draws, their
        # column-major copies, B, the product and DataMatrix's copy; the
        # numpy.linalg.qr path read 5.04 and 5.41 instances here
        spec = SpectrumSpec(eigenvalues=spectrum_k1(d))
        synthesize_dataset(SpectrumSpec(eigenvalues=(1.0,)), 2, seed=0)
        tracemalloc.start()
        try:
            X = synthesize_dataset(spec, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * X.data.nbytes, peak / X.data.nbytes

