"""Exact desk-scale reference: dense symmetric eigendecomposition of the
covariance (LAPACK, through numpy.linalg.eigh), spectrum/eigengap
extraction, and a controlled-spectrum dataset synthesizer."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _native
from ._native import _sum8
from .errors import DimensionMismatchError, GapWarning
from .initialization import _stream
from .matrix import DataMatrix, OrthonormalFrame, _check_dense


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of the covariance operator, sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: OrthonormalFrame

    @property
    def d(self):
        return self.eigenvalues.size

    def gap_at(self, k: int) -> float:
        """s_k - s_{k+1} (1-based k, valid for 1 <= k < d)."""
        if not 1 <= k < self.d:
            raise DimensionMismatchError(f"gap index {k} outside [1, {self.d - 1}]")
        return float(self.eigenvalues[k - 1] - self.eigenvalues[k])


def dense_eigh(X: DataMatrix) -> Spectrum:
    """Eigendecompose A = (1/n) X X^T with LAPACK's symmetric solver
    (numpy.linalg.eigh).

    A is X.covariance(), the matrix's memo, which this call forms if no
    earlier call has; a solve on the same X given a reference frame then
    applies A from that memo. Desk-scale reference only: refuses
    d > DENSE_GUARD (2000). Eigenvalues come back in descending order, each
    eigenvector column matched to its eigenvalue.
    """
    # guarded here as well, so that the refusal never touches X's data
    _check_dense(X.d, "use the iterative solvers at this scale")
    evals, evecs = np.linalg.eigh(X.covariance())
    return Spectrum(eigenvalues=evals[::-1].copy(),
                    eigenvectors=OrthonormalFrame(evecs[:, ::-1]))


def leading_subspace(spec: Spectrum, k: int) -> OrthonormalFrame:
    """First k eigenvectors; warns when the eigengap at k is (near) zero,
    in which case the subspace is not unique."""
    if not 1 <= k <= spec.d:
        raise DimensionMismatchError(f"k={k} outside [1, {spec.d}]")
    if k < spec.d:
        gap = spec.gap_at(k)
        scale = max(abs(float(spec.eigenvalues[0])), 1.0)
        if gap <= 1e-10 * scale:
            warnings.warn(
                f"eigengap at k={k} is {gap:.3e}; the leading subspace "
                "is not unique", GapWarning, stacklevel=2)
    return OrthonormalFrame(spec.eigenvectors.entries[:, :k])


@dataclass(frozen=True)
class SpectrumSpec:
    """Synthetic-data recipe: requested eigenvalues (descending) and the
    position k whose eigengap the instance is built to exercise."""

    eigenvalues: tuple
    k: int = 1

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", vals)
        if len(vals) < 1:
            raise DimensionMismatchError("empty spectrum")
        bad = next((v for v in vals if not math.isfinite(v)), None)
        if bad is not None:
            raise DimensionMismatchError(f"non-finite eigenvalue {bad} requested")
        if any(v < 0.0 for v in vals):
            raise DimensionMismatchError("negative eigenvalues requested")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise DimensionMismatchError("eigenvalues must be non-increasing")
        if not 1 <= self.k < max(len(vals), 2):
            raise DimensionMismatchError(f"gap position k={self.k} out of range")


def _balance_rows_numpy(b, norms, tau, tol):
    """Reference for _balance_rows, one interpreted rotation at a time, in
    the compiled loop's arithmetic and order: the same bits."""
    d = b.shape[1]
    # Python-float scalars, bound methods and reused row buffers: the same
    # IEEE operations in the same order as fresh numpy temporaries
    argmin, argmax = norms.argmin, norms.argmax
    bi, bj, tmp = np.empty(d), np.empty(d), np.empty(d)
    for _ in range(b.shape[0]):
        i = int(argmin())
        j = int(argmax())
        lo, hi = float(norms[i]), float(norms[j])
        if hi - lo <= tol:
            break
        row_i, row_j = b[i], b[j]
        cross = _sum8(row_i * row_j)
        root = math.sqrt(max(cross * cross - (lo - tau) * (hi - tau), 0.0))
        # pick the larger-magnitude root for numerical stability
        t1 = (cross + root) / (hi - tau)
        t2 = (cross - root) / (hi - tau)
        t = t1 if abs(t1) >= abs(t2) else t2
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        np.subtract(np.multiply(row_i, c, out=bi),
                    np.multiply(row_j, s, out=tmp), out=bi)
        np.add(np.multiply(row_i, s, out=bj),
               np.multiply(row_j, c, out=tmp), out=bj)
        row_i[:] = bi
        row_j[:] = bj
        norms[i] = _sum8(bi * bi)
        norms[j] = _sum8(bj * bj)


def _balance_rows(b, norms, tau, tol):
    """Balance the rows of the C-ordered n x d array ``b`` in place, with
    ``norms`` their squared norms (kept up to date): at most n Givens
    rotations, each turning the row of least norm and the row of greatest
    norm (the first of each, as argmin and argmax pick) in their plane so
    that the first lands on ``tau``, until the spread of norms is at most
    ``tol``. Rotations keep b^T b.
    """
    if not _native.balance_rows(b, norms, tau, tol):
        _balance_rows_numpy(b, norms, tau, tol)


def synthesize_dataset(spec: SpectrumSpec, n: int, seed: int) -> DataMatrix:
    """Build X = Q diag(sqrt(n s)) R^T so that (1/n) X X^T has exactly the
    requested spectrum.

    Q is a random d x d orthogonal matrix from a seeded Gaussian QR; R is a
    random n x d orthonormal set whose rows are then norm-balanced with
    Givens rotations, which makes every column norm of X equal to the trace
    of the spectrum (so the realized r is the smallest possible).
    Requires n >= d, and n times the largest eigenvalue finite: the scaled
    rows' squared norms reach it. Rows the balancing leaves non-finite, as
    its products of those norms overflow, are refused.

    The output bits define every instance. They may depend on the BLAS
    build only through the two QR factorizations and the product Q B^T,
    which run with numpy's OpenBLAS held at one thread (so not on the
    caller's thread count, wherever _native.blas_threads resolves that
    library's thread-count functions through numpy.linalg's own handle):
    the balancing sums every dot product in the compiled kernel's fixed
    order, compiled or not.
    """
    eigs = np.asarray(spec.eigenvalues, dtype=np.float64)
    d = eigs.size
    if n < d:
        raise DimensionMismatchError(f"need n >= d, got n={n}, d={d}")
    if not np.any(eigs > 0.0):
        raise DimensionMismatchError("all-zero spectrum requested")
    top = float(eigs.max())
    if not math.isfinite(n * top):
        raise DimensionMismatchError(
            f"n * max eigenvalue = {n} * {top} overflows a double")

    with _native.one_blas_thread():
        rng = _stream(seed)
        gq = rng.standard_normal((d, d))
        q, rq = np.linalg.qr(gq)
        q = q * np.sign(np.diag(rq))
        gr = rng.standard_normal((n, d))
        r0, rr = np.linalg.qr(gr)
        r0 = r0 * np.sign(np.diag(rr))

        # rows of B are the (scaled) data points; balance their norms to the
        # common value tau without touching B^T B = diag(n s)
        b = np.ascontiguousarray(r0 * np.sqrt(n * eigs))
        tau = float(eigs.sum())
        norms = np.einsum("ij,ij->i", b, b)
        _balance_rows(b, norms, tau, 1e-13 * max(tau, 1.0))
        if not np.all(np.isfinite(norms)):
            raise DimensionMismatchError(
                f"n * max eigenvalue = {n} * {top} overflows the row "
                "balancing")
        return DataMatrix(q @ b.T)
