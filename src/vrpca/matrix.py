"""Dense matrix core: column-major data storage, polar
orthonormalization, Procrustes alignment, the subspace metrics shared by
every solver, and every pass the library makes over a data matrix but
numerical_rank's Gram for n < d. Each of those passes is one
_native.column_pass here: the column norms, the covariance memo, the
products A W and X^T W (_products) and a deflation stage's projected
copy (_projected). The memo's own d x d products, A W and a stage's P A,
run on one BLAS thread as the passes' blocks do."""

from __future__ import annotations

import threading

import numpy as np

from . import _native
from .errors import DegenerateIterateError, DimensionMismatchError

#: max-entry tolerance for the orthonormal-columns invariant
ORTHO_TOL = 1e-10
#: relative rank tolerance of _polar: a k >= 2 Gram matrix whose minimum
#: eigenvalue is at most this times its maximum is treated as singular
GRAM_MIN_EIG = 1e-12
#: the d x d covariance is formed only up to this dimension (d^2 doubles,
#: 32 MB at the guard); past it the solvers apply the operator implicitly
DENSE_GUARD = 2000

# one lock for every matrix's covariance memo: a lock held by each
# DataMatrix would make it unpicklable
_cov_lock = threading.Lock()


def _as_2d(a, name):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def _column_norms(arr):
    """The squared Euclidean norms of the columns of the 2-D ``arr``, in
    one column_pass."""
    out = np.empty(arr.shape[1])
    _native.column_pass(
        lambda b, cols: np.einsum("ij,ij->j", b, b, out=out[cols]), arr)
    return out


def _check_dense(d, instead):
    """Refuse to form a d x d matrix past DENSE_GUARD; ``instead`` says
    what to use at that scale."""
    if d > DENSE_GUARD:
        raise DimensionMismatchError(
            f"d={d} exceeds the dense guard ({DENSE_GUARD}); {instead}")


class DataMatrix:
    """Immutable d x n store of n data points in d dimensions.

    The points are the columns; storage is column-major so that single
    columns are contiguous, and aligned so that every product with it runs
    in BLAS (a misaligned buffer is copied once here). An aligned
    column-major float64 buffer is kept as it is, without a copy, and made
    read-only: ``load_dataset`` hands over a view of a read-only file
    mapping this way, which then lives as long as the matrix. The maximum
    squared Euclidean column norm is computed once from the stored columns
    and cached as ``r``.

    The column norms double as the finiteness check: a NaN or an infinite
    entry makes its column's squared norm NaN or inf, so the entries are
    scanned only when some norm is not finite. A column of finite entries
    whose squared norm overflows is accepted, with r = inf; forming a Gram
    matrix of it (``covariance()``, numerical_rank) or rescaling it is
    then refused with a DegenerateIterateError naming the column.

    ``covariance()`` forms A = X X^T / n, the uncentered second moment of
    the data, on its first call (d <= DENSE_GUARD only) and keeps it: the
    oracle eigendecomposes it, and a solve given a reference frame applies
    A as A @ W instead of streaming X twice.

    The norm pass and the memo run in _native.column_pass: fixed column
    blocks on one BLAS thread each, spread over the threads that
    OPENBLAS_NUM_THREADS allows. A is the sum of the block Grams
    X_b X_b^T in block order, divided by n, so its bits depend on (d, n)
    and the data alone, not on the thread count.
    """

    __slots__ = ("data", "d", "n", "r", "_cov")

    def __init__(self, columns):
        arr = np.require(np.asarray(columns, dtype=np.float64),
                         requirements=["F", "A"])
        if arr.ndim != 2:
            raise DimensionMismatchError(f"data must be 2-D, got shape {arr.shape}")
        d, n = arr.shape
        if d < 1 or n < 1:
            raise DimensionMismatchError(f"empty data matrix (shape {arr.shape})")
        norms = _column_norms(arr)
        if not np.isfinite(norms).all() and not np.isfinite(arr).all():
            raise DimensionMismatchError("data matrix contains non-finite entries")
        arr.flags.writeable = False
        self.data = arr
        self.d = d
        self.n = n
        self.r = float(np.max(norms))
        self._cov = None

    def covariance(self):
        """The read-only d x d covariance A = X X^T / n, the uncentered
        second moment (the data are not centered), formed once (under a
        lock, so concurrent callers share one) and kept for the life of
        this matrix; it costs d^2 doubles. Refused for d > DENSE_GUARD, and
        for r = inf (_check_r)."""
        _check_dense(self.d, "use the iterative solvers at this scale")
        _check_r(self, "form the covariance")
        if self._cov is not None:
            return self._cov
        with _cov_lock:
            if self._cov is None:
                cov = _native.column_pass(
                    lambda b, _, out: np.matmul(b, b.T, out=out), self.data,
                    work=self.d, shape=(self.d, self.d))
                cov /= self.n
                cov.flags.writeable = False
                self._cov = cov
        return self._cov

    def __repr__(self):
        return f"DataMatrix(d={self.d}, n={self.n}, r={self.r:.6g})"


def _check_r(X, action):
    """Refuse to ``action`` data whose largest squared column norm
    overflows (r = inf), naming the first such column."""
    if np.isfinite(X.r):
        return
    norms = _column_norms(X.data)
    j = int(np.flatnonzero(~np.isfinite(norms))[0])
    raise DegenerateIterateError(
        f"cannot {action}: the squared norm of column {j} overflows to "
        f"{norms[j]} (largest entry {np.max(np.abs(X.data[:, j])):.3e})")


def _deviation(arr):
    """max |W^T W - I| of a raw d x k array: the orthonormality invariant
    that frames and solver iterates are held to (ORTHO_TOL)."""
    g = arr.T @ arr
    g.flat[::g.shape[0] + 1] -= 1.0  # the diagonal, in place
    return float(np.max(np.abs(g, out=g)))


class OrthonormalFrame:
    """A d x k matrix with orthonormal columns, validated at construction."""

    __slots__ = ("entries", "d", "k")

    def __init__(self, entries):
        arr = _as_2d(entries, "frame")
        d, k = arr.shape
        if not 1 <= k <= d:
            raise DimensionMismatchError(f"frame needs 1 <= k <= d, got d={d}, k={k}")
        # checked on the column-major copy: W^T W of a contiguous array
        # is one syrk, of a strided view (dense_eigh's reversed
        # eigenvectors) a copy of each operand and a full gemm
        arr = arr.copy(order="F")
        dev = _deviation(arr)
        if not dev <= ORTHO_TOL:
            raise DimensionMismatchError(
                f"columns are not orthonormal: max |W^T W - I| = {dev:.3e}")
        arr.flags.writeable = False
        self.entries = arr
        self.d = d
        self.k = k

    def column(self, j):
        return self.entries[:, j]

    def __repr__(self):
        return f"OrthonormalFrame(d={self.d}, k={self.k})"


def _raw(a):
    """Unwrap a frame to its plain array; pass arrays through."""
    if isinstance(a, OrthonormalFrame):
        return a.entries
    return np.asarray(a, dtype=np.float64)


def covariance_apply(X: DataMatrix, W):
    """Apply A = (1/n) X X^T, the uncentered second moment of the data, to
    W without forming it: _products(X, W), one streamed pass in O(n d k)
    whose bits do not depend on the BLAS thread count. Accepts a vector
    or a d x k array/frame and preserves the input's dimensionality.
    """
    arr = _raw(W)
    if arr.shape[0] != X.d:
        raise DimensionMismatchError(
            f"operand has {arr.shape[0]} rows, data dimension is {X.d}")
    return _products(X, arr)


def _polar(arr):
    """Polar orthonormalization W (W^T W)^{-1/2} on a raw d x k array; the
    one place where a frame is judged to lack full rank.

    For k = 1 this is exactly division by the Euclidean norm, and raises
    DegenerateIterateError unless ||w||^2 lies in (0, inf). For k >= 2 the
    k x k Gram matrix is eigendecomposed, and it raises unless its minimum
    eigenvalue exceeds GRAM_MIN_EIG times its maximum (NaN fails too):
    numerical rank < k relative to the array's own scale, so W and c W are
    judged alike. A Gram condition number past 1e3 triggers one refinement
    pass so the output meets the orthonormality invariant. A candidate
    that is tiny but well conditioned passes; the step functions judge
    collapse on their own, against an absolute norm floor.
    """
    k = arr.shape[1]
    if k == 1:
        nrm2 = float(arr[:, 0] @ arr[:, 0])
        if not 0.0 < nrm2 < np.inf:
            raise DegenerateIterateError(
                f"degenerate iterate: squared norm {nrm2:.3e}")
        return arr / np.sqrt(nrm2)
    evals, evecs = np.linalg.eigh(arr.T @ arr)
    if not evals[0] > GRAM_MIN_EIG * evals[-1]:
        raise DegenerateIterateError(
            f"degenerate iterate: Gram matrix min eigenvalue {evals[0]:.3e}, "
            f"max {evals[-1]:.3e}")
    out = arr @ ((evecs / np.sqrt(evals)) @ evecs.T)
    if evals[0] < 1e-3 * evals[-1]:
        evals, evecs = np.linalg.eigh(out.T @ out)
        out = out @ ((evecs / np.sqrt(evals)) @ evecs.T)
    return out


def polar_normalize(Wp) -> OrthonormalFrame:
    """Project a full-column-rank d x k matrix onto the nearest orthonormal
    frame, W' (W'^T W')^{-1/2}.

    Raises DegenerateIterateError when W' has numerical rank < k relative
    to its scale (see _polar): at k = 1 a zero or non-finite norm, at
    k >= 2 a Gram min eigenvalue <= GRAM_MIN_EIG times the max. Scaling W'
    changes the result only by rounding.
    """
    return OrthonormalFrame(_polar(_as_2d(_raw(Wp), "input")))


def _procrustes(c, d):
    """The raw k x k rotation B = V U^T minimizing ||C - D B||_F, where
    U S V^T is an SVD of C^T D."""
    u, _, vt = np.linalg.svd(c.T @ d)
    return vt.T @ u.T


def procrustes_rotation(C: OrthonormalFrame,
                        D: OrthonormalFrame) -> np.ndarray:
    """The orthogonal k x k matrix B minimizing ||C - D B||_F, as an array.

    B = V U^T where U S V^T is an SVD of C^T D. Any valid SVD yields the
    same objective value, so ties from repeated singular values are benign.
    """
    if C.d != D.d or C.k != D.k:
        raise DimensionMismatchError(
            f"frames disagree: ({C.d},{C.k}) vs ({D.d},{D.k})")
    return _procrustes(C.entries, D.entries)


def _potential(v, w):
    """potential() of raw arrays: the squared Frobenius norm of the part
    of ``w`` outside span(v)."""
    resid = w - v @ (v.T @ w)
    return float(np.einsum("ij,ij->", resid, resid))


def potential(V: OrthonormalFrame, W: OrthonormalFrame) -> float:
    """Subspace distance k - ||V^T W||_F^2 between two orthonormal frames.

    Evaluated as the squared norm of the component of W outside span(V),
    which is the same quantity but avoids cancellation near zero. Lies in
    [0, k]; zero exactly when the column spaces coincide.
    """
    if V.d != W.d or V.k != W.k:
        raise DimensionMismatchError(
            f"frames disagree: ({V.d},{V.k}) vs ({W.d},{W.k})")
    return _potential(V.entries, W.entries)


def rayleigh_residual(X: DataMatrix, W: OrthonormalFrame) -> float:
    """||A W - W (W^T A W)||_F with A = (1/n) X X^T applied implicitly.

    Zero exactly when the columns of W span an invariant subspace of the
    covariance operator; used as the oracle-free convergence diagnostic.
    """
    return _residual(W.entries, covariance_apply(X, W.entries))


def _dense_covariance(X: DataMatrix, reference):
    """X.covariance() when the call was given a ``reference`` frame and
    d <= DENSE_GUARD, else None: the one rule by which a solve applies A
    from the memo (cov @ W) rather than streaming X (X^T W) / n. It reads
    only the call's inputs, so a run's bits never depend on which call
    formed the memo."""
    if reference is None or X.d > DENSE_GUARD:
        return None
    return X.covariance()


def _products(X: DataMatrix, w, cov=None, a=None):
    """A w for A = X X^T / n, the uncentered second moment: cov @ w from
    the covariance memo ``cov`` (see _dense_covariance), on one BLAS
    thread (_native.one_blas_thread), else
    (1/n) sum_b X_b (X_b^T w) over the column blocks X_b of one summing
    _native.column_pass, summed in block order, so the bits do not depend
    on the BLAS thread count. Given an n x k array ``a``, it also writes
    X^T w into it: with the memo in a pass of its own (the anchor
    gradient's a), without it in the same pass, each block read once for
    both X_b^T w and X_b (X_b^T w). Without the memo X^T w goes into
    ``a`` even when none is given, then allocated here, so that the pass
    threads allocate nothing."""
    def xtw(b, cols):  # X_b^T w, written into a's rows
        return np.matmul(b.T, w, out=a[cols])

    if cov is not None:
        if a is not None:
            _native.column_pass(xtw, X.data)
        with _native.one_blas_thread():
            return cov @ w
    if a is None:
        a = np.empty((X.n, *w.shape[1:]))
    # np.dot, not @: numpy's matmul holds the interpreter lock for the
    # transposed block b, so pass threads running it would take turns
    return _native.column_pass(
        lambda b, cols, out: np.dot(b, xtw(b, cols), out=out), X.data,
        shape=w.shape) / X.n


def _projected(X: DataMatrix, cov, basis):
    """A deflation stage's data and memo: with P = I - B B^T for an
    orthonormal ``basis`` B, the copy P X as a new DataMatrix (d x n
    doubles, built F-ordered) and P A = cov - B (B^T cov), formed on one
    BLAS thread (_native.one_blas_thread), None without the memo ``cov``.
    For a w~ in the complement of B, (P A) w~ is the copy's covariance
    applied, P A P w~. (X, cov) itself when B is None.
    The copy is made in one _native.column_pass, each block's rows of
    X^T - (X^T B) B^T written in place into the copy's own storage."""
    if basis is None:
        return X, cov
    copy = np.empty((X.d, X.n), order="F")

    def block(b, cols):
        rows = copy[:, cols].T
        np.matmul(b.T @ basis, basis.T, out=rows)
        np.subtract(b.T, rows, out=rows)

    _native.column_pass(block, X.data, work=2 * basis.shape[1])
    if cov is not None:
        with _native.one_blas_thread():
            cov = cov - basis @ (basis.T @ cov)
    return DataMatrix(copy), cov


def _residual(w, aw):
    """rayleigh_residual of the raw d x k frame ``w`` from a product
    aw = A w already computed."""
    return float(np.linalg.norm(aw - w @ (w.T @ aw)))


def rescale_dataset(X: DataMatrix):
    """Divide every column by sqrt(r) so the rescaled max norm is 1.

    Returns (rescaled DataMatrix, scale) where scale is the original r.
    A solver running on the rescaled data is equivalent to the original
    run with the step size multiplied by the scale and the eigengap
    divided by it.

    Raises DegenerateIterateError for all-zero data, and for data whose
    largest squared column norm overflows (r = inf), which dividing by
    sqrt(r) would turn into zeros.
    """
    if X.r <= 0.0:
        raise DegenerateIterateError("cannot rescale an all-zero dataset")
    _check_r(X, "rescale")
    return DataMatrix(X.data / np.sqrt(X.r)), X.r
