"""Seeded random streams, random initialization, the single-power-iteration
warm start, and numerical-rank computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DegenerateIterateError, DimensionMismatchError, _check_run
from .matrix import (DataMatrix, OrthonormalFrame, _check_dense, _check_r,
                     _dense_covariance, _polar, _products, polar_normalize)


#: purpose ids of _stream; 0 is the run stream
RUN_STREAM, BURN_IN_STREAM = 0, 1


def _stream(seed, purpose=RUN_STREAM, jump=0):
    """Generator(Philox(key=(seed, purpose))) jumped ``jump`` times: the
    one source of the library's random draws. ``seed`` must be an integer
    in [0, 2**64), so that the key's two 64-bit words are (seed, purpose);
    any other is refused with a ConfigError (errors._RANGES["seed"])
    before the draw.
    So every public call that draws refuses a seed of 1.5, True or "1"
    rather than drawing the stream of another seed.

    ====================  =====  ==========================================
    purpose               jump   draws
    ====================  =====  ==========================================
    RUN_STREAM = 0        0      column indices of vrpca_vector,
                                 vrpca_block and oja_baseline; the start
                                 of gaussian_init and power_warm_start
    RUN_STREAM = 0        j - 1  column indices of deflation stage j
    BURN_IN_STREAM = 1    0      column indices of burn_in
    ====================  =====  ==========================================

    The instance synthesizer and the geometry probes draw from purpose 0
    of their own seeds: synthesize_dataset (the synthesis seed),
    probe_strong_convexity, and geometry_report (its seed and seed + 2).

    Philox(key=seed) has the key words (seed, 0), so purpose 0 is the run
    stream keyed by the seed alone. The start and the solve both draw from
    its counter 0. That overlap is known and kept: moving the power warm
    start to a stream of its own dropped its alignment on the bign-file
    workload's data from 0.916 to 0.0068, and raised the samples to
    potential 1e-8 there from 400,000 to 600,000.
    """
    _check_run(seed=seed)
    gen = np.random.Philox(key=int(seed) + (purpose << 64))
    return np.random.Generator(gen.jumped(jump))


@dataclass(frozen=True)
class InitReport:
    """Outcome of the power warm start: the frame and its squared alignment
    with the reference leading eigenvector when one was supplied (k = 1
    only)."""

    frame: OrthonormalFrame
    alignment_sq: float | None = None


def _check_k(k, d):
    """Refuse a column count that is not of its errors._RANGES kind and
    range (ConfigError), and a frame of more columns than dimensions
    (DimensionMismatchError)."""
    _check_run(k=k)
    if k > d:
        raise DimensionMismatchError(f"k={k} exceeds d={d}")


def gaussian_init(d: int, k: int, seed: int) -> OrthonormalFrame:
    """Orthonormalized standard-Gaussian d x k frame (seeded, reproducible).
    A k that is not an integer >= 1, or above d, is refused (_check_k)
    before the draw."""
    _check_k(k, d)
    return polar_normalize(_stream(seed).standard_normal((d, k)))


def power_warm_start(X: DataMatrix, seed: int, k: int = 1,
                     reference: OrthonormalFrame | None = None) -> InitReport:
    """Gaussian draw followed by one exact application of the covariance
    operator, W0 = polar(A G) (w0 = A g / ||A g|| at k = 1); costs O(n d k).

    For k = 1 this boosts the expected squared alignment with the leading
    eigenvector from about 1/d to about 1/nrank(A). The k > 1 variant
    orthonormalizes A G for a Gaussian d x k matrix G; it is a natural
    extrapolation and is only guaranteed to satisfy the frame invariant.
    G is one d x k draw from the run stream _stream(seed).

    A k that is not an integer >= 1 raises ConfigError, and a k above X.d
    DimensionMismatchError, before the draw, as in gaussian_init. When A G
    has numerical rank < k (_polar's rule, relative to the scale of A G)
    it raises DegenerateIterateError. Short of a null set of draws, that
    happens only when A itself has rank < k (all-zero data included), so
    no second draw is made.

    Given a ``reference`` (and d <= DENSE_GUARD) A is applied from the
    covariance memo X.covariance(), as the solvers do, so the start makes
    no data pass; without one it streams X (X^T g) / n. The two agree to
    rounding.
    """
    _check_k(k, X.d)
    g = _stream(seed).standard_normal((X.d, k))
    ag = _products(X, g, _dense_covariance(X, reference))
    try:
        frame = OrthonormalFrame(_polar(ag))
    except DegenerateIterateError as exc:
        raise DegenerateIterateError(
            f"power warm start: A G has numerical rank < {k} ({exc})"
        ) from None

    return InitReport(frame=frame,
                      alignment_sq=_alignment_sq(frame, reference))


def _alignment_sq(frame, reference):
    """The squared alignment (w^T v_1)^2 of a k = 1 start ``frame`` with
    the ``reference`` eigenvector v_1; None without a reference or at
    k >= 2. InitReport.alignment_sq, and the report's init_alignment_sq
    for either start."""
    if reference is None or frame.k != 1:
        return None
    return float((reference.column(0) @ frame.column(0)) ** 2)


def numerical_rank(X: DataMatrix) -> float:
    """||A||_F^2 / ||A||_sp^2 for A = (1/n) X X^T.

    Computed from the eigenvalues of the smaller-side Gram matrix: A
    itself, from X's covariance memo, when n >= d, else (1/n) X^T X, which
    shares the nonzero spectrum of A, so the d x d covariance is never
    formed when n < d. Both Grams and the eigensolve run with numpy's
    BLAS held at one thread (_native.one_blas_thread): the result does not
    follow the thread count, and no call leaves OpenBLAS's idle worker
    spinning. Refuses min(d, n) > DENSE_GUARD, and data whose
    largest squared column norm overflows (matrix._check_r). Always in
    [1, rank(A)].
    """
    _check_dense(min(X.d, X.n),
                 "numerical_rank forms a min(d, n)-square Gram matrix")
    with _native.one_blas_thread():
        if X.n < X.d:
            _check_r(X, "form the Gram matrix")
            m = X.data.T @ X.data / X.n
        else:
            m = X.covariance()
        evals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    sp = float(evals[-1])
    if sp <= 0.0:
        raise DegenerateIterateError("numerical rank of an all-zero matrix")
    return float(np.sum(evals * evals) / sp**2)
