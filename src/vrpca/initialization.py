"""Seeded random streams, random initialization, the single-power-iteration
warm start, and numerical-rank computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateIterateError, DimensionMismatchError
from .matrix import (DataMatrix, OrthonormalFrame, _check_dense,
                     _dense_covariance, covariance_apply, polar_normalize)


#: purpose ids of _stream; 0 is the run stream
RUN_STREAM, BURN_IN_STREAM = 0, 1


def _stream(seed, purpose=RUN_STREAM, jump=0):
    """Generator(Philox(key=(seed, purpose))) jumped ``jump`` times: the
    one source of the solve path's random draws. ``seed`` must lie in
    [0, 2**64), so that the key's two 64-bit words are (seed, purpose).

    ====================  =====  ==========================================
    purpose               jump   draws
    ====================  =====  ==========================================
    RUN_STREAM = 0        0      column indices of vrpca_vector,
                                 vrpca_block and oja_baseline; the start
                                 of gaussian_init and power_warm_start
    RUN_STREAM = 0        j - 1  column indices of deflation stage j
    RUN_STREAM = 0        a      retry a of power_warm_start
    BURN_IN_STREAM = 1    0      column indices of burn_in
    ====================  =====  ==========================================

    Philox(key=seed) has the key words (seed, 0), so purpose 0 is the run
    stream keyed by the seed alone. The start and the solve both draw from
    its counter 0. That overlap is known and kept: moving the power warm
    start to a stream of its own dropped its alignment on the bign-file
    workload's data from 0.916 to 0.0068, and raised the samples to
    potential 1e-8 there from 400,000 to 600,000.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    gen = np.random.Philox(key=int(seed) + (purpose << 64))
    return np.random.Generator(gen.jumped(jump))


@dataclass(frozen=True)
class InitReport:
    """Outcome of the power warm start: the frame and its squared alignment
    with the reference leading eigenvector when one was supplied (k = 1
    only)."""

    frame: OrthonormalFrame
    alignment_sq: float | None = None


def gaussian_init(d: int, k: int, seed: int) -> OrthonormalFrame:
    """Orthonormalized standard-Gaussian d x k frame (seeded, reproducible)."""
    if k > d:
        raise DimensionMismatchError(f"k={k} exceeds d={d}")
    return polar_normalize(_stream(seed).standard_normal((d, k)))


def power_warm_start(X: DataMatrix, seed: int, k: int = 1,
                     reference: OrthonormalFrame | None = None) -> InitReport:
    """Gaussian draw followed by one exact application of the covariance
    operator, w0 = A w / ||A w||; costs O(n d k).

    For k = 1 this boosts the expected squared alignment with the leading
    eigenvector from about 1/d to about 1/nrank(A). The k > 1 variant
    orthonormalizes A G for a Gaussian d x k matrix G; it is a natural
    extrapolation and is only guaranteed to satisfy the frame invariant.

    If the draw lands in the kernel of A (A w = 0), the run stream jumped
    once more is tried (see _stream), at most 8 retries.

    Given a ``reference`` (and d <= DENSE_GUARD) A is applied from the
    covariance memo X.covariance(), as the solvers do, so the start makes
    no data pass; without one it streams X (X^T w) / n. The two agree to
    rounding.
    """
    cov = _dense_covariance(X, reference)
    frame = None
    for attempt in range(9):
        g = _stream(seed, jump=attempt).standard_normal((X.d, k) if k > 1
                                                         else X.d)
        ag = covariance_apply(X, g) if cov is None else cov @ g
        if k == 1:
            nrm = float(np.linalg.norm(ag))
            if nrm > 0.0:
                frame = OrthonormalFrame(ag[:, None] / nrm)
                break
        else:
            try:
                frame = polar_normalize(ag)
                break
            except DegenerateIterateError:
                continue
    if frame is None:
        raise DegenerateIterateError(
            "power warm start drew only kernel vectors after 8 retries")

    alignment = None
    if reference is not None and k == 1:
        v1 = reference.column(0)
        alignment = float((v1 @ frame.column(0)) ** 2)
    return InitReport(frame=frame, alignment_sq=alignment)


def numerical_rank(X: DataMatrix) -> float:
    """||A||_F^2 / ||A||_sp^2 for A = (1/n) X X^T.

    Computed from the eigenvalues of the smaller-side Gram matrix: A
    itself, from X's covariance memo, when n >= d, else (1/n) X^T X, which
    shares the nonzero spectrum of A, so the d x d covariance is never
    formed when n < d. Refuses min(d, n) > DENSE_GUARD. Always in
    [1, rank(A)].
    """
    _check_dense(min(X.d, X.n),
                 "numerical_rank forms a min(d, n)-square Gram matrix")
    if X.n < X.d:
        m = X.data.T @ X.data / X.n
    else:
        m = X.covariance()
    evals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    sp = float(evals[-1])
    if sp <= 0.0:
        raise DegenerateIterateError("numerical rank of an all-zero matrix")
    return float(np.sum(evals * evals) / sp**2)
