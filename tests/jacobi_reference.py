"""Cyclic Jacobi eigendecomposition, kept on the test side as a reference
that shares no code with LAPACK: the tests cross-check ``dense_eigh``
against it."""

import numpy as np

from vrpca import DimensionMismatchError, NonConvergenceError


def _round_robin(d):
    """Tournament schedule: d-1 rounds of disjoint pivot pairs covering every
    (p, q) exactly once per sweep. Returns a list of (p, q) index arrays."""
    players = list(range(d)) if d % 2 == 0 else list(range(d)) + [-1]
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        ps, qs = [], []
        for i in range(half):
            a, b = players[i], players[-1 - i]
            if a >= 0 and b >= 0:
                ps.append(a)
                qs.append(b)
        rounds.append((np.asarray(ps), np.asarray(qs)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_eigh(A, tol=1e-12, max_sweeps=64, track_off=False):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate all off-diagonal pivots once (in round-robin order, so
    disjoint pivots within a round are applied as one orthogonal transform)
    until the off-diagonal Frobenius norm falls below tol * ||A||_F.

    Returns (eigenvalues desc, eigenvectors column-matched, off_history)
    where off_history is per-sweep off-diagonal norms when track_off is set,
    else None.
    """
    A = np.array(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {A.shape}")
    d = A.shape[0]
    V = np.eye(d)
    norm_f = float(np.linalg.norm(A))
    history = [] if track_off else None
    if d == 1 or norm_f == 0.0:
        evals = np.diag(A).astype(float).copy()
        order = np.argsort(evals)[::-1]
        return evals[order], V[:, order], history

    rounds = _round_robin(d)
    off_part = np.empty_like(A)
    for _ in range(max_sweeps):
        # off-diagonal norm taken directly (a sum-minus-diagonal form would
        # cancel catastrophically near convergence)
        np.copyto(off_part, A)
        np.fill_diagonal(off_part, 0.0)
        off = float(np.linalg.norm(off_part))
        if track_off:
            history.append(off)
        if off <= tol * norm_f:
            break
        for p, q in rounds:
            apq = A[p, q]
            active = apq != 0.0
            if not np.any(active):
                continue
            app = A[p, p]
            aqq = A[q, q]
            # stable rotation angles (tau = cot(2 theta)); tau^2 overflowing
            # to inf gives the correct t -> 0 limit for negligible pivots
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(tau == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c = np.where(active, c, 1.0)
            s = np.where(active, s, 0.0)
            cols_p = A[:, p]
            cols_q = A[:, q]
            A[:, p] = c * cols_p - s * cols_q
            A[:, q] = s * cols_p + c * cols_q
            rows_p = A[p, :]
            rows_q = A[q, :]
            A[p, :] = c[:, None] * rows_p - s[:, None] * rows_q
            A[q, :] = s[:, None] * rows_p + c[:, None] * rows_q
            # pivots are zeroed exactly by the angle choice
            A[p, q] = 0.0
            A[q, p] = 0.0
            vp = V[:, p]
            vq = V[:, q]
            V[:, p] = c * vp - s * vq
            V[:, q] = s * vp + c * vq
    else:
        raise NonConvergenceError(
            f"Jacobi did not reach off-diagonal {tol:.1e} * ||A||_F "
            f"within {max_sweeps} sweeps")

    evals = np.diag(A).copy()
    order = np.argsort(evals, kind="stable")[::-1]
    return evals[order], V[:, order], history
