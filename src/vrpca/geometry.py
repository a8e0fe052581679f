"""Geometry of the negative Rayleigh quotient F(w) = -w^T A w / ||w||^2:
closed-form gradient and Hessian, a non-convexity certificate, the
constructive convexity region on the tangent hyperplane, a sampled
strong-convexity probe, and the tightness counterexample."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import (_RANGES, _REAL, ConfigError, DimensionMismatchError,
                     _check, _check_run)
from .initialization import _stream
from .matrix import DataMatrix, _check_dense, covariance_apply
from .oracle import Spectrum


def _vec(w, d):
    arr = np.asarray(w, dtype=np.float64).reshape(-1)
    if arr.size != d:
        raise DimensionMismatchError(f"vector has size {arr.size}, expected {d}")
    nrm2 = float(arr @ arr)
    if nrm2 == 0.0:
        raise ConfigError("the Rayleigh quotient is undefined at the zero vector")
    return arr, nrm2


def rayleigh(X: DataMatrix, w) -> float:
    """F(w) = -w^T A w / ||w||^2 with A applied implicitly; scale-invariant."""
    arr, nrm2 = _vec(w, X.d)
    return float(-(arr @ covariance_apply(X, arr)) / nrm2)


def rayleigh_grad(X: DataMatrix, w) -> np.ndarray:
    """Closed-form gradient -(2/||w||^2)(F(w) w + A w).

    Its norm is at most 4 outside the unit ball when ||A||_sp <= 1.
    """
    arr, nrm2 = _vec(w, X.d)
    aw = covariance_apply(X, arr)
    f = -(arr @ aw) / nrm2
    return -(2.0 / nrm2) * (f * arr + aw)


def rayleigh_hessian(X: DataMatrix, w) -> np.ndarray:
    """Closed-form Hessian -(1/||w||^2) (M + M^T) with
    M = (I - (4/||w||^2) w w^T)(F(w) I + A); symmetric by construction.

    Reads the d x d covariance memo (X.covariance()), so it is guarded at
    d <= DENSE_GUARD; use directional_curvature for larger problems. Its
    products A w and w^T (F I + A) run on one BLAS thread
    (_native.one_blas_thread), so the Hessian does not follow the thread
    count.
    """
    _check_dense(X.d, "use directional_curvature instead")
    arr, nrm2 = _vec(w, X.d)
    a = X.covariance()
    with _native.one_blas_thread():
        aw = a @ arr
        f = -(arr @ aw) / nrm2
        fia = f * np.eye(X.d) + a
        m = fia - (4.0 / nrm2) * np.outer(arr, arr @ fia)
    return -(m + m.T) / nrm2


def _curvatures(X: DataMatrix, ws: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """g_j^T H(w_j) g_j for the column pairs of the d x s stacks ws and gs,
    from one implicit covariance application on both stacks:
    -(2/||w||^2) (F ||g||^2 + g^T A g - (4/||w||^2) (g^T w)(F g^T w + w^T A g))
    with F = F(w)."""
    s = ws.shape[1]
    applied = covariance_apply(X, np.concatenate((ws, gs), axis=1))
    aw, ag = applied[:, :s], applied[:, s:]

    def dots(a, b):
        return np.einsum("ij,ij->j", a, b)

    nrm2 = dots(ws, ws)
    f = -dots(ws, aw) / nrm2
    gw = dots(gs, ws)
    return -(2.0 / nrm2) * (f * dots(gs, gs) + dots(gs, ag)
                            - (4.0 / nrm2) * gw * (f * gw + dots(ws, ag)))


def directional_curvature(X: DataMatrix, w, g) -> float:
    """g^T H(w) g without materializing the Hessian (two implicit
    covariance applications on the stacked pair)."""
    arr, _ = _vec(w, X.d)
    gv = np.asarray(g, dtype=np.float64).reshape(-1)
    if gv.size != X.d:
        raise DimensionMismatchError(f"direction has size {gv.size}, expected {X.d}")
    return float(_curvatures(X, arr[:, None], gv[:, None])[0])


def nonconvexity_certificate(X: DataMatrix, w, psd_tol: float = 1e-10):
    """Check whether the Hessian at w is positive semidefinite.

    The test is relative to the Hessian's scale, as the Hessian scales with
    the data's square: it is PSD when its minimum eigenvalue is at least
    -psd_tol times its largest eigenvalue magnitude (a zero Hessian is
    PSD). Returns (is_psd, witness): when it is not, the minimum
    eigenvalue's eigenvector is returned as a direction of strictly
    negative curvature, else witness is None. The Hessian and its eigh
    run on one BLAS thread (_native.one_blas_thread), so the witness does
    not depend on the thread count.
    """
    with _native.one_blas_thread():
        evals, evecs = np.linalg.eigh(rayleigh_hessian(X, w))
    is_psd = bool(evals[0] >= -psd_tol * np.abs(evals).max())
    witness = None if is_psd else evecs[:, 0].copy()
    return is_psd, witness


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of the hyperplane {w : <w, w0> = 1} with the ball of
    radius eigengap/22 around the unit vector w0. The negative Rayleigh
    quotient is eigengap-strongly-convex and 20-smooth on it, and it
    contains the rescaled leading eigenvector ``projected_optimum``."""

    w0: np.ndarray
    radius: float
    eigengap: float
    projected_optimum: np.ndarray

    def contains(self, w, tol: float = 1e-10) -> bool:
        arr = np.asarray(w, dtype=np.float64).reshape(-1)
        on_plane = abs(float(arr @ self.w0) - 1.0) <= tol
        in_ball = float(np.linalg.norm(arr - self.w0)) <= self.radius + tol
        return on_plane and in_ball


def build_convex_region(spec: Spectrum, w0) -> ConvexRegion:
    """Construct the convexity region around a unit w0 that is within
    eigengap/44 of the leading eigenvector.

    Requires the spectrum to be normalized to spectral norm 1 (rescale the
    data first). The leading eigenvector's sign is chosen to minimize its
    distance to w0. The returned region carries the projected optimum
    v1 / <v1, w0>, whose distance to w0 is at most 5/4 of ||w0 - v1||, so
    it always lies inside the region.
    """
    arr = np.asarray(w0, dtype=np.float64).reshape(-1)
    if arr.size != spec.d:
        raise DimensionMismatchError(
            f"w0 has size {arr.size}, spectrum dimension is {spec.d}")
    if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-10:
        raise ConfigError("w0 must be a unit vector")
    s1 = float(spec.eigenvalues[0])
    if abs(s1 - 1.0) > 1e-8:
        raise ConfigError(
            f"spectral norm must be 1 (got {s1:.6g}); rescale the spectrum")
    lam = spec.gap_at(1)
    if not lam > 0.0:
        raise ConfigError("zero eigengap: the leading eigenvector is not unique")
    v1 = spec.eigenvectors.entries[:, 0].copy()
    if float(v1 @ arr) < 0.0:
        v1 = -v1
    dist = float(np.linalg.norm(arr - v1))
    if dist > lam / 44.0 + 1e-12:
        raise ConfigError(
            f"w0 is {dist:.6g} from the leading eigenvector; the convexity "
            f"construction requires at most eigengap/44 = {lam / 44.0:.6g}")
    v1p = v1 / float(v1 @ arr)
    return ConvexRegion(w0=arr.copy(), radius=lam / 22.0, eigengap=lam,
                        projected_optimum=v1p)


def probe_strong_convexity(region: ConvexRegion, X: DataMatrix,
                           samples: int, seed: int):
    """Sample curvatures g^T H(w) g over the region and its tangent
    directions; returns (min, max) over the sample.

    Points w = w0 + perturbation are drawn uniformly from the tangent ball
    (perturbations orthogonal to w0, norm <= radius); directions g are unit
    vectors orthogonal to w0. The guarantee places every curvature in
    [eigengap, 20]; the probe is a falsification harness for that claim,
    not a proof. ``samples`` and ``seed`` must be of their errors._RANGES
    kind and range, or they are refused with a ConfigError before any draw.
    """
    _check_run(samples=samples, seed=seed)
    d = region.w0.size
    if X.d != d:
        raise DimensionMismatchError(f"data dimension {X.d} != region dimension {d}")
    rng = _stream(seed)
    w0 = region.w0

    def tangent(count):
        raw = rng.standard_normal((d, count))
        raw -= np.outer(w0, w0 @ raw)
        return raw / np.linalg.norm(raw, axis=0)

    dirs = tangent(samples)
    radii = region.radius * rng.random(samples) ** (1.0 / max(d - 1, 1))
    ws = w0[:, None] + dirs * radii
    curv = _curvatures(X, ws, tangent(samples))
    return float(curv.min()), float(curv.max())


@dataclass(frozen=True)
class TightnessCounterexample:
    """Instance showing the eigengap-order closeness requirement of the
    convexity construction cannot be relaxed: along ``ray_direction``
    (which stays on the tangent hyperplane of w0) the function has second
    derivative 2 (3 t^2 - 1) eps lam / (t^2 + 1)^3, strictly negative at
    t = 0."""

    dataset: DataMatrix
    w0: np.ndarray
    ray_direction: np.ndarray
    second_derivative_at_0: float
    eigengap: float
    eps: float

    def second_derivative(self, t: float) -> float:
        """Closed form along the ray."""
        return 2.0 * (3.0 * t * t - 1.0) * self.eps * self.eigengap / (
            (t * t + 1.0) ** 3)

    def point(self, t: float) -> np.ndarray:
        return self.w0 + t * self.ray_direction


def tightness_counterexample(lam: float, eps: float) -> TightnessCounterexample:
    """Build the 3-dimensional instance A = diag(1, 1-lam, 0) with
    w0 = (sqrt(1-p^2), 0, p), p = sqrt((1+eps) lam).

    w0 sits within sqrt(2 (1+eps) lam) of the leading eigenvector, yet the
    restriction of the objective to the tangent hyperplane at w0 is
    strictly concave along the returned ray near t = 0 (second derivative
    -2 eps lam), so no neighborhood of w0 on the hyperplane is convex.
    ``lam`` (named eigengap) and ``eps`` must be numbers in (0, 1/2), the
    "eps" rule of errors._RANGES, or a ConfigError is raised.
    """
    _check("eigengap", lam, _REAL, _RANGES["eps"][:2])
    _check_run(eps=eps)
    n = 3
    cols = np.zeros((3, n))
    cols[0, 0] = np.sqrt(n * 1.0)
    cols[1, 1] = np.sqrt(n * (1.0 - lam))
    dataset = DataMatrix(cols)
    p = np.sqrt((1.0 + eps) * lam)
    w0 = np.array([np.sqrt(1.0 - p * p), 0.0, p])
    ray = np.array([0.0, 1.0, 0.0])
    return TightnessCounterexample(
        dataset=dataset, w0=w0, ray_direction=ray,
        second_derivative_at_0=-2.0 * eps * lam, eigengap=lam, eps=eps)
