"""Variance-reduced stochastic eigensolvers (vector and block variants) plus
classical baselines: Oja-style SGD, orthogonal iteration, and a deflation
wrapper. Every solver emits a ConvergenceTrace."""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DegenerateIterateError, DimensionMismatchError,
                     GapWarning, NonConvergenceError)
from .initialization import gaussian_init
from .matrix import DataMatrix, OrthonormalFrame, _polar, covariance_apply

_DEBUG = os.environ.get("VRPCA_DEBUG", "") not in ("", "0")
_NORM_FLOOR = 1e-12  # iterate norms below this are degenerate


@dataclass(frozen=True)
class SolverConstants:
    """Numerical constants of the step-size / epoch-length selection rules
    and of the burn-in phase.

    The convergence guarantees leave these as unspecified positive
    constants; the defaults are engineering choices calibrated once on the
    reference synthetic instances, not derived values.
    """

    c: float = 1.0
    c_prime: float = 10.0
    c_dprime: float = 1.0
    burn_c: float = 1000.0
    burn_c_prime: float = 10.0


DEFAULT_CONSTANTS = SolverConstants()


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the stochastic solvers."""

    k: int
    eta: float
    m: int
    epochs: int
    seed: int = 0
    delta: float = 0.25
    epsilon: float | None = None
    use_rotation: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.eta > 0.0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.m < 1:
            raise ConfigError(f"epoch length m must be >= 1, got {self.m}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0,1), got {self.delta}")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    iteration: int
    potential: float | None
    residual: float
    samples: int
    elapsed_s: float


@dataclass
class ConvergenceTrace:
    """Per-run record sequence plus the final iterate.

    ``inner_len`` is the epoch length of the run (None for sweep-style
    baselines where every record is an epoch boundary). All fields except
    the wall-clock ``elapsed_s`` are bit-reproducible for a fixed
    (data, start, config, seed).
    """

    records: list = field(default_factory=list)
    final_frame: OrthonormalFrame | None = None
    inner_len: int | None = None

    def boundary_records(self):
        if self.inner_len is None:
            return list(self.records)
        return [r for r in self.records
                if r.iteration == 0 or r.iteration == self.inner_len]

    def epoch_potentials(self):
        return [r.potential for r in self.boundary_records()]

    @property
    def samples(self):
        return self.records[-1].samples if self.records else 0


def select_parameters(lambda_hat: float, r: float, k: int, delta: float,
                      constants: SolverConstants = DEFAULT_CONSTANTS):
    """Step size and epoch length from the eigengap estimate.

    eta = a * delta^2 * lambda_hat / r^2 with
    a = min(c, c''/(4 delta^2 c k L), (1/(4 delta^2 c)) (c''/(k L))^2),
    L = log(2/delta), and m = ceil(c' L / (eta lambda_hat)).
    """
    if not lambda_hat > 0.0:
        raise ConfigError(
            "nonpositive eigengap estimate; run burn_in first and estimate "
            "the gap from the oracle spectrum")
    if not r > 0.0:
        raise ConfigError(f"r must be positive, got {r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0,1), got {delta}")
    c, cp, cpp = constants.c, constants.c_prime, constants.c_dprime
    big_l = float(np.log(2.0 / delta))
    a = min(c,
            cpp / (4.0 * delta**2 * c * k * big_l),
            (1.0 / (4.0 * delta**2 * c)) * (cpp / (k * big_l)) ** 2)
    eta = a * delta**2 * lambda_hat / r**2
    m = int(np.ceil(cp * big_l / (eta * lambda_hat)))
    return eta, m


class _Recorder:
    """Builds the trace; potential is recorded only when a reference frame
    is available (desk scale), the Rayleigh residual always."""

    def __init__(self, X, reference, inner_len):
        self.X = X
        self.ref = reference.entries if reference is not None else None
        self.records = []
        self.t0 = time.perf_counter()
        self.inner_len = inner_len

    def add(self, epoch, iteration, w, samples):
        arr = w if w.ndim == 2 else w[:, None]
        pot = None
        if self.ref is not None:
            resid_v = arr - self.ref @ (self.ref.T @ arr)
            pot = float(np.einsum("ij,ij->", resid_v, resid_v))
        aw = covariance_apply(self.X, arr)
        resid = float(np.linalg.norm(aw - arr @ (arr.T @ aw)))
        self.records.append(TraceRecord(
            epoch=epoch, iteration=iteration, potential=pot, residual=resid,
            samples=samples, elapsed_s=time.perf_counter() - self.t0))

    def trace(self, final):
        frame = OrthonormalFrame(final if final.ndim == 2 else final[:, None])
        return ConvergenceTrace(records=self.records, final_frame=frame,
                                inner_len=self.inner_len)


def _check_frame(X, w0, k):
    if w0.d != X.d:
        raise DimensionMismatchError(
            f"start frame has d={w0.d}, data has d={X.d}")
    if w0.k != k:
        raise DimensionMismatchError(f"start frame has k={w0.k}, config k={k}")
    if not 1 <= k <= X.d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={X.d}")


def _vector_epochs(X, w_start, cfg, reference, deflate=None, rng=None):
    """Shared inner machinery of vrpca_vector and the deflation stages.

    ``deflate`` is an optional d x j orthonormal basis; sampled columns and
    the epoch anchor are projected against it on the fly, so the stage
    solves the covariance operator restricted to its orthogonal complement.
    ``rng`` overrides the default run stream Philox(cfg.seed).
    """
    xd = X.data
    n = X.n
    eta = cfg.eta
    m = cfg.m
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    rec = _Recorder(X, reference, m)
    proj_basis = deflate
    vtx = proj_basis.T @ xd if proj_basis is not None else None

    w = w_start.copy()
    if proj_basis is not None:
        w -= proj_basis @ (proj_basis.T @ w)
        w /= np.linalg.norm(w)
    samples = 0
    rec.add(0, 0, w, samples)
    stride = max(m // 10, 1)
    wt = w.copy()
    for s in range(1, cfg.epochs + 1):
        if proj_basis is not None:
            wt -= proj_basis @ (proj_basis.T @ wt)
            wt /= np.linalg.norm(wt)
        u = xd @ (xd.T @ wt) / n
        anchor_proj = xd.T @ wt
        if proj_basis is not None:
            u -= proj_basis @ (proj_basis.T @ u)
        samples += n
        eu = eta * u
        w = wt.copy()
        idx = rng.integers(0, n, size=m)
        for t in range(1, m + 1):
            i = idx[t - 1]
            if proj_basis is None:
                x = xd[:, i]
            else:
                x = xd[:, i] - proj_basis @ vtx[:, i]
            wp = w + (eta * (x @ w - anchor_proj[i])) * x + eu
            nrm2 = wp @ wp
            if nrm2 < _NORM_FLOOR**2:
                raise DegenerateIterateError(
                    f"degenerate iterate at epoch {s}, step {t}: "
                    f"norm {np.sqrt(nrm2):.3e}")
            w = wp / np.sqrt(nrm2)
            samples += 1
            if _DEBUG:
                assert abs(w @ w - 1.0) <= 1e-10
            if t % stride == 0 and t != m:
                rec.add(s, t, w, samples)
        wt = w
        rec.add(s, m, wt, samples)
        if cfg.epsilon is not None and rec.records[-1].potential is not None \
                and rec.records[-1].potential <= cfg.epsilon:
            break
    return rec.trace(wt)


def vrpca_vector(X: DataMatrix, w0: OrthonormalFrame, cfg: SolverConfig,
                 reference: OrthonormalFrame | None = None) -> ConvergenceTrace:
    """Variance-reduced stochastic solver for the leading eigenvector.

    Each epoch applies the covariance operator to the anchor once, then
    runs m stochastic steps
    w' = w + eta (x_i (x_i^T w - x_i^T anchor) + u), w <- w'/||w'||,
    with uniform with-replacement sampling from one Philox stream keyed by
    cfg.seed (one block of m indices drawn per epoch). The trace records
    epoch boundaries and every m/10 inner steps.
    """
    _check_frame(X, w0, 1)
    if cfg.k != 1:
        raise ConfigError(f"vector solver requires cfg.k == 1, got {cfg.k}")
    return _vector_epochs(X, w0.entries[:, 0].copy(), cfg, reference)


def vrpca_block(X: DataMatrix, W0: OrthonormalFrame, cfg: SolverConfig,
                reference: OrthonormalFrame | None = None) -> ConvergenceTrace:
    """Block variant: d x k frames, Procrustes-aligned anchor, polar
    normalization.

    With cfg.use_rotation the anchor is rotated each inner step by the
    orthogonal B minimizing ||W - anchor B||_F (recomputed every step, as
    the k x k cost is absorbed by the d x k work); otherwise B = I, the
    variant that historically worked well in practice. For k = 1 the
    iterate sequence coincides with vrpca_vector under the same seed when
    use_rotation is off, or while the overlap w^T anchor stays >= 0; once
    it turns negative the rotation is B = -I and the two runs part.
    """
    k = cfg.k
    _check_frame(X, W0, k)
    xd = X.data
    n = X.n
    eta = cfg.eta
    m = cfg.m
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    rec = _Recorder(X, reference, m)

    wt = W0.entries.copy()
    samples = 0
    rec.add(0, 0, wt, samples)
    stride = max(m // 10, 1)
    eye_k = np.eye(k)
    for s in range(1, cfg.epochs + 1):
        u = xd @ (xd.T @ wt) / n
        anchor_proj = xd.T @ wt  # n x k
        samples += n
        w = wt.copy()
        idx = rng.integers(0, n, size=m)
        ub_static = eta * u  # valid whenever B = I
        for t in range(1, m + 1):
            if cfg.use_rotation:
                if k == 1:
                    # SVD of the 1x1 overlap reduces to its sign
                    b = eye_k if (w[:, 0] @ wt[:, 0]) >= 0.0 else -eye_k
                else:
                    us, _, vts = np.linalg.svd(w.T @ wt)
                    b = vts.T @ us.T
                ub = eta * (u @ b) if b is not eye_k else ub_static
            else:
                b = eye_k
                ub = ub_static
            i = idx[t - 1]
            x = xd[:, i]
            xw = x @ w
            pb = anchor_proj[i] @ b
            wp = w + np.outer(x, eta * (xw - pb)) + ub
            if k == 1:
                nrm2 = wp[:, 0] @ wp[:, 0]
                if nrm2 < _NORM_FLOOR**2:
                    raise DegenerateIterateError(
                        f"degenerate iterate at epoch {s}, step {t}: "
                        f"norm {np.sqrt(nrm2):.3e}")
                w = wp / np.sqrt(nrm2)
            else:
                w = _polar(wp)
            samples += 1
            if _DEBUG:
                assert np.max(np.abs(w.T @ w - eye_k)) <= 1e-10
            if t % stride == 0 and t != m:
                rec.add(s, t, w, samples)
        wt = w
        rec.add(s, m, wt, samples)
        if cfg.epsilon is not None and rec.records[-1].potential is not None \
                and rec.records[-1].potential <= cfg.epsilon:
            break
    return rec.trace(wt)


def burn_in(X: DataMatrix, w0: OrthonormalFrame, zeta: float, delta: float,
            lambda_hat: float, reference: OrthonormalFrame | None = None,
            eta: float | None = None,
            constants: SolverConstants = DEFAULT_CONSTANTS):
    """Drive a k=1 iterate from squared alignment >= zeta down to potential
    <= 1/2, after which the geometric-convergence parameter regime applies.

    Runs stochastic steps against the fixed anchor w0 with the burn-in step
    size eta = burn_c * delta^2 * lambda_hat * zeta^3 / (r^2 log^2(2/delta))
    (overridable). With a reference frame the stopping rule is potential
    <= 1/2, checked up front so an already-good start returns immediately
    with 0 iterations. Without a reference, the run stops once the Rayleigh
    residual has at least halved and then plateaued; this proxy rule is a
    heuristic, not a guarantee.

    The iteration budget is 10x the burn-in horizon
    T = floor(burn_c' log(2/delta) / (eta lambda_hat zeta)); exhausting it
    raises NonConvergenceError carrying the partial trace, the last iterate
    and the iteration count.

    Returns (frame, iterations_performed).
    """
    _check_frame(X, w0, 1)
    if not 0.0 < zeta <= 1.0:
        raise ConfigError(f"zeta must lie in (0,1], got {zeta}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0,1), got {delta}")
    if not lambda_hat > 0.0:
        raise ConfigError("burn-in needs a positive eigengap estimate")
    big_l = float(np.log(2.0 / delta))
    if eta is None:
        eta = constants.burn_c * delta**2 * lambda_hat * zeta**3 / (
            X.r**2 * big_l**2)
    horizon = int(constants.burn_c_prime * big_l / (eta * lambda_hat * zeta))
    budget = 10 * horizon

    rec = _Recorder(X, reference, None)
    wt = w0.entries[:, 0].copy()
    rec.add(0, 0, wt, 0)
    if reference is not None and rec.records[0].potential <= 0.5:
        return w0, 0

    xd = X.data
    n = X.n
    u = xd @ (xd.T @ wt) / n
    anchor_proj = xd.T @ wt
    eu = eta * u
    rng = np.random.Generator(np.random.Philox(key=0))
    check_every = max(min(budget // 512, 8192), 64)
    w = wt.copy()
    done = 0
    r0 = rec.records[0].residual
    best = r0
    checks_since_improve = 0
    while done < budget:
        take = min(check_every, budget - done)
        idx = rng.integers(0, n, size=take)
        for t in range(take):
            i = idx[t]
            x = xd[:, i]
            wp = w + (eta * (x @ w - anchor_proj[i])) * x + eu
            nrm2 = wp @ wp
            if nrm2 < _NORM_FLOOR**2:
                raise DegenerateIterateError(
                    f"degenerate burn-in iterate at step {done + t + 1}")
            w = wp / np.sqrt(nrm2)
        done += take
        rec.add(0, done, w, done)
        last = rec.records[-1]
        if reference is not None:
            if last.potential <= 0.5:
                return OrthonormalFrame(w[:, None]), done
        else:
            if last.residual < best * 0.99:
                best = last.residual
                checks_since_improve = 0
            else:
                checks_since_improve += 1
            if best <= 0.5 * r0 and checks_since_improve >= 8:
                return OrthonormalFrame(w[:, None]), done
    raise NonConvergenceError(
        f"burn-in budget of {budget} iterations exhausted "
        f"(eta={eta:.3e}, horizon={horizon})",
        trace=rec.trace(w), frame=OrthonormalFrame(w[:, None]),
        iterations=done)


def oja_baseline(X: DataMatrix, w0: OrthonormalFrame, eta_schedule, iters: int,
                 reference: OrthonormalFrame | None = None) -> ConvergenceTrace:
    """Plain stochastic power steps w' = w + eta_t x (x^T w), normalized.

    ``eta_schedule`` is either a callable t -> eta_t (t starts at 1) or a
    number c giving the classical c/t schedule. Comparison baseline only:
    the runtime to a fixed accuracy scales polynomially in it.
    """
    _check_frame(X, w0, 1)
    if callable(eta_schedule):
        sched = eta_schedule
    else:
        c0 = float(eta_schedule)
        sched = lambda t: c0 / t
    xd = X.data
    n = X.n
    rng = np.random.Generator(np.random.Philox(key=0))
    rec = _Recorder(X, reference, iters if iters > 0 else None)
    w = w0.entries[:, 0].copy()
    rec.add(0, 0, w, 0)
    stride = max(iters // 10, 1)
    idx = rng.integers(0, n, size=iters)
    for t in range(1, iters + 1):
        x = xd[:, idx[t - 1]]
        wp = w + (sched(t) * (x @ w)) * x
        nrm2 = wp @ wp
        if nrm2 < _NORM_FLOOR**2:
            raise DegenerateIterateError(f"degenerate Oja iterate at step {t}")
        w = wp / np.sqrt(nrm2)
        if t % stride == 0 or t == iters:
            rec.add(1, t, w, t)
    return rec.trace(w)


def orthogonal_iteration(X: DataMatrix, W0: OrthonormalFrame, sweeps: int,
                         reference: OrthonormalFrame | None = None
                         ) -> ConvergenceTrace:
    """Deterministic baseline: W <- polar_normalize(A W) per sweep."""
    _check_frame(X, W0, W0.k)
    rec = _Recorder(X, reference, None)
    w = W0.entries.copy()
    rec.add(0, 0, w, 0)
    for s in range(1, sweeps + 1):
        w = _polar(covariance_apply(X, w))
        rec.add(s, 0, w, s * X.n)
    return rec.trace(w)


def deflation_solve(X: DataMatrix, k: int, cfg: SolverConfig,
                    reference: OrthonormalFrame | None = None
                    ) -> OrthonormalFrame:
    """Recover k leading eigenvectors one at a time with the vector solver,
    projecting sampled columns against the vectors already found.

    Stage j runs on the covariance operator restricted to the orthogonal
    complement of the previous stages (columns are deflated on the fly, the
    dataset is never rewritten). Stage j draws its start from
    gaussian_init(d, 1, seed=cfg.seed + j) and its sampling stream from the
    run stream jumped j-1 times, so stage 1 reproduces vrpca_vector
    exactly. Requires a positive eigengap between all top k eigenvalues;
    a warning is emitted when consecutive eigenvalue estimates differ by
    less than 1e-3.
    """
    if not 1 <= k <= X.d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    found = []
    estimates = []
    for j in range(1, k + 1):
        w0 = gaussian_init(X.d, 1, seed=cfg.seed + j)
        basis = np.column_stack(found) if found else None
        rng = None
        if j > 1:
            rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(j - 1))
        trace = _vector_epochs(X, w0.entries[:, 0].copy(), cfg, None,
                               deflate=basis, rng=rng)
        v = trace.final_frame.entries[:, 0].copy()
        if basis is not None:
            v -= basis @ (basis.T @ v)
            v /= np.linalg.norm(v)
        found.append(v)
        estimates.append(float(v @ covariance_apply(X, v)))
        if j >= 2 and estimates[-2] - estimates[-1] < 1e-3:
            warnings.warn(
                f"estimated eigenvalues {j - 1} and {j} differ by "
                f"{estimates[-2] - estimates[-1]:.3e}; deflation needs a "
                "positive gap between all leading eigenvalues",
                GapWarning, stacklevel=2)
    return OrthonormalFrame(np.column_stack(found))
