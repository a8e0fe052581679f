"""Variance-reduced stochastic eigensolvers (vector and block variants) plus
classical baselines: Oja-style SGD, orthogonal iteration, and deflation.
Every solver emits a ConvergenceTrace."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _native
from ._native import _sum8
from .errors import (_FLAG, _REAL, ConfigError, DegenerateIterateError,
                     DimensionMismatchError, NonConvergenceError, _check,
                     _check_run, _warn_gap)
from .initialization import BURN_IN_STREAM, _stream
from .matrix import (DENSE_GUARD, ORTHO_TOL, DataMatrix, OrthonormalFrame,
                     _dense_covariance, _deviation, _polar, _potential,
                     _procrustes, _products, _projected, _residual)

#: a step whose candidate's (Frobenius) norm falls below this has collapsed
_NORM_FLOOR = 1e-12


def _steps_k1_numpy(xd, idx, a, eu, eta, w, scale, anchor=None, etas=None):
    """Reference for _steps_k1, one interpreted step at a time, in the
    compiled kernel's arithmetic and order: the same bits."""
    if len(idx) == 0:
        return 0
    inv = scale[0]
    x = xd[:, idx[0]]
    p = _sum8(x * w)
    pa = 0.0 if anchor is None else _sum8(w * anchor)
    for t, i in enumerate(idx, 1):
        # the last step sums against its own column, unread
        xn = xd[:, idx[t]] if t < len(idx) else x
        s = 1.0 if pa >= 0.0 else -1.0  # the aligning rotation of w^T w~
        e = eta if etas is None else etas[t - 1]
        w[:] = (w * inv + (e * (inv * p - s * a[i])) * x) + s * eu
        nrm2 = _sum8(w * w)
        if nrm2 < _NORM_FLOOR**2:
            scale[0] = 1.0
            return t
        p = _sum8(xn * w)
        if anchor is not None:
            pa = _sum8(w * anchor)
        inv = 1.0 / np.sqrt(nrm2)
        x = xn
    scale[0] = inv
    return 0


def _steps_k1(xd, idx, a, eu, eta, w, scale, anchor=None, etas=None):
    """Run len(idx) k=1 VR-PCA steps in place on the iterate w * scale[0],
    a d x 1 unit frame held as ``w`` and its pending scale:
    w <- normalize(w + eta (x_i^T w - a_i) x_i + eu), i over ``idx``.

    The normalization is carried, not applied: each step makes one pass
    over ``w``, writing (w inv + c x_i) + eu with inv the pending scale and
    c = eta (inv x_i^T w - a_i), and summing in that pass the new w^T w,
    whose 1 / sqrt becomes the next scale, and the next column's x^T w.
    ``scale`` (a float64 array of one element) is read at entry and
    written at exit, so a run split into calls that carry ``w`` and
    ``scale`` gives the bits of one call. Compiled, a step costs tens of
    ns (_native.steps_k1); the numpy reference, about 7 µs.

    ``xd`` is the F-ordered d x n data, ``a`` the n anchor projections
    X^T w~ and ``eu`` = eta * u. Given ``etas`` (one float64 per index),
    step t takes etas[t] in place of eta; with a = 0 and eu = 0 the steps
    are Oja's. With ``anchor`` = w~, each step first takes
    s = sign(w^T w~) (+1 at zero) and uses s a_i and s eu: the block
    solver's aligning rotation at k=1. A deflation stage passes its
    projected copy of the data as ``xd`` (deflation_solve). Returns 0, or
    the 1-based step whose candidate norm fell below _NORM_FLOOR; ``w``
    then holds that candidate and ``scale`` 1.

    ``w``, ``a``, ``eu`` and ``anchor`` may be d x 1 (``a``: n x 1) arrays
    or vectors: the kernels see reshape(-1) views of them, the one place
    where a solver's iterate is a vector.
    """
    a, eu, w, anchor = (None if v is None else v.reshape(-1)
                        for v in (a, eu, w, anchor))
    args = (xd, idx, a, eu, eta, w, scale, anchor, etas)
    bad = _native.steps_k1(*args, _NORM_FLOOR)
    return _steps_k1_numpy(*args) if bad is None else bad


#: constants of the step-size / epoch-length selection rule (c, c', c'')
#: and of the burn-in (burn_c, burn_c'), read at call time. The guarantees
#: leave them unspecified positive constants; these are engineering choices
#: calibrated once on the reference synthetic instances, not derived values.
C, C_PRIME, C_DPRIME = 1.0, 10.0, 1.0
BURN_C, BURN_C_PRIME = 1000.0, 10.0

#: the most indices _segments draws for one steps call: a segment of more
#: steps runs as several calls, so the index array does not grow with m
_CHUNK = 1 << 16


def _check_epsilon(epsilon, deflation=False, reference=True):
    """Refuse an epsilon that no run can stop on: one given to deflation,
    whose stages run every epoch, or one without a ``reference`` to measure
    the potential against."""
    if epsilon is None:
        return
    if deflation:
        raise ConfigError(
            f"epsilon={epsilon}: deflation runs every epoch of every "
            "stage and cannot stop on it; vrpca_block stops on epsilon")
    if not reference:
        raise ConfigError(
            f"epsilon={epsilon} needs the oracle reference to stop on "
            f"(oracle_check, d <= DENSE_GUARD = {DENSE_GUARD})")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the stochastic solvers: each number is
    checked against its errors._RANGES kind and range (the seed is an
    integer in [0, 2**64)), and use_rotation must be true or false, or
    construction raises ConfigError. ``delta`` is checked and carried but
    read by no solver: select_parameters and burn_in take their delta as
    an argument."""

    k: int
    eta: float
    m: int
    epochs: int
    seed: int = 0
    delta: float = 0.25
    epsilon: float | None = None
    use_rotation: bool = True

    def __post_init__(self):
        _check_run(k=self.k, eta=self.eta, m=self.m, epochs=self.epochs,
                   seed=self.seed, delta=self.delta)
        if self.epsilon is not None:
            _check_run(epsilon=self.epsilon)
        _check("use_rotation", self.use_rotation, _FLAG)


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    iteration: int
    potential: float | None
    residual: float | None
    samples: int
    elapsed_s: float


@dataclass
class ConvergenceTrace:
    """Per-run record sequence plus the final iterate.

    A record is an epoch boundary when its iteration is 0 or it is the
    last record of its epoch; the records alone say which. So every
    record of a sweep-style run (orthogonal iteration, deflation) is a
    boundary, and a burn-in trace, all of epoch 0, has two: its first and
    last records. All fields except the wall-clock ``elapsed_s`` are
    bit-reproducible for a fixed (data, start, config, seed).
    """

    records: list = field(default_factory=list)
    final_frame: OrthonormalFrame | None = None

    def boundary_records(self):
        return [r for r, nxt in zip(self.records, self.records[1:] + [None])
                if r.iteration == 0 or nxt is None or nxt.epoch != r.epoch]

    def epoch_potentials(self):
        return [r.potential for r in self.boundary_records()]

    @property
    def samples(self):
        return self.records[-1].samples if self.records else 0


def select_parameters(lambda_hat: float, r: float, k: int, delta: float):
    """Step size and epoch length from the eigengap estimate.

    eta = a * delta^2 * lambda_hat / r^2 with
    a = min(c, c''/(4 delta^2 c k L), (1/(4 delta^2 c)) (c''/(k L))^2),
    L = log(2/delta), and m = ceil(c' L / (eta lambda_hat)), with c, c',
    c'' the module constants C, C_PRIME, C_DPRIME. r, k and delta must lie
    in their _RANGES, and so must a positive gap (it must be finite, as r
    must); a nonpositive gap, or one so small that m is not a finite
    number, is refused with a ConfigError naming the gap.
    """
    _check("lambda_hat", lambda_hat, _REAL)
    if not lambda_hat > 0.0:
        raise ConfigError(
            "nonpositive eigengap estimate; run burn_in first and estimate "
            "the gap from the oracle spectrum")
    _check_run(lambda_hat=lambda_hat, r=r, k=k, delta=delta)
    big_l = float(np.log(2.0 / delta))
    a = min(C,
            C_DPRIME / (4.0 * delta**2 * C * k * big_l),
            (1.0 / (4.0 * delta**2 * C)) * (C_DPRIME / (k * big_l)) ** 2)
    eta = a * delta**2 * lambda_hat / r**2
    # for a tiny gap eta * lambda_hat underflows, to 0 or to a subnormal
    # whose quotient overflows; in Python floats neither warns
    rate = float(eta * lambda_hat)
    m = C_PRIME * big_l / rate if rate > 0.0 else np.inf
    if not np.isfinite(m):
        raise ConfigError(
            f"eigengap estimate {lambda_hat:.3e} selects an epoch length m "
            "too large to represent; set eta and m explicitly")
    return eta, int(np.ceil(m))


class _Recorder:
    """Builds the trace from the records its solver adds; which of them
    are epoch boundaries their (epoch, iteration) alone says
    (ConvergenceTrace.boundary_records). The potential is recorded only
    when a reference frame is available (desk scale). The Rayleigh residual
    ||A W - W (W^T A W)|| is recorded only when the caller hands in the
    product A W it computed anyway (add's ``aw``, or settle for the last
    record), else None: the recorder makes no data pass of its own."""

    def __init__(self, reference):
        self.ref = reference.entries if reference is not None else None
        self.records = []
        self.t0 = time.perf_counter()

    def add(self, epoch, iteration, w, samples, aw=None):
        pot = None if self.ref is None else _potential(self.ref, w)
        self.records.append(TraceRecord(
            epoch=epoch, iteration=iteration, potential=pot,
            residual=None if aw is None else _residual(w, aw),
            samples=samples, elapsed_s=time.perf_counter() - self.t0))

    def settle(self, w, aw):
        """Give the last record the residual of ``w`` from aw = A w."""
        self.records[-1] = replace(self.records[-1], residual=_residual(w, aw))

    def trace(self, final):
        return ConvergenceTrace(records=self.records,
                                final_frame=OrthonormalFrame(final))


def _check_frame(X, w0, k):
    if w0.d != X.d:
        raise DimensionMismatchError(
            f"start frame has d={w0.d}, data has d={X.d}")
    if w0.k != k:
        raise DimensionMismatchError(f"start frame has k={w0.k}, config k={k}")


def _check_iterate(w, where):
    """The one iterate check: max |W^T W - I| <= ORTHO_TOL, which for a
    d x 1 iterate w is |w^T w - 1| <= ORTHO_TOL."""
    dev = _deviation(w)
    if not dev <= ORTHO_TOL:
        what = ("iterate left the unit sphere" if w.shape[1] == 1
                else "iterate columns lost orthonormality")
        raise DegenerateIterateError(
            f"{what} {where}: max |W^T W - I| = {dev:.3e}")


def _steps_block(xd, idx, a, u, eta, w, anchor=None):
    """_steps_k1 for a d x k frame ``w``, in numpy: in place,
    W <- polar(W + x_i eta (x_i^T W - a_i B) + eta u B), i over ``idx``.

    ``a`` = X^T W~ is n x k and ``u`` = X X^T W~ / n is not scaled by eta.
    With ``anchor`` = W~, B is the Procrustes rotation minimizing
    ||W - W~ B||_F, recomputed every step; otherwise B = I. Returns 0, or
    the 1-based step whose candidate collapsed (Frobenius norm below
    _NORM_FLOOR, as at k=1) or lost rank (_polar's relative rule); ``w``
    then holds that unnormalized candidate.
    """
    b = np.eye(w.shape[1])
    ub = eta * u  # valid whenever B = I
    with _native.one_blas_thread():  # once, so _polar's hold just counts
        for t, i in enumerate(idx, 1):
            if anchor is not None:
                b = _procrustes(w, anchor)
                ub = eta * (u @ b)
            x = xd[:, i]
            wp = w + np.outer(x, eta * (x @ w - a[i] @ b)) + ub
            try:
                if not np.einsum("ij,ij->", wp, wp) >= _NORM_FLOOR**2:
                    raise DegenerateIterateError("collapsed candidate")
                w[:] = _polar(wp)
            except DegenerateIterateError:
                w[:] = wp
                return t
    return 0


def _anchored_steps(X, wt, cov, eta, rotate=False):
    """One epoch's set-up at the anchor W~ = ``wt``, shared by _epochs and
    burn_in: the exact anchor gradient, a = X^T W~, which the steps read,
    and u = A W~, both from one matrix._products call (u from the memo
    ``cov`` when there is one), and the ``steps`` that _segments runs
    against it, _steps_k1 (with eu = eta u) for a d x 1 iterate and
    _steps_block for a d x k one. ``rotate`` turns on the block solver's
    aligning rotation to W~. Returns (u, steps)."""
    a = np.empty((X.n, wt.shape[1]))
    u = _products(X, wt, cov, a)
    eu = eta * u
    anchor = wt if rotate else None

    def steps(idx, t0, v, scale):
        if scale is None:
            return _steps_block(X.data, idx, a, u, eta, v, anchor=anchor)
        return _steps_k1(X.data, idx, a, eu, eta, v, scale, anchor=anchor)

    return u, steps


def _project_out(w, basis):
    """In place, w <- normalize(w - B B^T w) for a d x 1 ``w`` and an
    orthonormal deflation ``basis`` B; nothing when B is None."""
    if basis is not None:
        w -= basis @ (basis.T @ w)
        w /= np.linalg.norm(w)


def _segments(rng, n, total, stride, w, where, steps):
    """Run ``total`` steps on the d x k iterate ``w`` as segments of
    ``stride`` steps, yielding the steps done after each segment.

    Each segment draws its indices from ``rng`` when it runs, in chunks of
    at most _CHUNK; consecutive Philox draws equal one block draw bit for
    bit, so the index array holds one chunk, not ``total`` or ``stride``.
    Each chunk calls steps(idx, t0, v, scale), t0 the steps before it,
    which returns 0 or the 1-based step whose candidate was degenerate;
    such a step raises DegenerateIterateError with its number and size.

    At k >= 2, v is ``w`` itself and scale None, _steps_block's operands.
    At k = 1 they are _steps_k1's: v, a copy of ``w`` that stays
    unnormalized between calls, and its pending scale; after each call
    ``w`` is set to v * scale, the iterate the checks and records read.
    The kernel's operands are never renormalized between calls, so a
    chunk or checkpoint split moves no bit. After each segment the
    iterate must pass _check_iterate. ``where`` (e.g. "at epoch 2,")
    places both in their messages.
    """
    v, scale = (w.copy(), np.ones(1)) if w.shape[1] == 1 else (w, None)
    for t0 in range(0, total, stride):
        t1 = min(t0 + stride, total)
        for c0 in range(t0, t1, _CHUNK):
            bad = steps(rng.integers(0, n, size=min(c0 + _CHUNK, t1) - c0),
                        c0, v, scale)
            if scale is not None:
                np.multiply(v, scale[0], out=w)
            if bad:
                size = (f"norm {np.linalg.norm(w):.3e}" if scale is not None
                        else "Gram matrix min eigenvalue "
                        f"{np.linalg.eigvalsh(w.T @ w)[0]:.3e}")
                raise DegenerateIterateError(
                    f"degenerate iterate {where} step {c0 + bad}: {size}")
        _check_iterate(w, f"{where} step {t1}")
        yield t1


def _epochs(X, w_start, cfg, reference, cov, jump=0, rotate=False,
            final_pass=True):
    """The epoch loop of vrpca_vector, of vrpca_block at every k and of the
    deflation stages.

    Each epoch is set up by _anchored_steps: the exact anchor gradient
    a = X^T W~ and u = A W~, from the covariance memo ``cov`` (the caller's
    _dense_covariance: it was given a reference and d <= DENSE_GUARD) or
    else streamed, and the steps against it. The epoch then runs its m
    steps from W~ in _segments, one segment per trace checkpoint (every
    max(m // 10, 1) steps, and the epoch end): _steps_k1 for a d x 1
    ``w_start``, _steps_block for a d x k one, k >= 2. The run stops after
    cfg.epochs epochs or at a boundary potential <= epsilon, so an epsilon
    without a ``reference`` to measure it is refused.

    Each epoch boundary's residual ||u - W~ (W~^T u)|| is taken from the
    next epoch's u, and the run's last boundary from one final product
    A W~ (cov W~, or X (X^T W~) / n); intra-epoch records carry the
    potential but residual None. So a run of E epochs reads the data in E
    products X^T W~ with ``cov``, and makes E + 1 covariance passes
    without it. With ``final_pass`` off the final product is skipped and
    the last boundary's residual stays None. A deflation stage is an
    ordinary caller: it hands in its projected copy of the data and memo.

    Indices come from the run stream _stream(cfg.seed) jumped ``jump``
    times. ``rotate`` applies the block solver's aligning rotation.
    """
    _check_epsilon(cfg.epsilon, reference=reference is not None)
    m = cfg.m
    rng = _stream(cfg.seed, jump=jump)
    rec = _Recorder(reference)

    wt = w_start.copy()
    samples = 0
    rec.add(0, 0, wt, samples)
    for s in range(1, cfg.epochs + 1):
        u, steps = _anchored_steps(X, wt, cov, cfg.eta, rotate)
        rec.settle(wt, u)  # the last boundary's residual
        samples += X.n
        w = wt.copy()
        for t1 in _segments(rng, X.n, m, max(m // 10, 1), w,
                            f"at epoch {s},", steps):
            if t1 != m:
                rec.add(s, t1, w, samples + t1)
        samples += m
        wt = w
        rec.add(s, m, wt, samples)
        # an epsilon came with a reference, so the potential is recorded
        if cfg.epsilon is not None and (
                rec.records[-1].potential <= cfg.epsilon):
            break
    if final_pass:
        rec.settle(wt, _products(X, wt, cov))
    return rec.trace(wt)


def vrpca_vector(X: DataMatrix, w0: OrthonormalFrame, cfg: SolverConfig,
                 reference: OrthonormalFrame | None = None) -> ConvergenceTrace:
    """Variance-reduced stochastic solver for the leading eigenvector.

    Each epoch applies A = (1/n) X X^T, the uncentered second moment of
    the data, to the anchor once, u = A w~, then runs m stochastic steps
    w' = w + eta (x_i (x_i^T w - x_i^T anchor) + u), w <- w'/||w'||,
    with uniform with-replacement sampling from the run stream
    _stream(cfg.seed) (one segment of indices drawn per trace checkpoint).
    It runs _epochs, as vrpca_block does, with one _steps_k1 call per trace
    checkpoint. The trace records epoch boundaries and every m/10 inner
    steps; at each record |w^T w - 1| must be <= ORTHO_TOL, and a failed
    check, or a step whose norm falls below 1e-12, raises
    DegenerateIterateError with its epoch and step. Residuals are recorded
    at epoch boundaries only, from the anchor products u.

    Given a ``reference`` at d <= DENSE_GUARD, u and the final residual
    come from the covariance memo X.covariance() (formed here if no
    earlier call formed it), and a run of E epochs reads the data E times,
    for the products X^T w~ the steps need. Without one, u = X (X^T w~) / n
    and the run makes E + 1 covariance passes. The two runs agree to
    rounding and draw the same samples. Without one, cfg.epsilon is refused.

    A cfg.k other than 1 is refused with a ConfigError naming cfg.k, before
    the start frame is checked against it.
    """
    if cfg.k != 1:
        raise ConfigError(f"vector solver requires cfg.k == 1, got {cfg.k}")
    _check_frame(X, w0, 1)
    return _epochs(X, w0.entries, cfg, reference,
                   _dense_covariance(X, reference))


def vrpca_block(X: DataMatrix, W0: OrthonormalFrame, cfg: SolverConfig,
                reference: OrthonormalFrame | None = None) -> ConvergenceTrace:
    """Block variant: d x k frames, Procrustes-aligned anchor, polar
    normalization.

    It runs vrpca_vector's epochs (_epochs) with a d x k frame, so both
    sample the same columns under one seed. With cfg.use_rotation the
    anchor is rotated each inner step by the orthogonal B minimizing
    ||W - anchor B||_F (recomputed every step, as the k x k cost is
    absorbed by the d x k work); otherwise B = I, the variant that
    historically worked well in practice. At every trace checkpoint the
    frame must satisfy max |W^T W - I| <= ORTHO_TOL; a failed check, or a
    step whose candidate collapses (norm below 1e-12) or loses rank,
    raises DegenerateIterateError with its epoch and step.

    At k = 1 the d x 1 frame steps in _steps_k1, with the rotation reduced
    to the sign of the overlap w^T anchor. The iterate sequence therefore coincides with
    vrpca_vector under the same seed when use_rotation is off, or while
    that overlap stays >= 0; once it turns negative the rotation is B = -I
    and the two runs part.

    As in vrpca_vector, a ``reference`` at d <= DENSE_GUARD makes U = A W~
    and the final residual come from the covariance memo: E data passes
    for E epochs (the products X^T W~), instead of E + 1 covariance passes.
    Without one, cfg.epsilon is refused.
    """
    _check_frame(X, W0, cfg.k)
    return _epochs(X, W0.entries, cfg, reference,
                   _dense_covariance(X, reference), rotate=cfg.use_rotation)


def burn_in(X: DataMatrix, w0: OrthonormalFrame, zeta: float, delta: float,
            lambda_hat: float, reference: OrthonormalFrame | None = None,
            eta: float | None = None, seed: int = 0):
    """Drive a d x 1 iterate from squared alignment >= zeta down to
    potential <= 1/2, after which the geometric-convergence parameter
    regime applies.

    zeta, delta, lambda_hat, the data's r (so a zero or overflowing column
    norm), the seed and an ``eta`` override must lie in their
    errors._RANGES, or ConfigError is raised before any pass. Runs
    stochastic steps against the fixed anchor w0, set up as one solver
    epoch is (_anchored_steps), with the burn-in step size
    eta = BURN_C * delta^2 * lambda_hat * zeta^3 / (r^2 log^2(2/delta))
    unless overridden, one _steps_k1 call per stopping-rule check
    (_segments), on indices from the burn-in stream
    _stream(seed, BURN_IN_STREAM); after each call |w^T w - 1| must be
    <= ORTHO_TOL, the solvers' iterate check.
    With a reference frame the stopping rule is potential <= 1/2, checked
    up front so an already-good start returns immediately with 0
    iterations.
    Without a reference, the run stops once the Rayleigh residual has at
    least halved and then plateaued; this proxy rule is a heuristic, not a
    guarantee, and costs one covariance pass per check (the start's
    residual comes from the anchor gradient's u = A w0, so such a run
    reads the data once more, for the anchor pass). With a reference
    the records carry residual None and no pass is made for them, and at
    d <= DENSE_GUARD the anchor gradient u = A w0 comes from the
    covariance memo X.covariance(); the burn-in then reads the data once,
    for X^T w0.

    The iteration budget is 10x the burn-in horizon
    T = floor(BURN_C_PRIME log(2/delta) / (eta lambda_hat zeta)), and at
    least 10 steps, so a horizon under one step still steps;
    exhausting it raises NonConvergenceError carrying the partial trace,
    the last iterate and the iteration count. That trace is all epoch 0,
    so its boundary records are its first and last. A horizon that
    overflows is refused before any step, with a ConfigError naming zeta,
    lambda_hat and eta.

    Returns (frame, iterations_performed).
    """
    _check_frame(X, w0, 1)
    _check_run(zeta=zeta, delta=delta, lambda_hat=lambda_hat, r=X.r,
               seed=seed)
    if eta is not None:
        _check_run(eta=eta)
    big_l = float(np.log(2.0 / delta))
    if eta is None:
        eta = BURN_C * delta**2 * lambda_hat * zeta**3 / (X.r**2 * big_l**2)
    # as in select_parameters, the rate can underflow to 0 or to a
    # subnormal whose quotient overflows
    rate = float(eta * lambda_hat * zeta)
    horizon = BURN_C_PRIME * big_l / rate if rate > 0.0 else np.inf
    if not np.isfinite(horizon):
        raise ConfigError(f"burn-in horizon overflows at zeta={zeta:.3e}, "
                          f"lambda_hat={lambda_hat:.3e} and eta={eta:.3e}")
    budget = 10 * max(int(horizon), 1)

    # with a reference the stop rule reads only the potential; without one
    # the proxy rule reads residuals, at one covariance pass per check
    proxy = reference is None
    rec = _Recorder(reference)
    wt = w0.entries.copy()
    rec.add(0, 0, wt, 0)
    if not proxy and rec.records[0].potential <= 0.5:
        return w0, 0

    u, steps = _anchored_steps(X, wt, _dense_covariance(X, reference), eta)
    if proxy:
        rec.settle(wt, u)  # the start's residual, from u = A w0
    w = wt.copy()
    r0 = best = rec.records[0].residual
    stale = 0  # checks since the residual last fell by 1%
    for done in _segments(_stream(seed, BURN_IN_STREAM), X.n, budget,
                          max(min(budget // 512, 8192), 64), w,
                          "in burn-in at", steps):
        rec.add(0, done, w, done, _products(X, w) if proxy else None)
        last = rec.records[-1]
        if proxy:
            if last.residual < best * 0.99:
                best, stale = last.residual, 0
            else:
                stale += 1
        if ((best <= 0.5 * r0 and stale >= 8) if proxy
                else last.potential <= 0.5):
            return OrthonormalFrame(w), done
    raise NonConvergenceError(
        f"burn-in budget of {budget} iterations exhausted "
        f"(eta={eta:.3e}, horizon={int(horizon)})",
        trace=rec.trace(w), frame=OrthonormalFrame(w),
        iterations=budget)


def oja_baseline(X: DataMatrix, w0: OrthonormalFrame, eta_schedule, iters: int,
                 reference: OrthonormalFrame | None = None,
                 seed: int = 0) -> ConvergenceTrace:
    """Plain stochastic power steps w' = w + eta_t x (x^T w), normalized,
    on indices drawn from the run stream _stream(seed).

    ``eta_schedule`` is a positive number c giving the classical schedule
    eta_t = c/t, t from 1. Comparison baseline only: the runtime to a fixed
    accuracy scales polynomially in it. ``iters`` and ``eta_schedule`` are
    checked as the run parameters oja_iters and oja_eta0, and ``seed`` as
    the seed, against errors._RANGES before any pass. The steps are
    _steps_k1's with a = 0, eu = 0 and each chunk's eta_t as
    ``etas``, one segment per record (every max(iters // 10, 1) steps),
    with the solvers' degenerate-step report and iterate check.

    Each record's residual needs A w: from the covariance memo
    X.covariance() when a ``reference`` is given at d <= DENSE_GUARD,
    else from one covariance pass per record. The iterates do not depend
    on it.
    """
    _check_frame(X, w0, 1)
    _check_run(oja_iters=iters, oja_eta0=eta_schedule, seed=seed)
    cov = _dense_covariance(X, reference)
    a, eu = np.zeros(X.n), np.zeros(X.d)
    rec = _Recorder(reference)
    w = w0.entries.copy()
    rec.add(0, 0, w, 0, _products(X, w, cov))

    def steps(idx, t0, v, scale):
        return _steps_k1(X.data, idx, a, eu, 0.0, v, scale, etas=float(
            eta_schedule) / np.arange(t0 + 1, t0 + len(idx) + 1))

    for t in _segments(_stream(seed), X.n, iters, max(iters // 10, 1), w,
                       "in Oja at", steps):
        rec.add(1, t, w, t, _products(X, w, cov))
    return rec.trace(w)


def orthogonal_iteration(X: DataMatrix, W0: OrthonormalFrame, sweeps: int,
                         reference: OrthonormalFrame | None = None
                         ) -> ConvergenceTrace:
    """Deterministic baseline: W <- polar_normalize(A W) per sweep.

    The residual recorded for each sweep's frame reuses the product A W
    that the next sweep normalizes, so ``sweeps`` sweeps make sweeps + 1
    products A W. With a ``reference`` at d <= DENSE_GUARD they are
    cov @ W on the covariance memo X.covariance() and read no data;
    without one each is a covariance pass.
    """
    _check_frame(X, W0, W0.k)
    _check_run(sweeps=sweeps)
    cov = _dense_covariance(X, reference)
    rec = _Recorder(reference)
    w = W0.entries.copy()
    aw = _products(X, w, cov)
    rec.add(0, 0, w, 0, aw)
    for s in range(1, sweeps + 1):
        w = _polar(aw)
        aw = _products(X, w, cov)
        rec.add(s, 0, w, s * X.n, aw)
    return rec.trace(w)


def deflation_solve(X: DataMatrix, W0: OrthonormalFrame, cfg: SolverConfig,
                    reference: OrthonormalFrame | None = None
                    ) -> ConvergenceTrace:
    """Recover cfg.k leading eigenvectors one at a time with the vector
    solver, each stage on the data projected off the vectors already found.

    Stage j >= 2, with the found vectors B and P = I - B B^T, runs _epochs
    on a projected copy P X of the data (_projected), so it solves the
    covariance operator restricted to the orthogonal complement of B. Its
    start, column j of ``W0``, is projected into that complement, and its
    final vector once more against B; in between every sampled column and
    every anchor gradient u lies in the complement, so the iterates stay
    there. The copy costs d x n doubles (80 MB at d = 100, n = 10^5), one
    at a time. Stage j samples from the run stream _stream(cfg.seed)
    jumped j-1 times; stage 1 runs on X itself and reproduces vrpca_vector
    from column 1 exactly.

    After each stage one covariance pass over the j vectors found so far
    gives the trace one sweep-style record (cumulative epoch and samples,
    the potential of those vectors against ``reference``, their residual),
    the stage's eigenvalue estimate v_j^T (A V)_j, and the gap check: a
    GapWarning is emitted when consecutive estimates differ by at most
    GAP_RTOL = 1e-3 of the first (errors._warn_gap, leading_subspace's
    rule), since deflation needs a positive eigengap between all top k
    eigenvalues. The last record is the final frame's.

    Given a ``reference`` at d <= DENSE_GUARD, each record's A V comes from
    the covariance memo X.covariance(), and each stage's anchor gradient u
    from the memo or its projection P A. A run of E epochs per stage then
    reads the data in k E + (k - 1) products X^T W: E per stage, for X^T w~
    over X or the stage's copy, and one X^T B per copy. Building a copy
    also reads X once more, to subtract, and the copy once, for its column
    norms. Without a reference, u and A V are covariance passes: k E +
    (k - 1) + k products in all (a stage makes no final pass of its own,
    as the record pass replaces it).

    The stages run every epoch: they have no reference to measure a
    potential against, so cfg.epsilon is refused (vrpca_block stops on it).
    """
    _check_epsilon(cfg.epsilon, deflation=True)
    _check_frame(X, W0, cfg.k)
    cov = _dense_covariance(X, reference)
    rec = _Recorder(reference)
    found = np.empty((X.d, 0))
    estimates = []
    epoch = samples = 0
    for j in range(1, cfg.k + 1):
        basis = found if j > 1 else None
        w = W0.entries[:, j - 1:j].copy()
        _project_out(w, basis)
        Xj, cov_j = _projected(X, cov, basis)
        stage = _epochs(Xj, w, cfg, None, cov_j, jump=j - 1,
                        final_pass=False)
        del Xj, cov_j  # hold one stage copy at a time
        v = stage.final_frame.entries.copy()
        _project_out(v, basis)
        found = np.hstack((found, v))
        epoch += stage.records[-1].epoch
        samples += stage.samples
        aw = _products(X, found, cov)
        rec.add(epoch, 0, found, samples, aw)
        estimates.append((v.T @ aw[:, -1:]).item())
        if j >= 2:
            _warn_gap(estimates[-2] - estimates[-1], estimates[0],
                      f"the gap between estimated eigenvalues {j - 1} and {j}",
                      "deflation needs a positive gap between all leading "
                      "eigenvalues")
    return rec.trace(found)
