"""Acceptance suite.

One test per acceptance criterion, each at its pre-registered tolerance,
printing a PASS/FAIL line (visible with ``pytest -s`` or in captured output).
Solver thresholds were frozen from a scratch reference run of the exact
update rules before this implementation was written.
"""

import time
from contextlib import contextmanager

import numpy as np

from vrpca import (DataMatrix, OrthonormalFrame, SolverConfig, SpectrumSpec,
                   covariance_apply, dense_eigh, gaussian_init,
                   numerical_rank, potential, power_warm_start,
                   procrustes_rotation, rayleigh_grad, rayleigh_hessian,
                   build_convex_region, probe_strong_convexity,
                   select_parameters, synthesize_dataset,
                   tightness_counterexample, vrpca_block, vrpca_vector)
from conftest import random_orthogonal
from jacobi_reference import jacobi_eigh


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL {name}")
        raise
    print(f"[acceptance] PASS {name}")


def test_geometric_convergence_vector(std_k1):
    """Per-epoch geometric contraction and 1e-8 final potential on the
    standard eigengap-0.3 instance, parameters from the selection rule."""
    with criterion("geometric convergence (vector solver, eigengap 0.3)"):
        t0 = time.perf_counter()
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=1, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, std_k1.Xs.r, 1, delta=0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=10, seed=1, delta=0.25)
        trace = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        elapsed = time.perf_counter() - t0

        pots = trace.epoch_potentials()
        assert len(pots) == 11  # start + 10 epochs
        ratios = [b / a for a, b in zip(pots, pots[1:])]
        assert sum(r <= 0.7 for r in ratios) >= 8
        assert pots[-1] <= 1e-8
        assert elapsed < 5.0


def test_block_solver_and_k1_equivalence(std_k3, std_k1):
    """Block solver reaches 1e-6 within 15 epochs on the k=3 instance;
    its k=1 specialization is iterate-identical to the vector solver (the
    anchor overlap stays nonnegative on this instance, so B = I)."""
    with criterion("block solver convergence + k=1 equivalence"):
        ref3 = std_k3.reference(3)
        w0 = power_warm_start(std_k3.Xs, seed=1, k=3).frame
        eta, m = select_parameters(std_k3.gap, std_k3.Xs.r, 3, delta=0.8)
        cfg = SolverConfig(k=3, eta=eta, m=m, epochs=15, seed=1, delta=0.8)
        trace = vrpca_block(std_k3.Xs, w0, cfg, ref3)
        assert trace.epoch_potentials()[-1] <= 1e-6

        ref1 = std_k1.reference(1)
        w0v = power_warm_start(std_k1.Xs, seed=1, reference=ref1).frame
        eta1, m1 = select_parameters(std_k1.gap, std_k1.Xs.r, 1, delta=0.25)
        cfg1 = SolverConfig(k=1, eta=eta1, m=m1, epochs=10, seed=1)
        tv = vrpca_vector(std_k1.Xs, w0v, cfg1, ref1)
        tb = vrpca_block(std_k1.Xs, w0v, cfg1, ref1)
        diff = float(np.max(np.abs(tv.final_frame.entries
                                   - tb.final_frame.entries)))
        assert diff <= 1e-12


def test_warm_start_alignment_bound():
    """The single-power-iteration warm start clears the alignment bound
    delta^2 / (12 log(d) nrank) with the stated frequency at d=500."""
    with criterion("warm-start alignment bound (d=500, nrank ~ 3)"):
        t0 = time.perf_counter()
        d = n = 500
        eigs = (1.0, 0.85, 0.85, 0.74) + (1e-3,) * (d - 4)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), n, seed=2)

        # reference leading eigenvector by repeated exact power steps,
        # certified by its invariant-subspace residual
        w = np.ones(d) / np.sqrt(d)
        for _ in range(300):
            w = covariance_apply(X, w)
            w /= np.linalg.norm(w)
        aw = covariance_apply(X, w)
        assert np.linalg.norm(aw - (w @ aw) * w) <= 1e-12
        v1 = w

        nrank = numerical_rank(X)
        assert 2.5 <= nrank <= 3.5
        delta = 0.2
        threshold = delta**2 / (12.0 * np.log(d) * nrank)
        hits = 0
        seeds = 500
        for s in range(seeds):
            rep = power_warm_start(X, seed=1000 + s)
            hits += float(v1 @ rep.frame.column(0)) ** 2 >= threshold
        elapsed = time.perf_counter() - t0
        assert hits / seeds >= 1.0 - 1.0 / d - delta
        assert elapsed < 10.0


def test_hessian_determinant_identity():
    """On the 2-D projector instance the Hessian determinant follows the
    closed form and is strictly negative off the axes."""
    with criterion("Hessian determinant identity (2-D projector)"):
        X = DataMatrix(np.array([[1.0], [0.0]]))
        rng = np.random.default_rng(29)
        for _ in range(100):
            w = rng.standard_normal(2)
            rho = float(w @ w)
            h = rayleigh_hessian(X, w)
            det = float(np.linalg.det(h))
            expected = -4.0 * w[0] ** 2 * w[1] ** 2 / rho**4
            assert abs(det - expected) <= 1e-10
            assert det <= 1e-12
            if abs(w[0] * w[1]) > 1e-3:
                assert det < -1e-12
                assert float(np.linalg.eigvalsh(h)[0]) < 0.0


def test_gradient_hessian_finite_differences():
    """Closed-form gradient and Hessian agree with central differences on
    100 random instances."""
    with criterion("gradient/Hessian vs central finite differences"):
        rng = np.random.default_rng(31)
        from vrpca import rayleigh

        for _ in range(100):
            d = int(rng.integers(2, 9))
            X = DataMatrix(rng.standard_normal((d, 2 * d + 3)))
            w = rng.standard_normal(d)
            w *= rng.uniform(0.8, 1.5) / np.linalg.norm(w)

            h = 1e-5
            fd_g = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd_g[i] = (rayleigh(X, w + e) - rayleigh(X, w - e)) / (2 * h)
            assert np.max(np.abs(rayleigh_grad(X, w) - fd_g)) <= 1e-6

            h2 = 1e-4
            fd_h = np.zeros((d, d))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h2
                gp = rayleigh_grad(X, w + e)
                gm = rayleigh_grad(X, w - e)
                fd_h[i] = (gp - gm) / (2 * h2)
            fd_h = (fd_h + fd_h.T) / 2.0
            assert np.max(np.abs(rayleigh_hessian(X, w) - fd_h)) <= 1e-4


def test_strong_convexity_probe():
    """10^4 sampled curvatures on the tangent-hyperplane region stay in
    [eigengap, 20], and the projected optimum lies inside the region."""
    with criterion("strong-convexity window probe (eigengap 0.2)"):
        lam = 0.2
        d = 8
        eigs = [1.0, 1.0 - lam] + [(1.0 - lam) * 0.5**j
                                   for j in range(1, d - 1)]
        X = synthesize_dataset(SpectrumSpec(eigenvalues=tuple(eigs)),
                               4 * d, seed=33)
        spec = dense_eigh(X)
        gap = spec.gap_at(1)
        v1 = spec.eigenvectors.entries[:, 0].copy()
        rng = np.random.default_rng(34)
        tang = rng.standard_normal(d)
        tang -= (tang @ v1) * v1
        tang /= np.linalg.norm(tang)
        eps = 0.9 * gap / 44.0
        w0 = v1 + eps * tang
        w0 /= np.linalg.norm(w0)
        region = build_convex_region(spec, w0)

        lo, hi = probe_strong_convexity(region, X, samples=10000, seed=35)
        assert lo >= gap - 1e-9
        assert hi <= 20.0 + 1e-9

        v1p = region.projected_optimum
        dist0 = float(np.linalg.norm(w0 - (v1 if v1 @ w0 > 0 else -v1)))
        assert float(np.linalg.norm(v1p - w0)) <= 1.25 * dist0
        assert region.contains(v1p)


def test_tightness_counterexample():
    """The eigengap-0.2 counterexample has directional second derivative
    -0.04 at t=0, matches its closed form, and w0 sits within the stated
    distance bound of the optimum (the exact distance of the construction
    is strictly inside the bound)."""
    with criterion("tightness counterexample (lam=0.2, eps=0.1)"):
        lam, eps = 0.2, 0.1
        cx = tightness_counterexample(lam, eps)
        assert abs(cx.second_derivative_at_0 - (-0.04)) <= 1e-9

        from vrpca import rayleigh
        h = 3e-4
        f = lambda t: rayleigh(cx.dataset, cx.point(t))
        numeric = (f(h) - 2.0 * f(0.0) + f(-h)) / h**2
        assert abs(numeric - (-0.04)) <= 1e-6
        for t in (0.0, 0.25, 1.0 / np.sqrt(3.0)):
            closed = 2.0 * (3 * t * t - 1) * eps * lam / (t * t + 1) ** 3
            assert abs(cx.second_derivative(t) - closed) <= 1e-15

        v1 = np.array([1.0, 0.0, 0.0])
        dist = float(np.linalg.norm(v1 - cx.w0))
        bound = np.sqrt(2.0 * (1.0 + eps) * lam)
        assert dist <= bound + 1e-10
        p2 = (1.0 + eps) * lam
        exact = np.sqrt(2.0 * (1.0 - np.sqrt(1.0 - p2)))
        assert abs(dist - exact) <= 1e-10


def test_procrustes_optimality():
    """The computed alignment beats a 10^4-point brute-force grid over all
    2x2 orthogonal matrices, and the alignment-error bound holds on 1000
    random instances."""
    with criterion("Procrustes optimality vs brute-force grid"):
        rng = np.random.default_rng(37)
        theta = np.linspace(0.0, 2.0 * np.pi, 5000, endpoint=False)
        ct, st = np.cos(theta), np.sin(theta)
        rots = np.stack([np.stack([ct, -st], -1), np.stack([st, ct], -1)], -2)
        refl = rots.copy()
        refl[..., 1] *= -1.0
        grid = np.concatenate([rots, refl])  # 10^4 orthogonal matrices

        for trial in range(25):
            c = OrthonormalFrame(random_orthogonal(6, rng)[:, :2])
            d_frame = OrthonormalFrame(random_orthogonal(6, rng)[:, :2])
            b = procrustes_rotation(c, d_frame)
            achieved = float(np.linalg.norm(
                c.entries - d_frame.entries @ b) ** 2)
            vals = np.linalg.norm(
                c.entries[None] - d_frame.entries[None] @ grid,
                axis=(1, 2)) ** 2
            assert achieved <= float(vals.min()) + 1e-12

        for trial in range(1000):
            k = int(rng.integers(1, 4))
            c = OrthonormalFrame(random_orthogonal(7, rng)[:, :k])
            d_frame = OrthonormalFrame(random_orthogonal(7, rng)[:, :k])
            b = procrustes_rotation(c, d_frame)
            lhs = float(np.linalg.norm(
                c.entries - d_frame.entries @ b) ** 2)
            rhs = 2.0 * (k - float(np.linalg.norm(
                c.entries.T @ d_frame.entries) ** 2))
            assert lhs <= rhs + 1e-10


def test_oracle_soundness():
    """LAPACK oracle and test-side Jacobi reconstruction errors stay below
    1e-10 on random instances up to d=50, and synthesize -> decompose
    reproduces requested spectra."""
    with criterion("oracle soundness (LAPACK + Jacobi + synthesizer "
                   "round-trip)"):
        rng = np.random.default_rng(41)
        for d in (2, 5, 13, 30, 50):
            X = DataMatrix(rng.standard_normal((d, 2 * d + 5)))
            a = X.data @ X.data.T / X.n
            evals, evecs, _ = jacobi_eigh(a)
            recon = (evecs * evals) @ evecs.T
            assert float(np.linalg.norm(recon - a)) <= 1e-10
            spec = dense_eigh(X)
            v = spec.eigenvectors.entries
            recon = (v * spec.eigenvalues) @ v.T
            assert float(np.linalg.norm(recon - a)) <= 1e-10

        for seed, eigs in ((1, (1.0, 0.7, 0.4)),
                           (2, (1.0, 0.7) + tuple(
                               0.7 * 3.0 ** -j for j in range(1, 21))),
                           (3, (2.0, 2.0, 0.5, 0.0))):
            spec_req = SpectrumSpec(eigenvalues=eigs)
            X = synthesize_dataset(spec_req, 2 * len(eigs), seed=seed)
            spec = dense_eigh(X)
            assert np.max(np.abs(spec.eigenvalues
                                 - np.asarray(eigs))) <= 1e-10


def test_invariant_suite(std_k1):
    """Orthonormality of every epoch boundary, fixed-point preservation,
    bitwise determinism, and rotation invariance of the potential."""
    with criterion("invariant suite (orthonormality, fixed point, "
                   "determinism, rotation invariance)"):
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=3, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, std_k1.Xs.r, 1, delta=0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=3, seed=3)

        # orthonormality at every boundary (frames re-validate on wrap, so
        # check the raw trace values directly)
        trace = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        final = trace.final_frame.entries
        assert abs(float(final[:, 0] @ final[:, 0]) - 1.0) <= 1e-10

        ref3 = std_k1.reference(3)
        w03 = gaussian_init(std_k1.Xs.d, 3, seed=4)
        cfg3 = SolverConfig(k=3, eta=eta, m=500, epochs=3, seed=4)
        tr3 = vrpca_block(std_k1.Xs, w03, cfg3, ref3)
        w3 = tr3.final_frame.entries
        assert np.max(np.abs(w3.T @ w3 - np.eye(3))) <= 1e-10

        # fixed point: starting exactly at the leading subspace, the noise
        # term cancels and the potential never leaves the floor
        cfg_fp = SolverConfig(k=3, eta=eta, m=1000, epochs=1, seed=5)
        tr_fp = vrpca_block(std_k1.Xs, ref3, cfg_fp, ref3)
        assert max(r.potential for r in tr_fp.records) <= 1e-10

        # determinism: identical inputs give bit-identical traces
        t1 = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        t2 = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        assert np.array_equal(t1.final_frame.entries, t2.final_frame.entries)
        assert [(r.epoch, r.iteration, r.potential, r.residual, r.samples)
                for r in t1.records] == \
               [(r.epoch, r.iteration, r.potential, r.residual, r.samples)
                for r in t2.records]

        # rotation invariance of the potential
        rng = np.random.default_rng(43)
        w = gaussian_init(std_k1.Xs.d, 3, seed=6)
        base = potential(ref3, w)
        for _ in range(25):
            q = random_orthogonal(3, rng)
            rotated = OrthonormalFrame(w.entries @ q)
            assert abs(potential(ref3, rotated) - base) <= 1e-12
