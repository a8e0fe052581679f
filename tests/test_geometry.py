"""Rayleigh-quotient geometry: closed forms vs finite differences, the
non-convexity certificate, the convexity region, and the tightness
counterexample."""

import re

import numpy as np
import pytest

from vrpca import geometry
from vrpca import (ConfigError, DataMatrix, DimensionMismatchError, Spectrum,
                   build_convex_region, dense_eigh, directional_curvature,
                   nonconvexity_certificate, probe_strong_convexity,
                   rayleigh, rayleigh_grad, rayleigh_hessian,
                   synthesize_dataset, tightness_counterexample)
from vrpca.oracle import SpectrumSpec


def projector_2d():
    """Dataset with covariance diag(1, 0)."""
    return DataMatrix(np.array([[1.0], [0.0]]))


def random_instance(rng, d):
    return DataMatrix(rng.standard_normal((d, 2 * d + 3)))


def fd_gradient(X, w, h=1e-5):
    d = w.size
    out = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[i] = (rayleigh(X, w + e) - rayleigh(X, w - e)) / (2.0 * h)
    return out


def fd_hessian(X, w, h=1e-4):
    d = w.size
    out = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        gp = fd_gradient(X, w + ei, h=h)
        gm = fd_gradient(X, w - ei, h=h)
        out[i] = (gp - gm) / (2.0 * h)
    return (out + out.T) / 2.0


class TestRayleigh:
    def test_eigenvector_value(self):
        X = projector_2d()
        assert rayleigh(X, np.array([1.0, 0.0])) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        X = random_instance(rng, 5)
        w = rng.standard_normal(5)
        base = rayleigh(X, w)
        for c in (0.5, 2.0, 10.0):
            assert rayleigh(X, c * w) == pytest.approx(base, rel=1e-12)

    def test_diagonal_hand_value(self):
        X = projector_2d()
        assert rayleigh(X, np.array([1.0, 1.0])) == pytest.approx(-0.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigError):
            rayleigh(projector_2d(), np.zeros(2))

    @pytest.mark.parametrize("call, message", [
        (lambda X: rayleigh(X, np.ones(3)), "vector has size 3, expected 2"),
        (lambda X: rayleigh_hessian(X, np.ones(1)),
         "vector has size 1, expected 2"),
        (lambda X: directional_curvature(X, np.ones(2), np.ones(3)),
         "direction has size 3, expected 2")])
    def test_operand_of_the_wrong_size_refused(self, call, message):
        with pytest.raises(DimensionMismatchError) as err:
            call(projector_2d())
        assert str(err.value) == message


class TestGradient:
    def test_stationary_at_eigenvector(self):
        X = projector_2d()
        g = rayleigh_grad(X, np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_hand_value(self):
        # covariance diag(1,0) at w=(1,1): value -1/2, gradient (-1/2, 1/2)
        X = projector_2d()
        g = rayleigh_grad(X, np.array([1.0, 1.0]))
        np.testing.assert_allclose(g, [-0.5, 0.5], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = random_instance(rng, 6)
        for _ in range(20):
            w = rng.standard_normal(6)
            w *= rng.uniform(0.7, 1.5) / np.linalg.norm(w)
            np.testing.assert_allclose(rayleigh_grad(X, w),
                                       fd_gradient(X, w), atol=1e-6)

    def test_lipschitz_outside_unit_ball(self):
        # gradient norm at most 4 for ||w|| >= 1 on spectral-norm-1 data
        eigs = (1.0, 0.6, 0.3, 0.1)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), 8, seed=3)
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.standard_normal(4)
            w *= rng.uniform(1.0, 5.0) / np.linalg.norm(w)
            assert np.linalg.norm(rayleigh_grad(X, w)) <= 4.0 + 1e-9


class TestHessian:
    def test_symmetric(self):
        rng = np.random.default_rng(5)
        X = random_instance(rng, 5)
        h = rayleigh_hessian(X, rng.standard_normal(5))
        assert np.array_equal(h, h.T)

    def test_projector_determinant_identity(self):
        X = projector_2d()
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = rng.standard_normal(2)
            rho = w @ w
            det = np.linalg.det(rayleigh_hessian(X, w))
            expected = -4.0 * w[0] ** 2 * w[1] ** 2 / rho**4
            assert det == pytest.approx(expected, abs=1e-10)
            assert det <= 1e-12
            if abs(w[0] * w[1]) > 1e-3:
                assert det < -1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        X = random_instance(rng, 5)
        for _ in range(10):
            w = rng.standard_normal(5)
            w *= rng.uniform(0.8, 1.4) / np.linalg.norm(w)
            np.testing.assert_allclose(rayleigh_hessian(X, w),
                                       fd_hessian(X, w), atol=1e-4)

    def test_spectral_norm_bound(self):
        # at most 20 for ||w|| >= 1 on spectral-norm-1 instances
        eigs = (1.0, 0.75, 0.5, 0.25, 0.1)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), 10, seed=4)
        rng = np.random.default_rng(15)
        for _ in range(200):
            w = rng.standard_normal(5)
            w *= rng.uniform(1.0, 3.0) / np.linalg.norm(w)
            h = rayleigh_hessian(X, w)
            assert np.max(np.abs(np.linalg.eigvalsh(h))) <= 20.0 + 1e-9

    def test_directional_curvature_matches_dense(self):
        rng = np.random.default_rng(17)
        X = random_instance(rng, 7)
        for _ in range(20):
            w = rng.standard_normal(7)
            g = rng.standard_normal(7)
            dense = float(g @ rayleigh_hessian(X, w) @ g)
            assert directional_curvature(X, w, g) == pytest.approx(
                dense, rel=1e-10, abs=1e-12)


class TestNonconvexityCertificate:
    def test_off_axis_points_are_not_psd(self):
        X = projector_2d()
        is_psd, witness = nonconvexity_certificate(X, np.array([1.0, 1.0]))
        assert not is_psd
        h = rayleigh_hessian(X, np.array([1.0, 1.0]))
        assert float(witness @ h @ witness) < -1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
    def test_negative_curvature_is_found_at_every_scale(self, scale):
        # the Hessian scales with the data's square: an absolute psd_tol
        # called the 1e-6 instance's Hessian (eigenvalues ~1e-12) PSD
        X = DataMatrix(np.array([[scale], [0.0]]))
        w = np.array([0.6, 0.8])
        is_psd, witness = nonconvexity_certificate(X, w)
        assert not is_psd
        assert float(witness @ rayleigh_hessian(X, w) @ witness) < 0.0

    def test_axis_point_is_borderline(self):
        X = projector_2d()
        is_psd, witness = nonconvexity_certificate(X, np.array([1.0, 0.0]))
        assert is_psd
        assert witness is None

    def test_witness_quadratic_form_negative(self):
        rng = np.random.default_rng(19)
        for trial in range(30):
            X = random_instance(rng, 4)
            w = rng.standard_normal(4)
            is_psd, witness = nonconvexity_certificate(X, w)
            if witness is not None:
                h = rayleigh_hessian(X, w)
                assert float(witness @ h @ witness) < -1e-12


@pytest.fixture(scope="module")
def gap_instance():
    lam = 0.2
    eigs = [1.0, 1.0 - lam] + [(1.0 - lam) * 0.5**j for j in range(1, 7)]
    X = synthesize_dataset(SpectrumSpec(eigenvalues=tuple(eigs)), 32, seed=21)
    return X, dense_eigh(X), lam


class TestConvexRegion:
    def test_region_at_v1_contains_itself(self, gap_instance):
        X, spec, lam = gap_instance
        v1 = spec.eigenvectors.entries[:, 0]
        region = build_convex_region(spec, v1)
        np.testing.assert_allclose(region.projected_optimum, v1, atol=1e-12)
        assert region.contains(v1)
        assert region.radius == pytest.approx(spec.gap_at(1) / 22.0)

    def test_projected_optimum_within_five_quarters(self, gap_instance):
        X, spec, lam = gap_instance
        v1 = spec.eigenvectors.entries[:, 0].copy()
        rng = np.random.default_rng(23)
        tang = rng.standard_normal(v1.size)
        tang -= (tang @ v1) * v1
        tang /= np.linalg.norm(tang)
        gap = spec.gap_at(1)
        eps = 0.9 * gap / 44.0
        w0 = v1 + eps * tang
        w0 /= np.linalg.norm(w0)
        region = build_convex_region(spec, w0)
        v1p = region.projected_optimum
        dist0 = np.linalg.norm(w0 - v1)
        assert abs(float(v1p @ w0) - 1.0) <= 1e-12
        assert np.linalg.norm(v1p - w0) <= 1.25 * dist0
        assert region.contains(v1p)

    def test_too_far_start_rejected(self, gap_instance):
        X, spec, lam = gap_instance
        v1 = spec.eigenvectors.entries[:, 0].copy()
        rng = np.random.default_rng(24)
        tang = rng.standard_normal(v1.size)
        tang -= (tang @ v1) * v1
        tang /= np.linalg.norm(tang)
        gap = spec.gap_at(1)
        w0 = v1 + (2.0 * gap / 44.0) * tang
        w0 /= np.linalg.norm(w0)
        with pytest.raises(ConfigError, match="44"):
            build_convex_region(spec, w0)

    def test_start_near_minus_v1_flips_its_sign(self, gap_instance):
        # the leading eigenvector's sign is the one nearer to w0
        X, spec, lam = gap_instance
        v1 = spec.eigenvectors.entries[:, 0]
        region = build_convex_region(spec, -v1)
        np.testing.assert_allclose(region.projected_optimum, -v1, atol=1e-12)
        assert region.contains(-v1)

    @pytest.mark.parametrize("change, error, message", [
        (lambda s, v: (s, np.append(v, 0.0)), DimensionMismatchError,
         "w0 has size 9, spectrum dimension is 8"),
        (lambda s, v: (s, 2.0 * v), ConfigError, "w0 must be a unit vector"),
        (lambda s, v: (Spectrum(2.0 * s.eigenvalues, s.eigenvectors), v),
         ConfigError, r"spectral norm must be 1 \(got 2\)"),
        (lambda s, v: (Spectrum(np.ones(8), s.eigenvectors), v),
         ConfigError, "zero eigengap")])
    def test_malformed_inputs_rejected(self, gap_instance, change, error,
                                       message):
        X, spec, lam = gap_instance
        with pytest.raises(error, match=message):
            build_convex_region(*change(spec, spec.eigenvectors.entries[:, 0]))

    def test_probe_bounds(self, gap_instance):
        X, spec, lam = gap_instance
        v1 = spec.eigenvectors.entries[:, 0]
        region = build_convex_region(spec, v1)
        lo, hi = probe_strong_convexity(region, X, samples=2000, seed=1)
        gap = spec.gap_at(1)
        assert lo >= gap - 1e-9
        assert hi <= 20.0 + 1e-9

    def test_single_tangent_direction_curvature(self, gap_instance):
        X, spec, lam = gap_instance
        v1 = spec.eigenvectors.entries[:, 0]
        v2 = spec.eigenvectors.entries[:, 1].copy()
        v2 -= (v2 @ v1) * v1
        v2 /= np.linalg.norm(v2)
        curv = directional_curvature(X, v1, v2)
        assert curv >= spec.gap_at(1) - 1e-9

    def test_probe_refuses_data_of_another_dimension(self, gap_instance):
        X, spec, lam = gap_instance
        region = build_convex_region(spec, spec.eigenvectors.entries[:, 0])
        other = DataMatrix(np.ones((X.d + 1, 3)))
        with pytest.raises(DimensionMismatchError) as err:
            probe_strong_convexity(region, other, samples=4, seed=0)
        assert str(err.value) == (
            f"data dimension {X.d + 1} != region dimension {X.d}")

    def test_empty_probe_rejected(self, gap_instance):
        X, spec, lam = gap_instance
        region = build_convex_region(spec, spec.eigenvectors.entries[:, 0])
        with pytest.raises(ConfigError, match=r"^samples must be >= 1, got 0$"):
            probe_strong_convexity(region, X, samples=0, seed=0)

    @pytest.mark.parametrize("samples, message", [
        (1.5, "samples must be an integer, got 1.5"),
        (True, "samples must be an integer, got True"),
        (0, "samples must be >= 1, got 0"),
        (-1, "samples must be >= 1, got -1")])
    def test_sample_count_refused_before_the_draw(self, monkeypatch,
                                                  gap_instance, samples,
                                                  message):
        X, spec, lam = gap_instance
        region = build_convex_region(spec, spec.eigenvectors.entries[:, 0])
        monkeypatch.setattr(geometry, "_stream", None)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            probe_strong_convexity(region, X, samples=samples, seed=0)


class TestTightnessCounterexample:
    def test_frozen_second_derivative(self):
        cx = tightness_counterexample(0.2, 0.1)
        assert cx.second_derivative_at_0 == pytest.approx(-0.04, abs=1e-12)
        assert cx.second_derivative(0.0) == pytest.approx(-0.04, abs=1e-12)

    def test_matches_numerical_second_derivative(self):
        cx = tightness_counterexample(0.2, 0.1)
        h = 3e-4
        f = lambda t: rayleigh(cx.dataset, cx.point(t))
        numeric = (f(h) - 2.0 * f(0.0) + f(-h)) / h**2
        assert numeric == pytest.approx(cx.second_derivative_at_0, abs=1e-6)

    def test_closed_form_along_ray(self):
        cx = tightness_counterexample(0.3, 0.25)
        h = 3e-4
        for t in (0.1, 0.5, 1.0):
            f = lambda s: rayleigh(cx.dataset, cx.point(s))
            numeric = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
            assert numeric == pytest.approx(cx.second_derivative(t), abs=1e-5)

    def test_sign_change_at_inflection(self):
        cx = tightness_counterexample(0.2, 0.1)
        t = 1.0 / np.sqrt(3.0)
        assert cx.second_derivative(t) == pytest.approx(0.0, abs=1e-15)
        assert cx.second_derivative(t - 1e-3) < 0.0
        assert cx.second_derivative(t + 1e-3) > 0.0

    def test_distance_to_optimum(self):
        lam, eps = 0.2, 0.1
        cx = tightness_counterexample(lam, eps)
        v1 = np.array([1.0, 0.0, 0.0])
        dist = np.linalg.norm(v1 - cx.w0)
        # exact distance of the construction, and the stated upper bound
        p2 = (1.0 + eps) * lam
        exact = np.sqrt(2.0 * (1.0 - np.sqrt(1.0 - p2)))
        assert dist == pytest.approx(exact, abs=1e-12)
        assert dist <= np.sqrt(2.0 * p2) + 1e-10

    def test_ray_stays_on_tangent_hyperplane(self):
        cx = tightness_counterexample(0.15, 0.2)
        for t in (0.0, 0.3, 2.0):
            assert float(cx.point(t) @ cx.w0) == pytest.approx(1.0, abs=1e-12)

    def test_covariance_matches_construction(self):
        lam = 0.2
        cx = tightness_counterexample(lam, 0.1)
        a = cx.dataset.data @ cx.dataset.data.T / cx.dataset.n
        np.testing.assert_allclose(a, np.diag([1.0, 1.0 - lam, 0.0]),
                                   atol=1e-14)

    def test_parameter_domain(self):
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ConfigError):
                tightness_counterexample(bad, 0.1)
            with pytest.raises(ConfigError):
                tightness_counterexample(0.1, bad)
