"""Initialization: Gaussian frames, the single-power-iteration warm start,
and numerical rank."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import GramCounter, counted

import vrpca
from vrpca import initialization, matrix
from vrpca import (ConfigError, DataMatrix, DegenerateIterateError,
                   DimensionMismatchError, SpectrumSpec, covariance_apply,
                   gaussian_init, numerical_rank, power_warm_start,
                   synthesize_dataset)


def _numpy_random_calls(path):
    """(enclosing function, line) of every call of an np.random attribute
    (a bit generator, a Generator, the legacy global draws) in ``path``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and ast.unparse(child.func.value) in ("np.random",
                                                          "numpy.random")):
                found.append((name, child.lineno))
            visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return found


def test_every_library_draw_comes_from_the_stream_helper():
    # _stream keys every draw
    allowed = {("initialization.py", "_stream")}
    src = Path(vrpca.__file__).parent
    calls = {(path.name, where): line
             for path in sorted(src.glob("*.py"))
             for where, line in _numpy_random_calls(path)}
    assert ("initialization.py", "_stream") in calls
    stray = {key: line for key, line in calls.items() if key not in allowed}
    assert not stray, f"np.random used outside _stream: {stray}"


class TestGaussianInit:
    def test_square_case_is_orthogonal(self):
        frame = gaussian_init(5, 5, seed=3)
        dev = np.max(np.abs(frame.entries.T @ frame.entries - np.eye(5)))
        assert dev <= 1e-10

    def test_reproducible(self):
        a = gaussian_init(8, 2, seed=42)
        b = gaussian_init(8, 2, seed=42)
        assert np.array_equal(a.entries, b.entries)
        c = gaussian_init(8, 2, seed=43)
        assert not np.array_equal(a.entries, c.entries)

    def test_k_exceeding_d_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_init(3, 4, seed=0)

    def test_mean_alignment_concentrates_near_one_over_d(self):
        d = 1000
        e1 = np.zeros(d)
        e1[0] = 1.0
        vals = [float((e1 @ gaussian_init(d, 1, seed=s).column(0)) ** 2)
                for s in range(200)]
        mean = float(np.mean(vals))
        assert 0.5 / d <= mean <= 2.0 / d


class TestPowerWarmStart:
    def test_rank_one_projector_recovers_axis(self):
        X = DataMatrix(np.array([[1.0], [0.0], [0.0]]))
        rep = power_warm_start(X, seed=5)
        w0 = rep.frame.column(0)
        assert abs(abs(w0[0]) - 1.0) <= 1e-14
        np.testing.assert_allclose(w0[1:], 0.0, atol=1e-14)

    def test_isotropic_covariance_is_identity_map(self):
        d = 6
        X = DataMatrix(np.eye(d))  # A proportional to the identity
        rep = power_warm_start(X, seed=7)
        rng = np.random.Generator(np.random.Philox(key=7))
        g = rng.standard_normal(d)
        np.testing.assert_allclose(rep.frame.column(0), g / np.linalg.norm(g),
                                   atol=1e-12)

    def test_alignment_reported_against_reference(self, small_k1):
        rep = power_warm_start(small_k1.Xs, seed=1,
                               reference=small_k1.reference(1))
        assert rep.alignment_sq is not None
        assert 0.0 <= rep.alignment_sq <= 1.0

    def test_block_extrapolation_satisfies_invariant(self, small_k1):
        rep = power_warm_start(small_k1.Xs, seed=2, k=3)
        w = rep.frame.entries
        assert np.max(np.abs(w.T @ w - np.eye(3))) <= 1e-10
        assert rep.alignment_sq is None

    @pytest.mark.parametrize("init", [
        lambda X, k: gaussian_init(X.d, k, seed=1),
        lambda X, k: power_warm_start(X, seed=1, k=k)],
        ids=["gaussian", "power"])
    def test_k_above_d_refused_before_the_draw(self, monkeypatch, init):
        # both starts refuse it alike, and neither draws nor applies A
        X = DataMatrix(np.random.default_rng(0).standard_normal((3, 8)))
        monkeypatch.setattr(initialization, "_stream", None)
        monkeypatch.setattr(initialization, "_products", None)
        with pytest.raises(DimensionMismatchError, match=r"^k=4 exceeds d=3$"):
            init(X, 4)

    @pytest.mark.parametrize("k, message", [
        (0, "k must be >= 1, got 0"),
        (-1, "k must be >= 1, got -1"),
        (1.5, "k must be an integer, got 1.5")])
    @pytest.mark.parametrize("init", [
        lambda X, k: gaussian_init(X.d, k, seed=1),
        lambda X, k: power_warm_start(X, seed=1, k=k)],
        ids=["gaussian", "power"])
    def test_k_below_one_or_not_integer_refused_before_the_draw(
            self, monkeypatch, init, k, message):
        X = DataMatrix(np.random.default_rng(0).standard_normal((3, 8)))
        monkeypatch.setattr(initialization, "_stream", None)
        monkeypatch.setattr(initialization, "_products", None)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            init(X, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_data_raises_after_one_application(self, monkeypatch, k):
        calls = []
        products = matrix._products

        def count(X, w, cov=None, a=None):
            calls.append(w.shape)
            return products(X, w, cov, a)

        monkeypatch.setattr(initialization, "_products", count)
        X = DataMatrix(np.zeros((4, 3)))
        with pytest.raises(DegenerateIterateError,
                           match=rf"A G has numerical rank < {k}"):
            power_warm_start(X, seed=1, k=k)
        assert len(calls) == 1

    def test_rank_short_product_raises(self):
        # rank-2 data: A G has rank 2 < 3 for every draw G
        rng = np.random.default_rng(6)
        X = DataMatrix(rng.standard_normal((8, 2)))
        assert power_warm_start(X, seed=4, k=2).frame.k == 2
        with pytest.raises(DegenerateIterateError,
                           match=r"A G has numerical rank < 3"):
            power_warm_start(X, seed=4, k=3)

    @pytest.mark.parametrize("scale", [1e-4, 1e-20, 1e20])
    def test_scaled_data_gives_the_unscaled_start(self, scale):
        # full-rank d=12, n=200 data: the start judges rank relative to the
        # scale of A G, so scaling the data moves the frame only by rounding
        X = DataMatrix(np.random.default_rng(12).standard_normal((12, 200)))
        Xc = DataMatrix(X.data * scale)
        for k in (1, 2, 3):
            for seed in (1, 2, 3):
                np.testing.assert_allclose(
                    power_warm_start(Xc, seed, k=k).frame.entries,
                    power_warm_start(X, seed, k=k).frame.entries,
                    rtol=0, atol=1e-12)


class TestNumericalRank:
    def test_direct_formula_on_planted_spectrum(self):
        eigs = (1.0, 0.5, 0.0, 0.0)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=eigs), 8, seed=1)
        assert numerical_rank(X) == pytest.approx(1.25, abs=1e-10)

    def test_flat_spectrum_gives_d(self):
        X = DataMatrix(np.eye(5) * 3.0)
        assert numerical_rank(X) == pytest.approx(5.0, abs=1e-10)

    def test_rank_one_gives_one(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal((6, 1))
        X = DataMatrix(np.tile(col, (1, 5)))
        assert numerical_rank(X) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_by_rank(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(2, 12))
            X = DataMatrix(rng.standard_normal((d, n)))
            a = X.data @ X.data.T / X.n
            rank = int(np.sum(np.linalg.eigvalsh(a) > 1e-10))
            nr = numerical_rank(X)
            assert 1.0 - 1e-12 <= nr <= rank + 1e-9
            assert nr <= d

    def test_gram_side_matches_covariance_side(self):
        # n < d exercises the n x n path; compare against the d x d value
        rng = np.random.default_rng(9)
        X = DataMatrix(rng.standard_normal((12, 5)))
        a = X.data @ X.data.T / X.n
        evals = np.clip(np.linalg.eigvalsh(a), 0.0, None)
        direct = float(np.sum(evals**2) / evals[-1] ** 2)
        assert numerical_rank(X) == pytest.approx(direct, rel=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateIterateError):
            numerical_rank(DataMatrix(np.zeros((3, 4))))

    def test_reads_the_covariance_memo(self):
        # n >= d: A comes from the memo, the same expression, so the value
        # is bit-equal to forming X X^T / n here, and the memo is formed once
        rng = np.random.default_rng(10)
        X = counted(DataMatrix(rng.standard_normal((6, 9))))
        a = np.asarray(X.data) @ np.asarray(X.data).T / X.n
        evals = np.clip(np.linalg.eigvalsh(a), 0.0, None)
        direct = float(np.sum(evals * evals) / float(evals[-1]) ** 2)
        GramCounter.formed = 0
        assert numerical_rank(X) == direct
        assert GramCounter.formed == 1
        assert numerical_rank(X) == direct
        assert GramCounter.formed == 1

    @pytest.mark.parametrize("d, n", [(2001, 2001), (2001, 5000),
                                      (5000, 2001)])
    def test_dense_guard(self, d, n):
        class _TooBig:  # stand-in: the guard fires before data is touched
            pass

        big = _TooBig()
        big.d, big.n = d, n
        with pytest.raises(DimensionMismatchError,
                           match=r"d=2001 exceeds the dense guard"):
            numerical_rank(big)

    def test_below_the_guard_on_the_small_side(self):
        # n < d with d past the guard still works: only n x n is formed
        rng = np.random.default_rng(11)
        X = DataMatrix(rng.standard_normal((2001, 3)))
        assert 1.0 <= numerical_rank(X) <= 3.0


class TestWarmStartDominance:
    def test_median_alignment_ratio_on_low_rank_instance(self):
        # numerical rank ~ 3 at d = 500: the warm start should beat the
        # plain Gaussian draw by far more than 5x in median
        d = n = 500
        eigs = [1.0, 0.85, 0.85, 0.74] + [1e-3] * (d - 4)
        X = synthesize_dataset(SpectrumSpec(eigenvalues=tuple(eigs)), n, seed=2)
        w = np.ones(d) / np.sqrt(d)
        for _ in range(200):
            w = covariance_apply(X, w)
            w /= np.linalg.norm(w)
        v1 = w
        ratios = []
        for seed in range(200):
            rng = np.random.Generator(np.random.Philox(key=seed))
            g = rng.standard_normal(d)
            warm = covariance_apply(X, g)
            warm /= np.linalg.norm(warm)
            gauss = g / np.linalg.norm(g)
            ratios.append(float((v1 @ warm) ** 2) / float((v1 @ gauss) ** 2))
        assert float(np.median(ratios)) >= 5.0
