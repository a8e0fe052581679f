"""The compiled kernel: the k=1 steps bit for bit with their numpy reference,
across calls that carry the pending scale and across the builds of each
per-CPU copy, the degenerate-step report, the numpy fallback,
and the build cache under concurrent first use; the synthesizer's row
balancing, bit for bit with its numpy loop and an -O0 build; the operand
contracts checked before any C call, the in-place LAPACK QR against
numpy.linalg.qr and its contract, the ctypes table against the C
prototypes, and the suite's numpy floating-point warnings as errors."""

import ctypes
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from conftest import spectrum_k1
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth_reference import _dot8, synthesize_reference

from vrpca import (DataMatrix, DegenerateIterateError, DimensionMismatchError,
                   ExperimentConfig, SolverConfig, SpectrumSpec, burn_in,
                   deflation_solve, gaussian_init, oja_baseline,
                   power_warm_start, run_experiment, select_parameters,
                   synthesize_dataset, vrpca_block, vrpca_vector)
from vrpca import _native, oracle, solvers

needs_cc = pytest.mark.skipif(_native._compiler() is None,
                              reason="no C compiler on PATH")


def _unit(v):
    return v / np.linalg.norm(v)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An unloaded kernel whose cache is an empty temporary directory;
    yields the list of directories _build was called with."""
    builds = []
    real = _native._build

    def counting(cache_dir, cc):
        builds.append(cache_dir)
        return real(cache_dir, cc)

    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_native, "_build", counting)
    return builds


def _random_operands(d, n, m, rotate, per_step, eta, seed):
    """Operands (xd, idx, a, eu, w0, anchor, etas) of m k=1 steps on random
    d x n data scaled as the pipeline runs it."""
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.standard_normal((d, n)))
    xd = X.data / np.sqrt(X.r)  # unit max column norm, as the pipeline runs
    xd = np.asfortranarray(xd)
    wt = _unit(rng.standard_normal(d))
    a = xd.T @ wt
    eu = eta * (xd @ a / n)
    w0 = _unit(rng.standard_normal(d))
    idx = rng.integers(0, n, size=m)
    etas = rng.uniform(1e-3, 0.3, size=m) if per_step else None
    return xd, idx, a, eu, w0, wt if rotate else None, etas


@needs_cc
@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 40), n=st.integers(1, 30), m=st.integers(0, 120),
       rotate=st.booleans(), per_step=st.booleans(),
       eta=st.floats(1e-3, 0.3), seed=st.integers(0, 2**32 - 1))
# one column taken 91 times with the rotation on: w^T w~ keeps changing
# sign, which amplified any difference in rounding past 1e-12
@example(d=4, n=1, m=91, rotate=True, per_step=True, eta=0.03125, seed=0)
def test_compiled_matches_numpy_reference(d, n, m, rotate, per_step, eta,
                                          seed):
    assert _native._library() is not None  # a compiler is here: it must build
    xd, idx, a, eu, w0, anchor, etas = _random_operands(
        d, n, m, rotate, per_step, eta, seed)
    w_c, w_np = w0.copy(), w0.copy()
    sc_c, sc_np = np.ones(1), np.ones(1)
    bad_c = solvers._steps_k1(xd, idx, a, eu, eta, w_c, sc_c, anchor, etas)
    bad_np = solvers._steps_k1_numpy(xd, idx, a, eu, eta, w_np, sc_np, anchor,
                                     etas)
    assert bad_c == bad_np
    assert np.array_equal(w_c, w_np)
    assert np.array_equal(sc_c, sc_np)
    if not bad_c:
        assert abs(np.linalg.norm(w_c * sc_c[0]) - 1.0) <= 1e-14


@pytest.mark.parametrize("steps", [
    pytest.param(solvers._steps_k1, marks=needs_cc, id="compiled"),
    pytest.param(solvers._steps_k1_numpy, id="numpy")])
@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 20), n=st.integers(1, 12), m=st.integers(0, 40),
       split=st.integers(0, 40), rotate=st.booleans(),
       per_step=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_split_calls_give_the_bits_of_one(steps, d, n, m, split, rotate,
                                          per_step, seed):
    # the iterate stays unnormalized between calls: one call of m steps,
    # and two calls split at any step that carry w and its pending scale,
    # must leave the same bits (a call's first x^T w is the sum the pass
    # before it would have made)
    if steps is solvers._steps_k1:
        assert _native._library() is not None
    xd, idx, a, eu, w0, anchor, etas = _random_operands(
        d, n, m, rotate, per_step, 0.05, seed)
    k = min(split, m)
    w1, sc1 = w0.copy(), np.ones(1)
    bad1 = steps(xd, idx, a, eu, 0.05, w1, sc1, anchor, etas)
    w2, sc2 = w0.copy(), np.ones(1)
    bad2 = steps(xd, idx[:k], a, eu, 0.05, w2, sc2, anchor,
                 None if etas is None else etas[:k])
    if not bad2:
        bad2 = steps(xd, idx[k:], a, eu, 0.05, w2, sc2, anchor,
                     None if etas is None else etas[k:])
        bad2 = bad2 and k + bad2
    assert bad1 == bad2
    assert np.array_equal(w1, w2)
    assert np.array_equal(sc1, sc2)


def _steps_k1_scalar(xd, idx, a, eu, eta, w, inv, anchor, etas):
    """The kernel's arithmetic in its one-pass order, one Python float
    operation at a time, on the iterate w * inv: the new (w, inv)."""
    d = len(w)
    w = [float(v) for v in w]
    x = xd[:, idx[0]].tolist()
    p = _dot8(x, w)
    pa = 0.0 if anchor is None else _dot8(w, anchor)
    for t, i in enumerate(idx):
        s = 1.0 if pa >= 0.0 else -1.0
        e = eta if etas is None else float(etas[t])
        c = e * (inv * p - s * float(a[i]))
        w = [(w[k] * inv + c * x[k]) + s * float(eu[k]) for k in range(d)]
        x = xd[:, idx[t + 1]].tolist() if t + 1 < len(idx) else x
        p = _dot8(x, w)
        if anchor is not None:
            pa = _dot8(w, anchor)
        inv = 1.0 / math.sqrt(_dot8(w, w))
    return np.array(w), inv


def _segments(d, n, m, eta, seed):
    """Operands (xd, idx, a, eu, w0, anchor, etas) of one segment of m
    steps at dimension d: plain and with the anchor, each with the scalar
    eta and with per-step etas."""
    rng = np.random.default_rng(seed)
    xd = np.asfortranarray(rng.standard_normal((d, n)))
    xd /= np.sqrt(np.max(np.einsum("ij,ij->j", xd, xd)))
    wt = _unit(rng.standard_normal(d))
    a = xd.T @ wt
    eu = eta * (xd @ a / n)
    w0 = _unit(rng.standard_normal(d))
    idx = rng.integers(0, n, size=m)
    per_step = eta * rng.uniform(0.5, 2.0, size=m)
    return [(xd, idx, a, eu, w0, anchor, etas)
            for anchor in (None, wt) for etas in (None, per_step)]


@needs_cc
@pytest.mark.parametrize("d", range(1, 10))
def test_compiled_sums_in_the_written_order(d):
    # bitwise: a reordered sum, a fused multiply-add or a division in
    # place of the reciprocal multiply would move the bits
    assert _native._library() is not None
    for xd, idx, a, eu, w0, anchor, etas in _segments(d, 9, 30, 0.05, d):
        w, scale = w0.copy(), np.array([0.75])  # a pending scale carried in
        assert solvers._steps_k1(xd, idx, a, eu, 0.05, w, scale, anchor,
                                 etas) == 0
        w_ref, inv_ref = _steps_k1_scalar(xd, idx, a, eu, 0.05, w0, 0.75,
                                          anchor, etas)
        assert np.array_equal(w, w_ref)
        assert scale[0] == inv_ref


@needs_cc
def test_kernel_compiles_without_warnings(tmp_path):
    # an operand added on one side of a call, or left unused, warns
    cmd = [*_native._compiler(), *_native._FLAGS, "-Wall", "-Wextra",
           "-Werror", "-o", str(tmp_path / "kernel.so"), str(_native._SRC),
           "-lm"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def _other_library(monkeypatch, cache, flags=_native._FLAGS,
                   src=_native._SRC):
    """The library built from ``src`` with ``flags`` into ``cache`` and
    loaded through the loader itself; the loaded default library is
    restored afterwards."""
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_FLAGS", flags)
        patch.setattr(_native, "_SRC", src)
        patch.setattr(_native, "_cache_dir", lambda: cache)
        patch.setattr(_native, "_lib", None)
        other = _native._library()
    assert other is not None and other is not _native._library()
    return other


def _unoptimized_library(monkeypatch, tmp_path):
    """The library built at -O0 into ``tmp_path``."""
    flags = ("-O0", "-fPIC", "-shared", "-ffp-contract=off")
    assert flags != _native._FLAGS
    return _other_library(monkeypatch, tmp_path, flags)


def _library_without(monkeypatch, tmp_path, *copies):
    """The library built with the default flags from a copy of the kernel
    without the #define lines of the named copies of the k=1 steps
    ("AVX512", "AVX2"): without both, only the baseline copy is left,
    wherever the default build runs a copy for the running CPU."""
    lines = _native._SRC.read_text().splitlines(keepends=True)
    drop = [line for line in lines
            if line.split()[:2] in [["#define", f"{c}_COPY"] for c in copies]]
    assert len(drop) == len(copies)  # each define on a line of its own
    src = tmp_path / "-".join(copies) / "_kernel.c"
    src.parent.mkdir()
    src.write_text("".join(line for line in lines if line not in drop))
    return _other_library(monkeypatch, src.parent, src=src)


@needs_cc
def test_unoptimized_build_is_bit_identical(monkeypatch, tmp_path):
    # the default build vectorizes, and runs the widest copy of the steps
    # the CPU has (AVX-512, AVX2 or the baseline); it must not move one
    # bit from the kernel as written, compiled without optimization, nor
    # from a build without the AVX-512 copy or with the baseline copy alone
    default = _native._library()
    assert default is not None
    libs = (default, _unoptimized_library(monkeypatch, tmp_path),
            _library_without(monkeypatch, tmp_path, "AVX512"),
            _library_without(monkeypatch, tmp_path, "AVX512", "AVX2"))
    for d in range(1, 41):  # every remainder of 8, in the fused loop too
        for xd, idx, a, eu, w0, anchor, etas in _segments(
                d, 23, 150, 0.05, 8 + d):
            out = []
            for lib in libs:
                monkeypatch.setattr(_native, "_library", lambda lib=lib: lib)
                w, scale = w0.copy(), np.ones(1)
                out.append((solvers._steps_k1(xd, idx, a, eu, 0.05, w, scale,
                                              anchor, etas), w, scale))
            for bad, w, scale in out[1:]:
                assert bad == out[0][0] == 0
                assert np.array_equal(w, out[0][1]), (d, anchor, etas)
                assert scale == out[0][2], (d, anchor, etas)


def _synth_cases():
    """(eigenvalues, n, seed) instances covering d = 1-40 and tree sizes
    around powers of two."""
    cases = [((1.0,), 1, 0), ((3.0,), 2, 1), ((1.0,) * 8, 64, 3),
             ((2.0,), 129, 2)]
    for d in range(2, 41):
        cases.append((spectrum_k1(d), (d + 1, 2 * d, 64)[d % 3], d))
    return cases


@needs_cc
def test_unoptimized_build_balances_bit_identically(monkeypatch, tmp_path):
    # the default build vectorizes the rotations and the eight lanes of
    # each dot product; an -O0 build of the balancing, and the numpy loop
    # (no library), must synthesize the same bits
    default = _native._library()
    assert default is not None
    plain = _unoptimized_library(monkeypatch, tmp_path)
    for eigs, n, seed in _synth_cases():
        out = []
        for lib in (default, plain, None):
            monkeypatch.setattr(_native, "_library", lambda lib=lib: lib)
            out.append(synthesize_dataset(SpectrumSpec(eigs), n, seed).data)
        assert np.array_equal(out[0], out[1]), (len(eigs), n)
        assert np.array_equal(out[0], out[2]), (len(eigs), n)
        assert np.array_equal(out[0], synthesize_reference(eigs, n, seed))


@pytest.mark.parametrize("shape", [(3000, 300), (700, 120), (500, 50),
                                   (40, 40), (34, 33), (5, 1), (1, 1)])
def test_qr_in_place_gives_numpy_qr_bits(shape):
    g = np.random.default_rng(shape[1]).standard_normal(shape)
    a = np.array(g, order="F")  # a copy at any shape
    with _native.one_blas_thread():
        diag = _native.qr_in_place(a)
        q, r = np.linalg.qr(g)
    if diag is None:
        pytest.skip("numpy.linalg resolves no dgeqrf/dorgqr pair")
    assert np.array_equal(a, q)
    assert np.array_equal(diag, np.diagonal(r))


def test_numpy_qr_fallback_synthesizes_the_same_bits(monkeypatch):
    # without the LAPACK pair the synthesizer runs numpy.linalg.qr; both
    # give the reference's bits, square (n = d) and at d = 1 too
    cases = _synth_cases() + [(spectrum_k1(d), d, d) for d in (2, 9, 33)]
    direct = [synthesize_dataset(SpectrumSpec(eigs), n, seed).data
              for eigs, n, seed in cases]
    monkeypatch.setattr(_native, "_lapack_qr", lambda: None)
    assert _native.qr_in_place(np.ones((1, 1), order="F")) is None
    for (eigs, n, seed), x in zip(cases, direct):
        fallback = synthesize_dataset(SpectrumSpec(eigs), n, seed).data
        assert np.array_equal(fallback, x), (len(eigs), n)
        assert np.array_equal(fallback, synthesize_reference(eigs, n, seed))


@needs_cc
def test_compiled_balancing_is_loaded():
    # with a compiler, the synthesizer must run the compiled loop
    assert _native._library() is not None
    for d in (1, 7, 64, 65, 300, 1000):
        b = np.ones((3, d))
        assert _native.balance_rows(b, np.einsum("ij,ij->i", b, b), d, 0.0)


@needs_cc
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 64, 65])
def test_compiled_balancing_breaks_ties_like_argmin(n):
    # rows and their negations have bitwise-equal norms, so argmin and
    # argmax see exact ties from the first rotation on; the compiled trees
    # must pick the first index as they do, on every tree size
    d = 6
    rng = np.random.default_rng(n)
    half = rng.standard_normal(((n + 1) // 2, d))
    b = np.ascontiguousarray(np.concatenate([half, -half])[:n])
    norms = np.einsum("ij,ij->i", b, b)
    tau = float(norms.mean())
    b_np, norms_np = b.copy(), norms.copy()
    oracle._balance_rows(b, norms, tau, 1e-13 * max(tau, 1.0))
    oracle._balance_rows_numpy(b_np, norms_np, tau, 1e-13 * max(tau, 1.0))
    assert np.array_equal(b, b_np)
    assert np.array_equal(norms, norms_np)


@pytest.mark.parametrize("steps", [
    pytest.param(solvers._steps_k1, marks=needs_cc, id="compiled"),
    pytest.param(solvers._steps_k1_numpy, id="numpy")])
@pytest.mark.parametrize("with_anchor", [False, True])
def test_degenerate_step_reported_at_step_one(steps, with_anchor):
    # eu = -w and a_i = x_i^T w cancel the step: the candidate is ~0
    rng = np.random.default_rng(4)
    xd = np.asfortranarray(rng.standard_normal((6, 5)))
    w = _unit(rng.standard_normal(6))
    w_in, scale = w.copy(), np.ones(1)
    bad = steps(xd, np.array([2, 0, 1]), xd.T @ w, -w, 1.0, w_in, scale,
                anchor=w if with_anchor else None)
    assert bad == 1
    assert np.linalg.norm(w_in) < solvers._NORM_FLOOR
    assert scale[0] == 1.0  # w holds the candidate itself


def _degenerate_third_segment(monkeypatch, name="_steps_k1"):
    """Make the third call of the step function ``name`` in a run see
    cancelling operands (a_i = x_i^T W, eta u = -W, W the iterate: at
    k=1 the kernel's w times its pending scale)."""
    real = getattr(solvers, name)
    calls = []

    def steps(xd, idx, a, eu, eta, w, *args, **kwargs):
        calls.append(len(idx))
        if len(calls) == 3:
            it = w * args[0][0] if name == "_steps_k1" else w
            return real(xd, idx, xd.T @ it, -it, 1.0, w, *args[:1])
        return real(xd, idx, a, eu, eta, w, *args, **kwargs)

    monkeypatch.setattr(solvers, name, steps)
    return calls


@pytest.mark.parametrize("compiled", [
    pytest.param(True, marks=needs_cc, id="compiled"),
    pytest.param(False, id="numpy")])
def test_solvers_report_the_degenerate_step(monkeypatch, small_k1, compiled):
    if not compiled:
        monkeypatch.setattr(_native, "_library", lambda: None)
    X = small_k1.Xs
    w0 = gaussian_init(X.d, 1, seed=3)
    cfg = SolverConfig(k=1, eta=0.01, m=100, epochs=2, seed=0)
    for solve in (vrpca_vector, vrpca_block):
        _degenerate_third_segment(monkeypatch)
        # segments are 10 steps long; the third starts at step 21
        with pytest.raises(DegenerateIterateError,
                           match=r"at epoch 1, step 21: norm"):
            solve(X, w0, cfg)
    _degenerate_third_segment(monkeypatch, "_steps_block")
    cfg2 = SolverConfig(k=2, eta=0.01, m=100, epochs=2, seed=0)
    with pytest.raises(DegenerateIterateError,
                       match=r"at epoch 1, step 21: Gram matrix min eigen"):
        vrpca_block(X, gaussian_init(X.d, 2, seed=3), cfg2)
    calls = _degenerate_third_segment(monkeypatch)
    with pytest.raises(DegenerateIterateError,
                       match=r"in burn-in at step (\d+): norm") as exc:
        burn_in(X, w0, 1.0 / X.d, 0.25, small_k1.gap)
    assert exc.value.args[0].split(":")[0].endswith(
        f"step {sum(calls[:2]) + 1}")
    _degenerate_third_segment(monkeypatch)
    with pytest.raises(DegenerateIterateError,
                       match=r"in Oja at step 21: norm"):
        oja_baseline(X, w0, 0.5, 100)


def test_off_sphere_iterate_raises(monkeypatch, small_k1):
    def drift(xd, idx, a, eu, eta, w, *args, **kwargs):
        w *= 1.0 + 1e-9
        return 0

    monkeypatch.setattr(solvers, "_steps_k1", drift)
    monkeypatch.setattr(solvers, "_steps_block", drift)
    w0 = gaussian_init(small_k1.Xs.d, 1, seed=3)
    cfg = SolverConfig(k=1, eta=0.01, m=100, epochs=1, seed=0)
    with pytest.raises(DegenerateIterateError,
                       match=r"unit sphere at epoch 1, step 10"):
        vrpca_vector(small_k1.Xs, w0, cfg)
    W0 = gaussian_init(small_k1.Xs.d, 2, seed=3)
    cfg2 = SolverConfig(k=2, eta=0.01, m=100, epochs=1, seed=0)
    with pytest.raises(DegenerateIterateError,
                       match=r"orthonormality at epoch 1, step 10"):
        vrpca_block(small_k1.Xs, W0, cfg2)
    with pytest.raises(DegenerateIterateError,
                       match=r"unit sphere in Oja at step 10"):
        oja_baseline(small_k1.Xs, w0, 0.5, 100)


@needs_cc
def test_numpy_fallback_matches_compiled_run(monkeypatch, std_k1):
    # every solver that steps at k=1, compiled and then in numpy
    X, ref = std_k1.Xs, std_k1.reference(1)
    w0 = power_warm_start(X, seed=1, reference=ref).frame
    eta, m = select_parameters(std_k1.gap, 1.0, 1, 0.25)
    cfg = SolverConfig(k=1, eta=eta, m=m, epochs=3, seed=1)
    cfg2 = SolverConfig(k=2, eta=eta, m=m, epochs=2, seed=1)
    start = gaussian_init(X.d, 1, seed=7)

    def runs():
        frame, iters = burn_in(X, start, 1.0 / X.d, 0.25, std_k1.gap, ref,
                               eta=0.05, seed=1)
        assert iters > 0
        traces = [vrpca_vector(X, w0, cfg, ref),
                  vrpca_block(X, w0, cfg, ref),  # use_rotation: the anchor
                  deflation_solve(X, gaussian_init(X.d, 2, seed=7), cfg2,
                                  ref),
                  oja_baseline(X, start, 0.5, 3000, ref, seed=1)]
        return [([(r.samples, r.potential, r.residual) for r in t.records],
                 t.final_frame.entries) for t in traces] + [
            ([iters], frame.entries)]

    assert _native._library() is not None
    compiled = runs()
    monkeypatch.setattr(_native, "_library", lambda: None)
    for (recs, frame), (recs_np, frame_np) in zip(compiled, runs()):
        assert recs == recs_np
        assert np.array_equal(frame, frame_np)


def test_missing_compiler_falls_back_with_a_warning(monkeypatch, small_k1,
                                                     fresh_kernel):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="using the numpy steps"):
        assert _native._library() is None
    assert fresh_kernel == []
    w0 = gaussian_init(small_k1.Xs.d, 1, seed=3)
    cfg = SolverConfig(k=1, eta=0.01, m=100, epochs=2, seed=0)
    trace = vrpca_vector(small_k1.Xs, w0, cfg, small_k1.reference(1))
    assert trace.samples == 2 * (small_k1.Xs.n + 100)


@pytest.mark.parametrize("cc, which", [
    (None, {"cc"}), ("vrpca-no-such-cc -O2", {"cc"}), (None, set())])
def test_compiler_falls_back_to_cc(monkeypatch, cc, which):
    # sysconfig's CC absent or not on PATH: cc, where there is one
    import shutil
    import sysconfig

    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: cc)
    monkeypatch.setattr(shutil, "which",
                        lambda name: f"/bin/{name}" if name in which else None)
    assert _native._compiler() == (["cc"] if which else None)


def test_failed_build_leaves_no_temporary(monkeypatch, tmp_path,
                                          fresh_kernel):
    monkeypatch.setattr(_native, "_compiler", lambda: ["false"])
    with pytest.warns(RuntimeWarning, match="using the numpy steps") as seen:
        assert _native._library() is None
        assert _native._library() is None  # warned once, not retried
    assert len(seen) == 1
    assert fresh_kernel == [tmp_path]
    assert list(tmp_path.iterdir()) == []


@needs_cc
def test_library_without_an_abi_function_refused(monkeypatch, tmp_path,
                                                 fresh_kernel):
    monkeypatch.setitem(_native._ABI, "vrpca_no_such_function", (None, ()))
    with pytest.warns(RuntimeWarning, match="lacks a function of _ABI"):
        assert _native._library() is None
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


@pytest.mark.parametrize("op, message", [
    (lambda: np.float64(1e308) * 10, "overflow"),
    (lambda: np.float64(0.0) / 0.0, "invalid value"),
    (lambda: np.float64(1.0) / 0.0, "divide by zero")],
    ids=["overflow", "invalid", "divide"])
def test_numpy_float_warnings_fail_the_suite(op, message):
    # pyproject.toml makes these errors, so no NaN or inf reaches a report
    # unseen; the kernel-unavailable RuntimeWarning above stays a warning
    with pytest.raises(RuntimeWarning, match=f"{message} encountered"):
        op()


@needs_cc
def test_deleted_cache_entry_is_rebuilt(monkeypatch, tmp_path, small_k1,
                                        fresh_kernel):
    w0 = gaussian_init(small_k1.Xs.d, 1, seed=3)
    cfg = SolverConfig(k=1, eta=0.02, m=200, epochs=2, seed=11)
    first = vrpca_vector(small_k1.Xs, w0, cfg)
    (entry,) = tmp_path.iterdir()
    entry.unlink()
    monkeypatch.setattr(_native, "_lib", None)  # a new process
    second = vrpca_vector(small_k1.Xs, w0, cfg)
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
    assert fresh_kernel == [tmp_path, tmp_path]
    assert np.array_equal(first.final_frame.entries,
                          second.final_frame.entries)


@needs_cc
def test_racing_builders_leave_one_entry(tmp_path):
    # builders in other processes are not serialized by the loader's lock;
    # the temporary file and the rename must keep them apart
    cc = _native._compiler()
    paths, errors = [], []

    def build():
        try:
            paths.append(_native._build(tmp_path, cc))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(set(paths)) == 1 and len(paths) == 4
    assert [p.name for p in tmp_path.iterdir()] == [paths[0].name]


@needs_cc
def test_concurrent_first_use_in_run_experiment(tmp_path, fresh_kernel):
    # run_experiment runs its seeds in the calling thread, but a caller's
    # own threads can still load the kernel at the same time
    base = dict(spectrum=spectrum_k1(d=12), n=64, synth_seed=5,
                solver="vrpca_vector", k=1, epochs=4, delta=0.5,
                init="power", m=256, eta=0.05)
    start = threading.Barrier(2)
    got = {}

    def run(seed):
        start.wait(timeout=30)
        got[seed] = run_experiment(ExperimentConfig(**base, seeds=(seed,)))[0]

    threads = [threading.Thread(target=run, args=(s,)) for s in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [1, 2]
    assert fresh_kernel == [tmp_path]
    assert len(list(tmp_path.iterdir())) == 1
    for seed, rep in got.items():
        alone = run_experiment(ExperimentConfig(**base, seeds=(seed,)))[0]
        assert rep.samples == alone.samples
        assert rep.epoch_potentials == alone.epoch_potentials



class _SpyLibrary:
    """Stands in for the loaded library: records the name of every function
    called on it, and runs none."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append(name) or 0


def _k1_operands():
    rng = np.random.default_rng(0)
    d, n = 5, 7
    xd = np.asfortranarray(rng.standard_normal((d, n)))
    w = _unit(rng.standard_normal(d))
    return dict(xd=xd, idx=np.array([0, 3, 6]), a=xd.T @ w, eu=0.1 * w,
                eta=0.1, w=w, scale=np.ones(1), anchor=w.copy(),
                etas=np.array([0.1, 0.2, 0.3]), norm_floor=1e-12)


def _read_only(v):
    v = v.copy()
    v.flags.writeable = False
    return v


def _strided(v):
    """v's values in a non-contiguous view."""
    wide = np.empty(2 * v.size)
    wide[::2] = v
    return wide[::2]


#: one contract violation per entry: the operands it replaces
K1_VIOLATIONS = {
    "xd float32": lambda o: dict(xd=np.asfortranarray(o["xd"], np.float32)),
    "xd C-ordered": lambda o: dict(xd=np.ascontiguousarray(o["xd"])),
    "a float32": lambda o: dict(a=o["a"].astype(np.float32)),
    "eu strided": lambda o: dict(eu=_strided(o["eu"])),
    "w read-only": lambda o: dict(w=_read_only(o["w"])),
    "a short": lambda o: dict(a=o["a"][:-1]),
    "w long": lambda o: dict(w=np.append(o["w"], 0.0)),
    "scale read-only": lambda o: dict(scale=_read_only(o["scale"])),
    "scale a float": lambda o: dict(scale=1.0),
    "scale long": lambda o: dict(scale=np.ones(2)),
    "anchor short": lambda o: dict(anchor=o["anchor"][:-1]),
    "index n": lambda o: dict(idx=np.array([0, 7, 1])),
    "index -1": lambda o: dict(idx=np.array([-1, 2, 1])),
    "etas short": lambda o: dict(etas=o["etas"][:-1]),
    "etas F-ordered row": lambda o: dict(
        etas=np.asfortranarray(np.stack([o["etas"], o["etas"]]))[0]),
}


@pytest.mark.parametrize("violation", sorted(K1_VIOLATIONS))
def test_k1_contract_refused_before_any_c_call(monkeypatch, violation):
    spy = _SpyLibrary()
    monkeypatch.setattr(_native, "_library", lambda: spy)
    ops = _k1_operands()
    _native.steps_k1(**ops)  # within the contract: the library is called
    assert spy.calls == ["vrpca_steps_k1"]
    ops.update(K1_VIOLATIONS[violation](ops))
    with pytest.raises(DimensionMismatchError,
                       match="k=1 kernel operands violate its contract"):
        _native.steps_k1(**ops)
    assert spy.calls == ["vrpca_steps_k1"]


BALANCE_VIOLATIONS = {
    "b float32": lambda b, norms: (b.astype(np.float32), norms),
    "b F-ordered": lambda b, norms: (np.asfortranarray(b), norms),
    "b read-only": lambda b, norms: (_read_only(b), norms),
    "norms read-only": lambda b, norms: (b, _read_only(norms)),
    "norms strided": lambda b, norms: (b, _strided(norms)),
    "norms short": lambda b, norms: (b, norms[:-1].copy()),
}


@pytest.mark.parametrize("violation", sorted(BALANCE_VIOLATIONS))
def test_balancing_contract_refused_before_any_c_call(monkeypatch,
                                                       violation):
    spy = _SpyLibrary()
    monkeypatch.setattr(_native, "_library", lambda: spy)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((6, 3))
    norms = np.einsum("ij,ij->i", b, b)
    assert _native.balance_rows(b, norms, 1.0, 0.0)
    assert spy.calls == ["vrpca_balance_rows"]
    b, norms = BALANCE_VIOLATIONS[violation](b, norms)
    with pytest.raises(DimensionMismatchError,
                       match="balancing operands violate its contract"):
        _native.balance_rows(b, norms, 1.0, 0.0)
    assert spy.calls == ["vrpca_balance_rows"]


QR_VIOLATIONS = {
    "C-ordered": lambda a: np.ascontiguousarray(a),
    "read-only": _read_only,
    "float32": lambda a: a.astype(np.float32),
    "m < n": lambda a: np.asfortranarray(a.T),
    "1-D": lambda a: a[:, 0].copy(),
}


@pytest.mark.parametrize("violation", sorted(QR_VIOLATIONS))
def test_qr_contract_refused_before_any_lapack_call(monkeypatch, violation):
    calls = []
    monkeypatch.setattr(_native, "_lapack_qr", lambda: (
        lambda *args: calls.append("dgeqrf"),
        lambda *args: calls.append("dorgqr")))
    a = np.asfortranarray(np.random.default_rng(2).standard_normal((6, 3)))
    assert _native.qr_in_place(a) is not None
    # each routine once for its workspace size and once to run
    assert calls == ["dgeqrf"] * 2 + ["dorgqr"] * 2
    with pytest.raises(DimensionMismatchError,
                       match="QR operands violate its contract"):
        _native.qr_in_place(QR_VIOLATIONS[violation](a))
    assert len(calls) == 4


def test_lapack_refusal_names_its_argument():
    # info comes back through the int64 ctypes passes by reference: an lda
    # below m is LAPACK's argument 4 of dgeqrf
    qr = _native._lapack_qr()
    if qr is None:
        pytest.skip("numpy.linalg resolves no dgeqrf/dorgqr pair")
    a = np.asfortranarray(np.ones((5, 3)))
    with pytest.raises(np.linalg.LinAlgError, match="refused argument 4$"):
        _native._lapack(qr[0], 5, 3, a, 1, np.empty(3))


def _c_kind(decl):
    """"pointer", "int64_t", "double" or "void" for a C declaration."""
    return "pointer" if "*" in decl else decl.split()[0]


def test_ctypes_table_matches_the_c_prototypes():
    # a signature edited on one side only must fail here, not corrupt memory
    kinds = {ctypes.c_void_p: "pointer", ctypes.c_int64: "int64_t",
             ctypes.c_double: "double", None: "void"}
    src = _native._SRC.read_text()
    exported = {name: (ret, params) for ret, name, params in re.findall(
        r"^(int64_t|double|void)\s+(\w+)\(([^)]*)\)", src, re.M)}
    assert set(exported) == set(_native._ABI)
    for name, (ret, params) in exported.items():
        c_params = [_c_kind(p) for p in params.split(",")]
        table_ret, table_params = _native._ABI[name]
        assert kinds[table_ret] == ret, name
        assert [kinds[t] for t in table_params] == c_params, name


def test_import_builds_and_loads_nothing():
    code = ("import sys, vrpca; from vrpca import _native; "
            "print(sorted({'subprocess', 'hashlib'} & set(sys.modules)), "
            "_native._lib)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["[]", "None"]
