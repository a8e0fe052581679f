"""The data passes in fixed column blocks (_native.column_pass): their bits
follow the partition, never the thread count; they survive a fork and
concurrent callers; and no pipeline call leaves OpenBLAS's idle worker
spinning."""

import ctypes
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from vrpca import (DataMatrix, DegenerateIterateError, ExperimentConfig,
                   OrthonormalFrame, _native, covariance_apply,
                   polar_normalize, run_experiment, save_dataset,
                   trace_fingerprint)
from vrpca.geometry import nonconvexity_certificate
from vrpca.matrix import _column_norms, _products, _projected

from conftest import spectrum_k1

#: (d, n) under a block of 64 multiply-adds: a ragged last block; n below
#: one 8-column group, so one block; d = 1
SHAPES = [(7, 1001), (5, 6), (1, 999)]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 multiply-adds, so that small matrices split; yields a
    function that sets OpenBLAS's thread count, which a pass runs on (at
    most one thread per block), and skips a count above 1 where there is
    no thread-count pair. The count is restored afterwards."""
    monkeypatch.setattr(_native, "_BLOCK_WORK", 64)
    pair = _native.blas_threads()
    before = blas_count()

    def force(threads):
        if pair is not None:
            pair[1](threads)
        elif threads > 1:
            pytest.skip("no OpenBLAS thread-count functions found")

    yield force
    if pair is not None:
        pair[1](before)


def pass_threads():
    """The library's pass threads alive in this process, by name."""
    return [t for t in threading.enumerate()
            if t.name.startswith("vrpca-pass")]


def blas_count():
    pair = _native.blas_threads()
    return None if pair is None else pair[0]()


def passes(arr, w):
    """Every pass over ``arr``: norms, Gram, X^T w, X a, the applied
    covariance of a two-column operand, and a deflation stage's projected
    copy and memo for the basis w / ||w||."""
    X = DataMatrix(arr)
    a = np.empty((X.n, w.shape[1]))
    u = _products(X, w, None, a)
    copy, memo = _projected(X, X.covariance(), w / np.linalg.norm(w))
    return {"norms": _column_norms(X.data), "r": X.r,
            "gram": X.covariance(), "xtw": a, "xa": u,
            "apply": covariance_apply(X, np.hstack((w, w[::-1]))),
            "copy": copy.data, "projected_memo": memo}


@pytest.mark.parametrize("d, n", SHAPES)
def test_the_partition_not_the_workers_fixes_the_bits(small_blocks, d, n):
    rng = np.random.default_rng(d * n)
    arr = np.asfortranarray(rng.standard_normal((d, n)))
    w = rng.standard_normal((d, 1))
    runs = []
    for workers in (1, 2, 3):
        small_blocks(workers)
        runs.append(passes(arr, w))
    for run in runs[1:]:
        for key, value in runs[0].items():
            assert np.array_equal(run[key], value), key
    blocks = _native.column_blocks(d, n, d)
    if n < 8:
        assert blocks == [(0, n)]
    else:  # four blocks of whole 8-column groups, the last one ragged
        assert len(blocks) == 4 and blocks[-1][1] == n
        assert all(lo % 8 == 0 for lo, _ in blocks)
        assert n - blocks[-1][0] < blocks[0][1]
    ref = arr @ arr.T / n
    gram = runs[0]["gram"]
    assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_overflow_refusal_names_the_column(small_blocks, workers):
    small_blocks(workers)
    arr = np.ones((4, 300))
    arr[:, 257] = 1e200
    X = DataMatrix(arr)
    assert X.r == math.inf
    with pytest.raises(DegenerateIterateError) as err:
        X.covariance()
    assert str(err.value) == (
        "cannot form the covariance: the squared norm of column 257 "
        "overflows to inf (largest entry 1.000e+200)")


class FailingGram(np.ndarray):
    """Data whose third block Gram raises."""

    lock = threading.Lock()
    formed = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            with FailingGram.lock:
                FailingGram.formed += 1
                if FailingGram.formed == 3:
                    raise FloatingPointError("block Gram 3 failed")
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs),
                                      **kwargs)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_a_failing_block_gram_reaches_the_caller(small_blocks, workers):
    small_blocks(workers)
    before = blas_count()
    arr = np.asfortranarray(np.random.default_rng(3).standard_normal(
        (6, 500)))
    want = DataMatrix(arr).covariance()
    X = DataMatrix(arr)
    X.data = X.data.view(FailingGram)
    FailingGram.formed = 0
    with pytest.raises(FloatingPointError, match="block Gram 3 failed"):
        X.covariance()
    assert blas_count() == before
    assert X._cov is None
    assert np.array_equal(X.covariance(), want)


def _covariance_in_child(arr):
    assert pass_threads() == []  # a forked child inherits no thread
    return DataMatrix(arr).covariance(), len(pass_threads())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_a_forked_child_forms_the_parents_bits(small_blocks):
    small_blocks(3)
    arr = np.asfortranarray(np.random.default_rng(4).standard_normal(
        (9, 2000)))
    parent = DataMatrix(arr).covariance()
    assert pass_threads()  # the child inherits an executor in use
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child, threads = pool.apply_async(
            _covariance_in_child, (arr,)).get(timeout=60)
    assert np.array_equal(child, parent)
    assert 1 <= threads <= 2  # the child started its own


def test_four_threads_form_their_own_covariances(small_blocks):
    small_blocks(2)
    before = blas_count()
    rng = np.random.default_rng(5)
    mats = [np.asfortranarray(rng.standard_normal((9, 700 + 37 * i)))
            for i in range(4)]
    alone = [DataMatrix(m).covariance() for m in mats]
    wrong = []
    barrier = threading.Barrier(len(mats))

    def form(i):
        barrier.wait(timeout=30)
        for _ in range(25):
            if not np.array_equal(DataMatrix(mats[i]).covariance(),
                                  alone[i]):
                wrong.append(i)

    threads = [threading.Thread(target=form, args=(i,))
               for i in range(len(mats))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert blas_count() == before


def spiked_file(path, d=100, n=20_000):
    """A spike-1, bulk-0.1 Gaussian f64le file; its largest squared column
    norm r."""
    rng = np.random.default_rng(11)
    scale = np.full((d, 1), math.sqrt(0.1))
    scale[0] = 1.0
    X = DataMatrix(scale * rng.standard_normal((d, n)))
    save_dataset(X, path, "f64le")
    return X.r


def file_config(path, r, n=20_000, **kw):
    """The file instance through the pipeline with m = n and the oracle
    on, as the benchmark runs its file workload."""
    cfg = dict(dataset_path=str(path), dataset_format="f64le", rescale=False,
               m=n, eta=1.0 / (r * math.sqrt(n)), epsilon=1e-8, epochs=10,
               seeds=(1,))
    return ExperimentConfig(**dict(cfg, **kw))


_RUN_BOTH = """
import json, sys
from vrpca import ExperimentConfig, run_experiment, trace_fingerprint
out = []
for cfg in json.loads(sys.argv[1]):
    rep = run_experiment(ExperimentConfig.from_dict(cfg))[0].to_dict()
    rep.pop("elapsed_s")
    fp = trace_fingerprint(cfg["out_dir"] + "/trace_seed1.jsonl")
    out.append([rep, fp.decode()])
print(json.dumps(out))
"""


def test_runs_do_not_follow_the_blas_thread_count(tmp_path):
    if _native.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    path = tmp_path / "data.vrpc"
    r = spiked_file(path)
    outs = []
    for threads in ("1", "2"):
        cfgs = [dict(spectrum=spectrum_k1(), n=500, synth_seed=1, seeds=[1],
                     epochs=4, out_dir=str(tmp_path / f"std{threads}")),
                asdict(file_config(path, r,
                                   out_dir=str(tmp_path / f"file{threads}")))]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", _RUN_BOTH,
                               json.dumps(cfgs)], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=300)
        outs.append(json.loads(proc.stdout))
    for (one, fp1), (two, fp2) in zip(*outs):
        assert one == two
        assert fp1 == fp2


#: OpenBLAS's function naming the CPU kernels it runs
_CORENAME = "scipy_openblas_get_corename64_"

#: the runs of a config, and the core name read through numpy.linalg's
#: handle, as one JSON line
_RUN_ON_CORE = """
import ctypes, json, sys
from vrpca import ExperimentConfig, _native, run_experiment
abi = {sys.argv[2]: (ctypes.c_char_p, ())}
(core,) = _native._typed(_native._numpy_linalg(), abi, abi)
reps = run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])))
print(json.dumps([core().decode(), [r.to_dict() for r in reps]]))
"""


def _cpu_flags():
    """The CPU's feature flags, from /proc/cpuinfo; empty where there is
    none."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return {flag for line in fh if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def test_samples_do_not_follow_the_openblas_core():
    # the bits follow OpenBLAS's CPU kernels (README): the default and the
    # Haswell kernels end the std k=1 runs at the same samples and epochs,
    # both under epsilon, their potentials apart in the trailing digits
    abi = {_CORENAME: (ctypes.c_char_p, ())}
    if _native._typed(_native._numpy_linalg(), abi, abi) is None:
        pytest.skip("numpy.linalg resolves no OpenBLAS core name")
    if "avx2" not in _cpu_flags():
        pytest.skip("the CPU cannot run OpenBLAS's Haswell kernels")
    eps = 1e-8
    cfg = dict(spectrum=spectrum_k1(), n=500, synth_seed=1, seeds=[1, 2],
               epsilon=eps)
    runs = []
    for core in (None, "Haswell"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ON_CORE, json.dumps(cfg), _CORENAME],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        runs.append(json.loads(proc.stdout))
    (_, default), (name, haswell) = runs
    assert name == "Haswell"
    assert len(default) == len(haswell) == 2
    for one, two in zip(default, haswell):
        assert (one["samples"], one["epochs_run"]) == \
            (two["samples"], two["epochs_run"])
        assert one["final_potential"] <= eps
        assert two["final_potential"] <= eps


_RANKS = """
import numpy as np
from vrpca import DataMatrix, numerical_rank
rng = np.random.default_rng(12)
print([numerical_rank(DataMatrix(rng.standard_normal(shape))).hex()
       for shape in ((600, 400), (1000, 700), (100, 2000))])
"""


def test_numerical_rank_does_not_follow_the_blas_thread_count():
    # n < d forms X^T X, whose 700-square eigensolve read other bits on
    # two threads than on one before the hold; n >= d uses the memo
    if _native.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outs.append(subprocess.run([sys.executable, "-c", _RANKS], env=env,
                                   check=True, capture_output=True,
                                   text=True, timeout=300).stdout)
    assert outs[0] == outs[1]


#: the hashes of dense_eigh at d = 600, the certificate's witness there and
#: a deflation memo P A at d = 1000; of the Hessian and the certificate's
#: witness at d = 1500, a 600-square polar_normalize and a 600 x 300
#: gaussian_init; and of a k = 2 deflation run at d = 1000 with its
#: reference (report and trace fingerprint), as one JSON line
_DENSE = """
import hashlib, json, sys
import numpy as np
from vrpca import (DataMatrix, ExperimentConfig, dense_eigh, gaussian_init,
                   polar_normalize, run_experiment, trace_fingerprint)
from vrpca.geometry import nonconvexity_certificate, rayleigh_hessian
from vrpca.matrix import _projected

def sha(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

rng = np.random.default_rng(13)
X = DataMatrix(rng.standard_normal((600, 700)))
spec = dense_eigh(X)
is_psd, witness = nonconvexity_certificate(X, rng.standard_normal(600))
Y = DataMatrix(rng.standard_normal((1000, 1000)))
basis = polar_normalize(rng.standard_normal((1000, 2))).entries
_, memo = _projected(Y, Y.covariance(), basis)
Z = DataMatrix(rng.standard_normal((1500, 20)))
z = rng.standard_normal(1500)
wide_psd, wide_witness = nonconvexity_certificate(Z, z)
polar = polar_normalize(rng.standard_normal((600, 600)))
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
rep = run_experiment(cfg)[0].to_dict()
rep.pop("elapsed_s")
fp = trace_fingerprint(cfg.out_dir + "/trace_seed1.jsonl").decode()
print(json.dumps({"eigh": sha(spec.eigenvalues, spec.eigenvectors.entries),
                  "is_psd": is_psd, "witness": sha(witness),
                  "projected_memo": sha(memo),
                  "hessian": sha(rayleigh_hessian(Z, z)),
                  "wide_psd": wide_psd, "wide_witness": sha(wide_witness),
                  "polar": sha(polar.entries),
                  "init": sha(gaussian_init(600, 300, 1).entries),
                  "report": rep, "trace": fp}))
"""


def test_dense_calls_do_not_follow_the_blas_thread_count(tmp_path):
    # past d = 512 OpenBLAS threads a d x d eigh or product, and on two
    # threads these read other bits than on one before the hold; the
    # Hessian's products past d = 1000, and k >= 2 polar's at d = 600
    if _native.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    spectrum = [1.0, 0.8, 0.5] + [0.5 * (1.0 / 3.0) ** j
                                  for j in range(1, 998)]
    outs = []
    for threads in ("1", "2"):
        cfg = dict(spectrum=spectrum, n=1000, synth_seed=1,
                   solver="deflation", k=2, gap_index=2, m=300, eta=0.05,
                   epochs=2, seeds=[1], out_dir=str(tmp_path / threads))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", _DENSE,
                               json.dumps(cfg)], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        outs.append(json.loads(proc.stdout))
    assert outs[0]["is_psd"] is outs[0]["wide_psd"] is False
    assert outs[0]["report"]["d"] == 1000
    assert outs[0] == outs[1]


def _task_ticks():
    """utime + stime, in clock ticks, of each thread of this process."""
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread has exited
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc thread statistics")
def test_no_pipeline_call_leaves_a_blas_worker_spinning(tmp_path):
    if _native.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    path = tmp_path / "data.vrpc"
    desk = [file_config(path, spiked_file(path), epochs=2),
            ExperimentConfig(spectrum=spectrum_k1(300), n=3000,
                             synth_seed=1, seeds=(1,), epochs=3,
                             epsilon=1e-8)]
    # past d = 512: the oracle's eigh, its frame check and the memo's
    # products A w~ would each wake OpenBLAS's worker without the hold
    wide = [ExperimentConfig(spectrum=spectrum_k1(800), n=1600, synth_seed=1,
                             seeds=(1,), epochs=2, epsilon=1e-8)]
    for cfgs, calls in ((desk, 4), (wide, 3)):
        for cfg in cfgs:  # the kernel build and the pool start
            run_experiment(cfg)
        others = _other_ticks(lambda: [run_experiment(cfg) for cfg in cfgs
                                       for _ in range(calls)])
        assert sum(others.values()) <= 2, (len(cfgs[-1].spectrum), others)


def _other_ticks(run):
    """The ticks, by thread, that threads other than the caller and the
    pass threads accrue while ``run()`` runs; a worker woken by an earlier
    call spins about 0.13 s, then sleeps, so this waits 0.3 s first."""
    time.sleep(0.3)
    before = _task_ticks()
    run()
    after = _task_ticks()
    ours = {threading.get_native_id()} | {t.native_id
                                          for t in pass_threads()}
    return {tid: n - before.get(tid, 0) for tid, n in after.items()
            if tid not in ours}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc thread statistics")
@pytest.mark.parametrize("call", ["certificate", "frame"])
def test_no_dense_call_leaves_a_blas_worker_spinning(call):
    # at d = 1000 the Hessian's products and a d x d frame's W^T W each
    # woke OpenBLAS's worker before the hold
    if _native.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    rng = np.random.default_rng(14)
    X = DataMatrix(rng.standard_normal((1000, 20)))
    w = rng.standard_normal(1000)
    q = polar_normalize(rng.standard_normal((1000, 1000))).entries
    run = {"certificate": lambda: nonconvexity_certificate(X, w),
           "frame": lambda: OrthonormalFrame(q)}[call]
    run()  # the covariance memo, and the pool start
    others = _other_ticks(lambda: [run() for _ in range(5)])
    assert sum(others.values()) <= 2, others


def test_import_starts_no_thread():
    code = ("import sys, threading, vrpca; "
            "print(threading.active_count(), "
            "'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["1", "False"]


def block_order_sum(arr):
    """The row sums of ``arr``'s column blocks, added left to right."""
    want = np.zeros(arr.shape[0])
    for lo, hi in _native.column_blocks(*arr.shape):
        want += arr[:, lo:hi].sum(axis=1)
    return want


def test_fold_keeps_block_order(small_blocks):
    small_blocks(3)
    arr = np.asfortranarray(np.arange(4.0 * 1001).reshape(4, 1001))
    starts = _native.column_pass(lambda b, cols: cols.start, arr)
    assert starts == [lo for lo, _ in _native.column_blocks(4, 1001)]
    total = _native.column_pass(
        lambda b, _, out: np.sum(b, axis=1, out=out), arr, shape=(4,))
    assert np.array_equal(total, block_order_sum(arr))


@pytest.mark.parametrize("threads", (1, 2, 3))
def test_a_summing_pass_writes_each_block_into_the_callers_slot(
        small_blocks, monkeypatch, threads):
    small_blocks(threads)
    # entries spanning 60 binary orders, so that a sum in any other order
    # than the blocks' reads other bits
    rng = np.random.default_rng(threads)
    arr = np.asfortranarray(rng.standard_normal((4, 1001))
                            * 2.0 ** rng.integers(-30, 30, (4, 1001)))
    slots, made, empty = {}, [], np.empty

    def fn(b, cols, out):
        slots[cols.start] = out
        np.sum(b, axis=1, out=out)
        return np.full(4, np.nan)  # ignored

    def made_where(*args, **kwargs):  # np.empty, noting thread and time
        arr = empty(*args, **kwargs)
        made.append((arr, threading.get_ident(), len(slots)))
        return arr

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", made_where)
        total = _native.column_pass(fn, arr, shape=(4,))
    assert np.array_equal(total, block_order_sum(arr))
    outs = [slots[lo] for lo, _ in _native.column_blocks(4, 1001)]
    assert len(outs) == 4
    assert all(out.flags.writeable and out.shape == (4,) for out in outs)
    # block 0 writes into the sum itself, the others into views of one
    # parts array
    assert outs[0] is total
    parts = outs[1].base
    assert parts is not None and parts.shape == (3, 4)
    assert all(out.base is parts for out in outs[1:])
    assert not any(np.shares_memory(one, two)
                   for i, one in enumerate(outs) for two in outs[i + 1:])
    # both allocated by the caller before any block ran
    caller = threading.get_ident()
    assert all(any(arr is mine and (ident, ran) == (caller, 0)
                   for arr, ident, ran in made) for mine in (total, parts))


@pytest.mark.parametrize("threads", (1, 2, 3))
def test_a_pass_runs_on_at_most_the_blas_thread_count(small_blocks,
                                                      threads):
    small_blocks(threads)
    arr = np.zeros((4, 1001))
    assert len(_native.column_blocks(4, 1001)) == 4
    idents = _native.column_pass(lambda b, _: threading.get_ident(), arr)
    assert len(set(idents)) <= min(threads, 4)
    assert threading.get_ident() in idents  # the caller runs a block too


def test_a_callers_failing_block_waits_for_the_pass_threads(small_blocks):
    small_blocks(2)
    caller = threading.get_ident()
    started, begun, counts = threading.Event(), [], []

    def fn(block, cols):
        if threading.get_ident() == caller:
            assert started.wait(timeout=30)
            raise FloatingPointError("the caller's block failed")
        begun.append(cols.start)
        started.set()
        time.sleep(0.2)  # still running when the caller's block raises
        counts.append(blas_count())

    with pytest.raises(FloatingPointError, match="the caller's block"):
        _native.column_pass(fn, np.zeros((4, 1001)))
    # every block the other thread began had come back, under the hold,
    # before the exception reached the caller
    assert begun and counts == [1] * len(begun)
    assert blas_count() == 2


def test_column_pass_is_named_only_in_matrix_and_native():
    # every pass over a data matrix has one owner: matrix.py calls
    # column_pass, and no other module cuts the data into blocks
    src = Path(_native.__file__).parent
    named = sorted(path.name for path in src.glob("*.py")
                   if re.search(r"\bcolumn_pass\b", path.read_text()))
    assert named == ["_native.py", "matrix.py"]


@pytest.mark.parametrize("k", [1, 3])
def test_products_write_one_anchor_product_with_and_without_the_memo(k):
    rng = np.random.default_rng(k)
    X = DataMatrix(rng.standard_normal((30, 5000)))
    w = rng.standard_normal((30, k))
    a_memo, a_streamed = np.empty((X.n, k)), np.empty((X.n, k))
    u_memo = _products(X, w, X.covariance(), a_memo)
    u_streamed = _products(X, w, None, a_streamed)
    assert np.array_equal(a_memo, a_streamed)
    np.testing.assert_allclose(a_memo, X.data.T @ w, rtol=1e-12)
    assert np.array_equal(u_memo, X.covariance() @ w)
    assert np.array_equal(u_streamed, covariance_apply(X, w))
    np.testing.assert_allclose(u_memo, u_streamed, rtol=1e-12, atol=1e-14)
