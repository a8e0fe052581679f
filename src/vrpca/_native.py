"""The compiled library ``_kernel.c``: its build, load and C ABI, and
``_sum8``, the Python mirror of the order in which its loops sum a dot
product. No other module knows the library exists.

The library is built on first use, not at import, and loaded at most once
per process. If no compiler is found or the build or load fails, a
RuntimeWarning says why, once; ``steps_k1`` then returns None and
``balance_rows`` False. Callers then run their numpy references,
_steps_k1_numpy and _balance_rows_numpy, which sum through _sum8 and so
give the compiled loops' bits. Operands outside the C contract raise
DimensionMismatchError before any C call.

The module also reaches into the OpenBLAS that numpy.linalg links, found
through that extension module's own handle: ``one_blas_thread`` holds it
at one thread, so that the synthesizer's factorizations give the same bits
whatever the caller's thread count. Where the handle resolves no OpenBLAS
thread-count functions it does nothing."""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
import warnings
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError

_SRC = Path(__file__).with_name("_kernel.c")
#: no -ffast-math and no -march (see the header of _kernel.c)
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
#: the C signature of each exported function: (return type, parameter types)
_ABI = {"vrpca_steps_k1": (_I, (_P, _I, _P, _I, _P, _P, _D, _P, _P, _P, _P,
                                _D)),
        "vrpca_balance_rows": (None, (_P, _I, _I, _P, _D, _D, _P, _P, _P,
                                      _I))}
_lock = threading.Lock()
_lib = None  # the loaded library; False once it proved unavailable

#: OpenBLAS's (get, set) thread-count symbols, numpy's bundled
#: scipy-openblas first, in the order they are looked for
_BLAS_PAIRS = (("scipy_openblas_get_num_threads64_",
                "scipy_openblas_set_num_threads64_"),
               ("openblas_get_num_threads", "openblas_set_num_threads"))
_blas_lock = threading.Lock()
_blas = None  # (get, set) of numpy's BLAS; False once none was found
_blas_depth = 0  # callers inside one_blas_thread
_blas_saved = 0  # the thread count the first of them found


def _compiler():
    """The C compiler command: the one Python was built with, else cc;
    None when neither is on PATH."""
    import shlex
    import shutil
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    return ["cc"] if shutil.which("cc") else None


def _cache_dir():
    return Path.home() / ".cache" / "vrpca"


def _build(cache_dir, cc):
    """Path of the compiled library in ``cache_dir``, compiling it first
    unless a build of the same source, compiler and flags is there.

    The library is written to a temporary file and renamed into place, so
    concurrent builders (threads or processes) never load a partial file.
    """
    import hashlib
    import platform
    import subprocess
    import tempfile

    key = hashlib.sha256(_SRC.read_bytes() + repr(
        (cc, _FLAGS, platform.machine())).encode()).hexdigest()[:16]
    path = Path(cache_dir) / f"kernel-{key}.so"
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so",
                               dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*cc, *_FLAGS, "-o", tmp, str(_SRC), "-lm"],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _library():
    """The loaded library, its _ABI functions typed, or None."""
    import subprocess

    global _lib
    with _lock:
        if _lib is None:
            cc = _compiler()
            try:
                if cc is None:
                    raise OSError("no C compiler on PATH")
                lib = ctypes.CDLL(str(_build(_cache_dir(), cc)))
                for name, (ret, params) in _ABI.items():
                    getattr(lib, name).restype = ret
                    getattr(lib, name).argtypes = params
                _lib = lib
            except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                warnings.warn(f"vrpca: compiled kernel unavailable ({exc}); "
                              "using the numpy steps and row balancing",
                              RuntimeWarning, stacklevel=4)
                _lib = False
        return _lib or None


def _check(contract, ok, *operands):
    """Refuse operands the C code would misread: ``ok`` holds the contract's
    own conditions; each (array, shape, flags) is None or a float64 array
    of that shape that np.require leaves as it is."""
    if not (ok and all(v is None or (np.require(v, np.float64, flags) is v
                                     and v.shape == shape)
                       for v, shape, flags in operands)):
        raise DimensionMismatchError(f"{contract} operands violate its contract")


def _sum8(p):
    """The kernel's sum of the products ``p``: eight lanes over the first
    len(p) - len(p) % 8 terms, the rest added to lane 0 in turn, then the
    lanes paired as ((0+4) + (1+5)) + ((2+6) + (3+7))."""
    q = len(p) & -8
    s = np.add.reduce(p[:q].reshape(-1, 8)).tolist()  # row by row, axis 0
    if q < len(p):
        for v in p[q:].tolist():
            s[0] += v
    return ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]))


def steps_k1(xd, idx, a, eu, eta, w, scale, anchor, etas, norm_floor):
    """solvers._steps_k1 in C, ``norm_floor`` its degenerate-norm bound:
    the step code, or None when the library is unavailable.

    The iterate is w * scale[0]: ``w`` stays unnormalized, and ``scale``,
    a float64 array of one element, carries its pending normalization from
    call to call; the kernel reads and writes both in place. It reads the
    sampled columns of ``xd`` in place; a deflation stage hands in its
    projected copy of the data (solvers.deflation_solve). A step costs
    about 44-69 ns at d = 100 and 105-173 ns at d = 300, by the copy the
    CPU runs (README, *Performance*)."""
    lib = _library()
    if lib is None:
        return None
    d, n = xd.shape
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    _check("k=1 kernel", len(idx) == 0 or (idx.min() >= 0 and idx.max() < n),
           (xd, (d, n), "F"), (a, (n,), "C"), (eu, (d,), "C"),
           (w, (d,), "CW"), (scale, (1,), "CW"), (anchor, (d,), "C"),
           (etas, idx.shape, "C"))
    opt = [None if v is None else v.ctypes.data for v in (etas, anchor)]
    return lib.vrpca_steps_k1(
        xd.ctypes.data, d, idx.ctypes.data, len(idx), a.ctypes.data,
        eu.ctypes.data, eta, *opt, w.ctypes.data, scale.ctypes.data,
        norm_floor)


def balance_rows(b, norms, tau, tol):
    """oracle._balance_rows in C: whether it ran."""
    lib = _library()
    if lib is None:
        return False
    n, d = b.shape
    _check("balancing", True, (b, (n, d), "CW"), (norms, (n,), "CW"))
    leaves = 1 << (n - 1).bit_length()
    bi, bj = np.empty(d), np.empty(d)
    tree = np.empty(4 * leaves, dtype=np.int64)
    lib.vrpca_balance_rows(b.ctypes.data, n, d, norms.ctypes.data, tau, tol,
                           bi.ctypes.data, bj.ctypes.data, tree.ctypes.data,
                           leaves)
    return True


def _find_blas():
    """The (get, set) thread-count functions of the first _BLAS_PAIRS
    pair that numpy.linalg's extension module resolves, or None. dlsym on
    its handle searches the libraries it links, so this finds the OpenBLAS
    whose factorizations the hold is for."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for names in _BLAS_PAIRS:
        if all(hasattr(lib, name) for name in names):
            get, set_ = (getattr(lib, name) for name in names)
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


def blas_threads():
    """(get, set): the thread-count functions of the OpenBLAS numpy
    loaded, looked up once; None where there are none."""
    global _blas
    with _blas_lock:
        if _blas is None:
            _blas = _find_blas() or False
        return _blas or None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's BLAS on one thread, then restore the
    thread count.

    The count belongs to the process: while any caller is inside, the BLAS
    calls of every other thread run on one thread too. Calls nest and may
    overlap across threads: the first caller in saves the count and sets
    it to 1, the last one out restores it. Without blas_threads() the body
    just runs."""
    global _blas_depth, _blas_saved
    pair = blas_threads()
    with _blas_lock:
        if pair and _blas_depth == 0:
            _blas_saved = pair[0]()
            pair[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if pair and _blas_depth == 0:
                pair[1](_blas_saved)
