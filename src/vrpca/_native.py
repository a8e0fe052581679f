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

The module also reaches into the OpenBLAS and LAPACK that numpy.linalg
links, through that extension module's own handle, opened once
(_numpy_linalg). Every function used there has its signature in one
table, _NUMPY_ABI, as the compiled library's have in _ABI; _typed looks
them up and types them for both. ``one_blas_thread`` holds OpenBLAS at
one thread, so that the data passes and every dense d x d call (the
synthesizer's factorizations and product, the oracle's eigh, the
covariance memo's products in matrix.py and the certificate's eigh in
geometry.py) give the same bits whatever the caller's thread count, at
every d, and leave OpenBLAS's worker idle. Where the handle resolves no
OpenBLAS thread-count functions it does nothing. ``qr_in_place`` calls
the LAPACK pair numpy.linalg.qr itself calls, dgeqrf and dorgqr, on the
caller's own column-major buffer: the same bits as numpy.linalg.qr
without its copies of the operand. Where the handle resolves no such
pair it returns None and the caller runs numpy.linalg.qr.

``column_pass`` runs every pass over a d x n data matrix but one,
numerical_rank's Gram X^T X for n < d, which is a single product held at
one BLAS thread. Its callers are all in matrix.py: the norm pass, the
covariance memo, the products A W and X^T W (matrix._products) and a
deflation stage's projected copy (matrix._projected). It runs them in
fixed column blocks under that hold: block i on thread i mod t of the
caller and a concurrent.futures executor, t the thread count the hold
saved. The blocks depend on the shape alone, so the bits do not follow
the thread count, and no pass hands OpenBLAS threaded work, whose idle
worker would then spin on a second CPU. A summing pass (the memo and
A W) has each block write into a slot the caller's thread allocated and
adds the slots in block order, so no pass thread allocates a result:
glibc serves each thread from an arena of its own and keeps freed memory
in the arena it came from, where block results allocated on the pass
threads stayed between calls. The executor, and the import of
concurrent.futures, come with the first pass of more than one block, not
at import; a forked child builds its own."""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
_IP, _C = ctypes.POINTER(_I), ctypes.c_int  # int64_t * and int
#: the C signature of each exported function: (return type, parameter types)
_ABI = {"vrpca_steps_k1": (_I, (_P, _I, _P, _I, _P, _P, _D, _P, _P, _P, _P,
                                _D)),
        "vrpca_balance_rows": (None, (_P, _I, _I, _P, _D, _D, _P, _I))}
_lock = threading.Lock()
_lib = None  # the loaded library; False once it proved unavailable

#: the signatures of the OpenBLAS and LAPACK functions used from the
#: library numpy.linalg links: the thread-count pairs, numpy's bundled
#: scipy-openblas first, and its ILP64 dgeqrf and dorgqr, every integer
#: argument an int64: (m, n[, k], a, lda, tau, work, lwork, info)
_NUMPY_ABI = {
    "scipy_openblas_get_num_threads64_": (_C, ()),
    "scipy_openblas_set_num_threads64_": (None, (_C,)),
    "openblas_get_num_threads": (_C, ()),
    "openblas_set_num_threads": (None, (_C,)),
    "scipy_dgeqrf_64_": (None, (_IP, _IP, _P, _IP, _P, _P, _IP, _IP)),
    "scipy_dorgqr_64_": (None, (_IP, _IP, _IP, _P, _IP, _P, _P, _IP, _IP))}
#: the (get, set) thread-count pairs, in the order they are looked for
_BLAS_PAIRS = (("scipy_openblas_get_num_threads64_",
                "scipy_openblas_set_num_threads64_"),
               ("openblas_get_num_threads", "openblas_set_num_threads"))
_blas_lock = threading.Lock()
_blas_depth = 0  # callers inside one_blas_thread
_blas_saved = 0  # the thread count the first of them found

#: column_pass gives each block at least this many multiply-adds
#: (about 1 ms of one core's work), so that a pass too small to repay the
#: waking of a second thread runs inline; and at most _MAX_BLOCKS blocks
_BLOCK_WORK = 1 << 21
_MAX_BLOCKS = 4
_executor_lock = threading.Lock()
_executor = None  # (pid, executor) of column_pass's threads


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
                if _typed(lib, _ABI, _ABI) is None:
                    raise OSError("the library lacks a function of _ABI")
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
    tree = np.empty(4 * leaves, dtype=np.int64)
    lib.vrpca_balance_rows(b.ctypes.data, n, d, norms.ctypes.data, tau, tol,
                           tree.ctypes.data, leaves)
    return True


def _typed(lib, names, abi):
    """The functions ``names`` of the ctypes library ``lib``, each typed
    from its ``abi`` signature, as a tuple; None when ``lib`` does not
    export them all, or is None (a library that could not be opened)."""
    if not all(hasattr(lib, name) for name in names):
        return None
    funcs = tuple(getattr(lib, name) for name in names)
    for f, name in zip(funcs, names):
        f.restype, f.argtypes = abi[name]
    return funcs


@functools.cache
def _numpy_linalg():
    """numpy.linalg's extension module as a ctypes library, opened once
    (threads racing on the first call may each open it, and dlopen just
    counts one more reference); None where it cannot be. dlsym on
    its handle searches the libraries it links, so its functions are
    those of the OpenBLAS whose factorizations numpy runs."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def blas_threads():
    """(get, set): the thread-count functions of the OpenBLAS numpy
    loaded, the first of _BLAS_PAIRS that numpy.linalg resolves, looked
    up once; None where there are none."""
    return next(filter(None, (_typed(_numpy_linalg(), pair, _NUMPY_ABI)
                              for pair in _BLAS_PAIRS)), None)


@functools.cache
def _lapack_qr():
    """(dgeqrf, dorgqr) of numpy's LAPACK, looked up once; None where
    numpy.linalg resolves no such pair."""
    return _typed(_numpy_linalg(), ("scipy_dgeqrf_64_", "scipy_dorgqr_64_"),
                  _NUMPY_ABI)


def _lapack(f, *args):
    """Call the LAPACK routine ``f`` with ``args``, ints passed by
    reference and arrays by address, plus its lwork = -1 workspace query
    first: numpy's rule, lwork = max(1, n, the optimum), n = args[1]. The
    info argument comes last; a nonzero one is a LinAlgError."""
    def call(work, lwork):
        info = _I(0)  # ctypes passes an int64 by reference to a POINTER
        f(*(_I(v) if isinstance(v, int) else v.ctypes.data for v in args),
          work.ctypes.data, _I(lwork), info)
        if info.value:
            raise np.linalg.LinAlgError(
                f"LAPACK {f.__name__} refused argument {-info.value}")

    query = np.zeros(1)
    call(query, -1)
    lwork = max(1, args[1], int(query[0]))
    call(np.empty(lwork), lwork)


def qr_in_place(a):
    """Overwrite the column-major, writeable m x n float64 array ``a``
    (m >= n) with the Q of its reduced QR factorization and return the
    diagonal of R; None where numpy's LAPACK exports no such pair
    (_lapack_qr).

    These are the calls numpy.linalg.qr makes, dgeqrf then dorgqr with
    numpy's workspace sizes, so Q and diag(R) are its bits; but they run
    on ``a`` itself, where numpy.linalg.qr copies its operand and copies
    it into and out of column-major order around each call. The
    transient memory is tau and a workspace of n times LAPACK's block
    size doubles. Operands outside
    this contract raise DimensionMismatchError before any LAPACK call."""
    qr = _lapack_qr()
    if qr is None:
        return None
    shape = np.shape(a)
    _check("QR", len(shape) == 2 and shape[0] >= shape[1],
           (a, shape, "FW"))
    m, n = shape
    tau = np.empty(n)
    _lapack(qr[0], m, n, a, max(1, m), tau)
    diag = a.diagonal().copy()
    _lapack(qr[1], m, n, n, a, max(1, m), tau)
    return diag


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's BLAS on one thread, then restore the
    thread count; the body gets that count (None without blas_threads()).

    The count belongs to the process: while any caller is inside, the BLAS
    calls of every other thread run on one thread too. Calls nest and may
    overlap across threads: the first caller in saves the count and sets
    it to 1, the last one out restores it. Without blas_threads() the body
    just runs.

    Holding one thread also keeps OpenBLAS's own workers idle. After each
    call that OpenBLAS threads, its idle worker spins for about 130 ms
    before it sleeps, so a loop of such calls keeps a second CPU busy
    (README, *Performance*)."""
    global _blas_depth, _blas_saved
    pair = blas_threads()
    with _blas_lock:
        if pair and _blas_depth == 0:
            _blas_saved = pair[0]()
            pair[1](1)
        _blas_depth += 1
        saved = _blas_saved if pair else None
    try:
        yield saved
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if pair and _blas_depth == 0:
                pair[1](_blas_saved)


def column_blocks(d, n, work=1):
    """The column bounds (start, stop) of column_pass's blocks of a d x n
    operand, for a pass of ``work`` multiply-adds per entry: at most
    _MAX_BLOCKS blocks of at least _BLOCK_WORK multiply-adds each, all of
    one width rounded up to whole 8-column groups (so every block of an
    aligned d x n array starts aligned) but the ragged last. They depend
    on (d, n, work) alone."""
    count = min(_MAX_BLOCKS, d * n * work // _BLOCK_WORK) or 1
    width = -(-n // count // 8) * 8 if count > 1 else n
    return [(lo, min(lo + width, n)) for lo in range(0, n, width)]


def _pass_executor():
    """This process's executor for column_pass's blocks: up to
    _MAX_BLOCKS - 1 threads named vrpca-pass_*, each started only when a
    block is handed out and no thread is idle. An idle thread holds no
    block (the executor drops each task once run), so it keeps no matrix,
    say a file mapping, alive. Built on first use, which imports
    concurrent.futures; a forked child, which inherits the executor but
    none of its threads, builds its own."""
    from concurrent.futures import ThreadPoolExecutor

    global _executor
    with _executor_lock:
        if _executor is None or _executor[0] != os.getpid():
            _executor = (os.getpid(), ThreadPoolExecutor(
                _MAX_BLOCKS - 1, thread_name_prefix="vrpca-pass"))
        return _executor[1]


def column_pass(fn, arr, work=1, shape=None):
    """fn over the column blocks of the d x n array ``arr`` for a pass of
    ``work`` multiply-adds per entry (column_blocks), with numpy's BLAS
    held at one thread (one_blas_thread): the list of fn(arr[:, cols],
    cols), cols = slice(lo, hi), in block order. A pass with one result per
    column writes it through ``cols`` into an array of its own, so no
    concatenation follows the pass.

    Given a ``shape``, the pass sums: it returns the sum of the blocks'
    results, each a float64 array of that shape. fn(arr[:, cols], cols,
    out) writes block i's result into ``out``, a C-ordered slot, and its
    return value is ignored. The slots are the sum itself (block 0's) and
    one array holding the other blocks' parts, both allocated by the
    caller's thread before any block runs; after the blocks, the parts
    are added into the sum in block order, np.add(total, part,
    out=total). A pass thread thus allocates no result: glibc serves each
    thread from an arena of its own and keeps freed memory in the arena
    it came from, so a block result allocated on a pass thread and freed
    by the caller would stay in that thread's arena between calls.

    The blocks run on t threads, t the BLAS thread count that the hold
    saved but no more than there are blocks: block i runs on thread
    i mod t, thread 0 the caller and the others the executor's
    (_pass_executor). So OPENBLAS_NUM_THREADS still sets how many CPUs a
    pass uses. With one block, a count of 1, or no thread-count pair, the
    caller runs them all. The partition and the order of the sum depend
    on (d, n, work) alone, so the results are the same bits for any
    number of threads. A summing pass holds _MAX_BLOCKS slots at most. An
    exception from fn reaches the caller once every block has come back;
    the hold, too, ends only then. fn must not call column_pass: it could
    wait on the threads it runs on."""
    blocks = [(arr[:, lo:hi], slice(lo, hi))
              for lo, hi in column_blocks(*arr.shape, work)]
    if shape is not None:
        total = np.empty(shape)
        slots = [total, *np.empty((len(blocks) - 1, *total.shape))]
        blocks = [(*block, slot) for block, slot in zip(blocks, slots)]
    out = [None] * len(blocks)
    with one_blas_thread() as saved:
        t = min(saved or 1, len(blocks))

        def share(j):
            for i in range(j, len(blocks), t):
                out[i] = fn(*blocks[i])

        if t == 1:
            share(0)
        else:
            from concurrent.futures import wait

            futures = [_pass_executor().submit(share, j) for j in range(1, t)]
            try:
                share(0)
            finally:
                wait(futures)
            for future in futures:
                future.result()
    if shape is None:
        return out
    for part in slots[1:]:
        np.add(total, part, out=total)
    return total
