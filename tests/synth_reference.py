"""The synthesizer as a plain loop, kept on the test side as a bitwise
reference: ``synthesize_dataset`` must reproduce its output exactly, since
those bits define every instance. Every dot product of the balancing comes
from ``_dot8``, one Python float operation at a time in the compiled
kernel's order. Its QRs and its product run under the synthesizer's own
one-thread BLAS hold, so the two define the same bits."""

import numpy as np

from vrpca._native import one_blas_thread


def _dot8(a, b):
    """The kernel's dot product of two lists of floats: eight accumulators,
    the remainder into the first, then ((s0+s4)+(s1+s5))+((s2+s6)+(s3+s7))."""
    s = [0.0] * 8
    q = len(a) - len(a) % 8
    for k in range(q):
        s[k % 8] += a[k] * b[k]
    for k in range(q, len(a)):
        s[0] += a[k] * b[k]
    return ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]))


def synthesize_reference(eigenvalues, n, seed):
    """The d x n array ``synthesize_dataset`` returns for this spectrum,
    built by a plain loop (numpy scalars, fresh rows each rotation)."""
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    d = eigs.size
    rng = np.random.Generator(np.random.Philox(key=seed))
    gq = rng.standard_normal((d, d))
    gr = rng.standard_normal((n, d))
    with one_blas_thread():
        q, rq = np.linalg.qr(gq)
        r0, rr = np.linalg.qr(gr)
    q = q * np.sign(np.diag(rq))
    r0 = r0 * np.sign(np.diag(rr))

    b = r0 * np.sqrt(n * eigs)
    tau = float(eigs.sum())
    norms = np.einsum("ij,ij->i", b, b)
    for _ in range(n):
        i = int(np.argmin(norms))
        j = int(np.argmax(norms))
        lo, hi = norms[i], norms[j]
        if hi - lo <= 1e-13 * max(tau, 1.0):
            break
        cross = _dot8(b[i].tolist(), b[j].tolist())
        root = np.sqrt(max(cross * cross - (lo - tau) * (hi - tau), 0.0))
        t1 = (cross + root) / (hi - tau)
        t2 = (cross - root) / (hi - tau)
        t = t1 if abs(t1) >= abs(t2) else t2
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        bi = c * b[i] - s * b[j]
        bj = s * b[i] + c * b[j]
        b[i] = bi
        b[j] = bj
        norms[i] = _dot8(bi.tolist(), bi.tolist())
        norms[j] = _dot8(bj.tolist(), bj.tolist())
    with one_blas_thread():
        return q @ b.T
