"""The synthesizer's Givens balancing loop as first written, kept on the test
side as a bitwise reference: the tuned loop in ``synthesize_dataset`` must
reproduce its output exactly, since those bits define every instance."""

import numpy as np


def synthesize_reference(eigenvalues, n, seed):
    """The d x n array ``synthesize_dataset`` returns for this spectrum,
    built by the original loop (numpy scalars, fresh rows each rotation)."""
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    d = eigs.size
    rng = np.random.Generator(np.random.Philox(key=seed))
    gq = rng.standard_normal((d, d))
    q, rq = np.linalg.qr(gq)
    q = q * np.sign(np.diag(rq))
    gr = rng.standard_normal((n, d))
    r0, rr = np.linalg.qr(gr)
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
        cross = float(b[i] @ b[j])
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
        norms[i] = bi @ bi
        norms[j] = bj @ bj
    return q @ b.T
