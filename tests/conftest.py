"""Shared test instances.

The "standard" synthetics fix every knob (dimension, spectrum, seeds, the
solver confidence parameter) so that thresholds asserted in the tests are
reproducible bit-for-bit. Oracle references are computed once per session.
"""

import numpy as np
import pytest

from vrpca import (DataMatrix, SpectrumSpec, dense_eigh, leading_subspace,
                   rescale_dataset, synthesize_dataset)


def spectrum_k1(d=50):
    """Leading pair (1, 0.7), fast geometric tail: eigengap 0.3 at k=1."""
    eigs = [1.0, 0.7] + [0.7 * (1.0 / 3.0) ** j for j in range(1, d - 1)]
    return tuple(eigs)


def spectrum_k3(d=50):
    """(1, .95, .9, .6, fast tail): eigengap 0.3 at k=3."""
    eigs = [1.0, 0.95, 0.90, 0.60] + [0.6 * (1.0 / 3.0) ** j
                                      for j in range(1, d - 3)]
    return tuple(eigs)


class Instance:
    """A synthetic dataset plus its oracle decomposition, original and
    rescaled to unit max column norm."""

    def __init__(self, eigenvalues, n, seed, gap_index=1):
        self.spec_req = SpectrumSpec(eigenvalues=eigenvalues, k=gap_index)
        self.X = synthesize_dataset(self.spec_req, n, seed)
        self.Xs, self.scale = rescale_dataset(self.X)
        self.spectrum = dense_eigh(self.Xs)
        self.gap_index = gap_index

    def reference(self, k=None):
        return leading_subspace(self.spectrum, k or self.gap_index)

    @property
    def gap(self):
        """Eigengap of the rescaled data at the instance's gap index."""
        return self.spectrum.gap_at(self.gap_index)


@pytest.fixture(scope="session")
def std_k1():
    """The d=50, n=500, eigengap-0.3 vector instance, seed 1."""
    return Instance(spectrum_k1(), n=500, seed=1, gap_index=1)


@pytest.fixture(scope="session")
def std_k3():
    """The d=50, n=500, k=3 block instance with gap 0.3 at 3, seed 1."""
    return Instance(spectrum_k3(), n=500, seed=1, gap_index=3)


@pytest.fixture(scope="session")
def small_k1():
    """A light d=12 variant for fast solver unit tests."""
    return Instance(spectrum_k1(d=12), n=64, seed=5, gap_index=1)


def random_orthogonal(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class GramCounter(np.ndarray):
    """Data whose X X^T products, the covariance memo's, are counted: one
    per block Gram, so one per memo for data of one column block (every
    matrix ``counted`` is given here)."""

    formed = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and all(isinstance(a, GramCounter)
                                      for a in inputs[:2]):
            GramCounter.formed += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs),
                                      **kwargs)


def counted(X):
    """A fresh DataMatrix over X's data (so no memo yet) whose memo
    formations GramCounter counts; resets the count."""
    Y = DataMatrix(X.data)
    Y.data = Y.data.view(GramCounter)
    GramCounter.formed = 0
    return Y
