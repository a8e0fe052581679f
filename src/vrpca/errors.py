"""Exception and warning types shared across the library, the one table
of admissible values (_RANGES) through which every module refuses a bad
parameter with a ConfigError, and the one rule (_warn_gap) by which a gap
too small to trust raises a GapWarning."""

import math
import numbers
import warnings


class VrpcaError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(VrpcaError):
    """Operands violate a shape contract."""


class DegenerateIterateError(VrpcaError):
    """A normalization step hit a (near-)singular Gram matrix or zero norm."""


class NonConvergenceError(VrpcaError):
    """An iteration budget was exhausted before the stopping rule was met.

    Carries the partial convergence trace (when one was being recorded),
    the last iterate and the number of iterations performed (when counted),
    so callers can inspect what happened.
    """

    def __init__(self, message, trace=None, frame=None, iterations=None):
        super().__init__(message)
        self.trace = trace
        self.frame = frame
        self.iterations = iterations


class DatasetFormatError(VrpcaError):
    """A dataset file failed to parse; the message carries line/offset."""


class ConfigError(VrpcaError):
    """An experiment configuration is inconsistent or incomplete."""


class GapWarning(UserWarning):
    """A requested subspace sits on a zero or tiny eigengap."""


#: a gap of at most this fraction of the leading eigenvalue is too small
#: to trust (_warn_gap)
GAP_RTOL = 1e-3


def _warn_gap(gap, lead, what, why):
    """The gap rule of leading_subspace and deflation_solve: a GapWarning
    when ``gap`` is at most GAP_RTOL times |``lead``|, the leading
    eigenvalue or its estimate, so data scaled by any c != 0 warns alike;
    a zero gap always warns. The message reads "<what> is <gap>, ...;
    <why>"."""
    if gap <= GAP_RTOL * abs(lead):
        warnings.warn(f"{what} is {gap:.3e}, at most {GAP_RTOL:g} of the "
                      f"leading eigenvalue {lead:.3e}; {why}", GapWarning,
                      stacklevel=3)


#: three kinds of value, (test, rule); a bool is an integer or a number
#: only to isinstance, and is of the flag kind alone
_INTEGER = (lambda v: isinstance(v, numbers.Integral)
            and not isinstance(v, bool), "be an integer")
_REAL = (lambda v: isinstance(v, numbers.Real)
         and not isinstance(v, bool), "be a number")
_FLAG = (lambda v: isinstance(v, bool), "be true or false")

#: the range of a step-sizing value; an infinite one sizes no step
_FINITE = (lambda v: 0.0 < v < math.inf, "be positive and finite")

#: the admissible range and the kind of every checked parameter, name ->
#: (test, rule, kind); each test is written so that NaN fails it
_RANGES = {
    "k": (lambda v: v >= 1, "be >= 1", _INTEGER),
    "eta": (*_FINITE, _REAL),
    "m": (lambda v: v >= 1, "be >= 1", _INTEGER),
    "epochs": (lambda v: v >= 0, "be >= 0", _INTEGER),
    "delta": (lambda v: 0.0 < v < 1.0, "lie in (0,1)", _REAL),
    "epsilon": (lambda v: v > 0.0, "be positive", _REAL),
    "zeta": (lambda v: 0.0 < v <= 1.0, "lie in (0,1]", _REAL),
    "lambda_hat": (*_FINITE, _REAL),
    "r": (*_FINITE, _REAL),
    "sweeps": (lambda v: v >= 0, "be >= 0", _INTEGER),
    "oja_iters": (lambda v: v >= 0, "be >= 0", _INTEGER),
    "oja_eta0": (*_FINITE, _REAL),
    "samples": (lambda v: v >= 1, "be >= 1", _INTEGER),
    "seed": (lambda v: 0 <= v < 2**64, "lie in [0, 2**64)", _INTEGER),
    "eps": (lambda v: 0.0 < v < 0.5, "lie in (0, 1/2)", _REAL),
}
_RANGES["synth_seed"] = _RANGES["seed"]  # the synthesis seed, the same rule


def _check(name, value, *rules):
    """Refuse ``value`` at the first of the (test, rule) pairs ``rules``
    that it fails."""
    for test, rule in rules:
        if not test(value):
            raise ConfigError(f"{name} must {rule}, got {value!r}")


def _check_run(**values):
    """Refuse the first value not of its _RANGES kind or outside its
    range. None is of neither kind, so a caller passes an optional
    parameter only when it is set."""
    for name, value in values.items():
        test, rule, kind = _RANGES[name]
        _check(name, value, kind, (test, rule))
