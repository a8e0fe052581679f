"""Exception and warning types shared across the library."""


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
