"""Stochastic variance-reduced eigensolvers with exact desk-scale oracles,
Rayleigh-quotient geometry diagnostics, and a reproducible experiment
harness."""

from .errors import (ConfigError, DatasetFormatError, DegenerateIterateError,
                     DimensionMismatchError, GapWarning, NonConvergenceError,
                     VrpcaError)
from .geometry import (ConvexRegion, TightnessCounterexample,
                       build_convex_region, directional_curvature,
                       nonconvexity_certificate, probe_strong_convexity,
                       rayleigh, rayleigh_grad, rayleigh_hessian,
                       tightness_counterexample)
from .harness import (ExperimentConfig, RunReport, compare_baselines,
                      geometry_report, read_trace, run_experiment,
                      runtime_model, trace_fingerprint)
from .initialization import (InitReport, gaussian_init, numerical_rank,
                             power_warm_start)
from .io import load_dataset, save_dataset
from .matrix import (DataMatrix, OrthonormalFrame, covariance_apply,
                     polar_normalize, potential, procrustes_rotation,
                     rayleigh_residual, rescale_dataset)
from .oracle import (Spectrum, SpectrumSpec, dense_eigh, leading_subspace,
                     synthesize_dataset)
from .solvers import (ConvergenceTrace, SolverConfig, TraceRecord, burn_in,
                      deflation_solve, oja_baseline, orthogonal_iteration,
                      select_parameters, vrpca_block, vrpca_vector)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceTrace", "ConvexRegion", "DataMatrix",
    "DatasetFormatError", "DegenerateIterateError",
    "DimensionMismatchError", "ExperimentConfig", "GapWarning", "InitReport",
    "NonConvergenceError", "OrthonormalFrame", "RunReport",
    "SolverConfig", "Spectrum", "SpectrumSpec",
    "TightnessCounterexample", "TraceRecord", "VrpcaError",
    "build_convex_region", "burn_in", "compare_baselines", "covariance_apply",
    "deflation_solve", "dense_eigh", "directional_curvature", "gaussian_init",
    "geometry_report", "leading_subspace", "load_dataset",
    "nonconvexity_certificate", "numerical_rank", "oja_baseline",
    "orthogonal_iteration", "polar_normalize", "potential",
    "power_warm_start", "probe_strong_convexity", "procrustes_rotation",
    "rayleigh", "rayleigh_grad", "rayleigh_hessian", "rayleigh_residual",
    "read_trace", "rescale_dataset", "run_experiment", "runtime_model",
    "save_dataset", "select_parameters", "synthesize_dataset",
    "tightness_counterexample", "trace_fingerprint", "vrpca_block",
    "vrpca_vector",
]
