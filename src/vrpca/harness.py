"""Experiment orchestration: configuration, the init -> burn-in -> solve ->
verify pipeline, baseline comparisons, geometry reports, and machine-readable
trace/report emission."""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (_FLAG, _INTEGER, _RANGES, _REAL, ConfigError,
                     NonConvergenceError, _check, _check_run)
from .geometry import (build_convex_region, nonconvexity_certificate,
                       probe_strong_convexity, rayleigh, rayleigh_hessian,
                       tightness_counterexample)
from .initialization import (_alignment_sq, _stream, gaussian_init,
                             power_warm_start)
from .io import FORMATS, load_dataset
from .matrix import DENSE_GUARD, DataMatrix, OrthonormalFrame, rescale_dataset
from .oracle import (SpectrumSpec, dense_eigh, leading_subspace,
                     synthesize_dataset)
from .solvers import (ConvergenceTrace, SolverConfig, _check_epsilon, burn_in,
                      deflation_solve, oja_baseline, orthogonal_iteration,
                      select_parameters, vrpca_block, vrpca_vector)

SOLVERS = ("vrpca_vector", "vrpca_block", "oja", "orthogonal_iteration",
           "deflation")
INITS = ("gaussian", "power")
#: the solvers that run VR-PCA epochs, on a SolverConfig
_EPOCH_SOLVERS = {"vrpca_vector": vrpca_vector, "vrpca_block": vrpca_block,
                  "deflation": deflation_solve}

#: epsilon used by the runtime model when the config leaves it unset
MODEL_EPSILON = 1e-6

#: the most inner steps, m * epochs, that a run may take with the m that
#: select_parameters chose: that m grows as 1/gap^2, so a zero or tiny
#: eigengap selects one that no run finishes (at d = 100, 10^9 compiled
#: steps take about two minutes). An explicit m is the way round it.
STEP_BUDGET = 10**9

#: keys of a trace row, one per TraceRecord field in declaration order
#: ("iter" holds TraceRecord.iteration)
TRACE_KEYS = ("epoch", "iter", "potential", "residual", "samples", "elapsed_s")

_PATH = (lambda v: isinstance(v, (str, os.PathLike)), "be a path")
#: the kind, a (test, rule) pair, of every ExperimentConfig field: a run
#: parameter's is its _RANGES kind. A field whose default is None may
#: also be None.
_KINDS = {
    **{name: kind for name, (_, _, kind) in _RANGES.items()},
    "dataset_path": _PATH, "out_dir": _PATH, "gap_index": _INTEGER,
    "n": _INTEGER, "use_rotation": _FLAG,
    "run_burn_in": _FLAG, "rescale": _FLAG, "oracle_check": _FLAG,
    "dataset_format": (lambda v: v in FORMATS, f"be one of {FORMATS}"),
    "solver": (lambda v: v in SOLVERS, f"be one of {SOLVERS}"),
    "init": (lambda v: v in INITS, f"be one of {INITS}"),
    "spectrum": (lambda v: isinstance(v, tuple) and all(map(_REAL[0], v)),
                 "be a tuple of numbers"),
    "seeds": (lambda v: isinstance(v, tuple) and all(map(_INTEGER[0], v))
              and 0 < len(set(v)) == len(v),
              "be a non-empty tuple of distinct integers"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a dataset source (file or inline spectrum), a solver,
    its parameters, and the seed list for repetitions. Every field must be
    of its _KINDS kind, and the run parameters within their _RANGES, or
    construction raises ConfigError before any data is read. Each field
    is checked once, in declaration order, its kind then its range; then
    each seed, then the rules that tie fields together."""

    dataset_path: str | None = None
    dataset_format: str = "csv"
    spectrum: tuple | None = None
    gap_index: int = 1
    n: int | None = None
    synth_seed: int = 0

    solver: str = "vrpca_vector"
    k: int = 1
    eta: float | None = None
    m: int | None = None
    epochs: int = 10
    delta: float = 0.25
    epsilon: float | None = None
    use_rotation: bool = True
    sweeps: int = 50
    oja_eta0: float | None = None
    oja_iters: int | None = None

    init: str = "power"
    run_burn_in: bool = False
    zeta: float | None = None
    rescale: bool = True
    oracle_check: bool = True
    lambda_hat: float | None = None

    seeds: tuple = (0,)
    out_dir: str | None = None

    def __post_init__(self):
        # a run parameter's range, which the solvers check too, is refused
        # here before any data is loaded or synthesized
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                _check(f.name, value, _KINDS[f.name],
                       *([_RANGES[f.name][:2]] if f.name in _RANGES else []))
        for seed in self.seeds:
            _check_run(seed=seed)
        sources = (self.dataset_path is not None) + (self.spectrum is not None)
        if sources != 1:
            raise ConfigError(
                "exactly one dataset source (dataset_path or spectrum) required")
        if self.spectrum is not None and self.n is None:
            raise ConfigError("synthetic datasets need the column count n")
        if self.run_burn_in and self.k != 1:
            raise ConfigError(f"burn-in needs k == 1, got k={self.k}")
        if self.solver in ("vrpca_vector", "oja") and self.k != 1:
            raise ConfigError(f"solver {self.solver} needs k == 1, got "
                              f"k={self.k}; vrpca_block solves k >= 2")
        if self.solver in _EPOCH_SOLVERS:
            _check_epsilon(self.epsilon,
                           deflation=self.solver == "deflation",
                           reference=self.oracle_check)
        if (self.eta is None) != (self.m is None) and self._selects_steps:
            raise ConfigError(
                "set both eta and m, or neither to select them from the "
                f"eigengap; got eta={self.eta}, m={self.m}")

    @property
    def _selects_steps(self):
        """Whether the run reads (eta, m), so that _single_run selects them
        unless both are set: every solver but orthogonal iteration, and
        Oja only without oja_iters."""
        return not (self.solver == "orthogonal_iteration" or (
            self.solver == "oja" and self.oja_iters is not None))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        for key in ("spectrum", "seeds"):  # JSON arrays arrive as lists
            if isinstance(raw.get(key), list):
                raw[key] = tuple(raw[key])
        return cls(**raw)


@dataclass
class RunReport:
    """Per-seed outcome of the pipeline, JSON-serializable.

    With ``rescale`` on, the solve runs on the data divided by sqrt(r), so
    ``eta``, ``final_residual`` and the trace residuals are in the
    rescaled data's units, while ``eigengap`` and ``realized_r`` are in
    the original data's units. ``eta`` and ``m`` are None when the solver
    read neither: orthogonal iteration, and Oja given ``oja_iters``.
    ``elapsed_s`` is the wall time of this seed's run alone, from
    parameter selection to the report; the shared load, rescale and
    oracle are not in it.
    """

    seed: int
    solver: str
    d: int
    n: int
    k: int
    realized_r: float
    eigengap: float | None
    init_alignment_sq: float | None
    burn_in_iterations: int
    burn_in_converged: bool
    eta: float | None
    m: int | None
    epochs_run: int
    epoch_potentials: list
    final_potential: float | None
    final_residual: float
    samples: int
    elapsed_s: float
    runtime_model: float | None

    def to_dict(self):
        return asdict(self)


def runtime_model(d: int, k: int, n: int, r: float, eigengap: float,
                  epsilon: float) -> float:
    """Cost-model prediction d k (n + r^2 k^3 / eigengap^2) log(1/epsilon);
    a pure function of the instance parameters, no timing involved. A
    nonpositive or infinite eigengap (lambda_hat's _RANGES rule) or an
    epsilon outside (0, 1), for which the model predicts nothing (or a
    nonpositive cost), is refused with a ConfigError."""
    _check("eigengap", eigengap, _REAL, _RANGES["lambda_hat"][:2])
    _check("epsilon", epsilon, _REAL, _RANGES["delta"][:2])
    return float(d * k * (n + r**2 * k**3 / eigengap**2)
                 * np.log(1.0 / epsilon))


def _prepare(cfg: ExperimentConfig) -> tuple:
    """Shared front half of every pipeline: load or synthesize -> optional
    rescale -> exact oracle at desk scale (when cfg.oracle_check) ->
    reference frame and eigengap, else the user estimate lambda_hat.

    Returns (X, original_r, scale, reference, gap); reference and gap are
    None when neither source is available.
    """
    if cfg.dataset_path is not None:
        X0 = load_dataset(cfg.dataset_path, cfg.dataset_format)
    else:
        X0 = synthesize_dataset(
            SpectrumSpec(eigenvalues=cfg.spectrum, k=cfg.gap_index),
            cfg.n, cfg.synth_seed)
    X, scale = rescale_dataset(X0) if cfg.rescale else (X0, 1.0)
    original_r = X0.r
    del X0  # a rescaled run keeps one d x n copy, not two

    reference = None
    gap = None
    if cfg.oracle_check and X.d <= DENSE_GUARD:
        spec = dense_eigh(X)
        reference = leading_subspace(spec, cfg.k)
        gap = (spec.gap_at(cfg.k) if cfg.k < X.d
               else float(spec.eigenvalues[-1]))
    elif cfg.lambda_hat is not None:
        gap = cfg.lambda_hat / scale  # estimate refers to the original data
    return X, original_r, scale, reference, gap


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` to ``path`` as indented JSON and a newline, making the
    directories above it as needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="ascii")


def _write_trace(path: Path, trace: ConvergenceTrace) -> None:
    with path.open("w", encoding="ascii") as fh:
        for r in trace.records:
            # a record's __dict__ holds its fields in declaration order;
            # dataclasses.astuple would deep-copy each of them
            fh.write(json.dumps(dict(zip(TRACE_KEYS, vars(r).values()))))
            fh.write("\n")


def read_trace(path) -> list:
    """Parse a JSONL trace back into a list of record dicts."""
    out = []
    with Path(path).open("r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def trace_fingerprint(path) -> bytes:
    """Canonical bytes of a trace with the wall-clock field dropped.

    Runs with identical (data, config, seed) are bit-identical on every
    field except elapsed_s, which is what this fingerprint compares.
    """
    rows = []
    for rec in read_trace(path):
        rec = {k: v for k, v in rec.items() if k != "elapsed_s"}
        rows.append(json.dumps(rec, sort_keys=True))
    return "\n".join(rows).encode("ascii")


def _single_run(X: DataMatrix, original_r: float, scale: float,
                reference: OrthonormalFrame | None, gap: float | None,
                cfg: ExperimentConfig, seed: int) -> tuple:
    t_start = time.perf_counter()
    d, n = X.d, X.n
    k = cfg.k

    # burn-in and the selection of (eta, m) read the gap: refuse its
    # absence before any data pass, naming why the oracle gave none
    eta, m = cfg.eta, cfg.m
    if gap is None and (cfg.run_burn_in or cfg._selects_steps and eta is None):
        why = (f"no oracle ran, as d = {d} exceeds DENSE_GUARD = "
               f"{DENSE_GUARD}" if cfg.oracle_check else "oracle_check is off")
        raise ConfigError(
            f"burn-in needs an eigengap estimate (set lambda_hat): {why}"
            if cfg.run_burn_in else "set eta and m explicitly, or provide an "
            f"eigengap estimate (lambda_hat) for parameter selection: {why}")

    # (eta, m) only for the solvers that read them; Oja reads m alone,
    # for its default iteration count
    if not cfg._selects_steps:
        eta = m = None
    elif eta is None:  # and so is m: the config sets both or neither
        eta, m = select_parameters(gap, X.r, k, cfg.delta)
        if m * cfg.epochs > STEP_BUDGET:
            raise ConfigError(
                f"eigengap {gap * scale:.3e} selects m = {m}: {cfg.epochs} "
                f"epochs of m steps exceed the step budget of {STEP_BUDGET}; "
                "set eta and m explicitly")

    frame = (gaussian_init(d, k, seed) if cfg.init == "gaussian" else
             power_warm_start(X, seed, k=k, reference=reference).frame)
    align = _alignment_sq(frame, reference)

    burn_iters = 0
    burn_ok = True
    if cfg.run_burn_in:
        zeta = cfg.zeta if cfg.zeta is not None else 1.0 / d
        try:
            frame, burn_iters = burn_in(X, frame, zeta, cfg.delta, gap,
                                        reference=reference, seed=seed)
        except NonConvergenceError as exc:
            burn_ok = False
            burn_iters = exc.iterations
            frame = exc.frame

    if cfg.solver == "oja":
        iters = cfg.oja_iters if cfg.oja_iters is not None else m * cfg.epochs
        eta0 = cfg.oja_eta0 if cfg.oja_eta0 is not None else (
            1.0 / gap if gap else 1.0)
        trace = oja_baseline(X, frame, eta0, iters, reference, seed=seed)
    elif cfg.solver == "orthogonal_iteration":
        trace = orthogonal_iteration(X, frame, cfg.sweeps, reference)
    else:
        solver_cfg = SolverConfig(
            k=k, eta=eta, m=m, epochs=cfg.epochs, seed=seed, delta=cfg.delta,
            epsilon=cfg.epsilon, use_rotation=cfg.use_rotation)
        trace = _EPOCH_SOLVERS[cfg.solver](X, frame, solver_cfg, reference)
    last = trace.records[-1]

    # the model predicts nothing for a nonpositive gap or an epsilon >= 1,
    # which a run may still stop on: the potential lies in [0, k]
    model = None
    model_epsilon = cfg.epsilon or MODEL_EPSILON
    if gap is not None and gap > 0.0 and model_epsilon < 1.0:
        model = runtime_model(d, k, n, original_r, gap * scale, model_epsilon)
    report = RunReport(
        seed=seed, solver=cfg.solver, d=d, n=n, k=k,
        realized_r=original_r,
        eigengap=(gap * scale) if gap is not None else None,
        init_alignment_sq=align,
        burn_in_iterations=burn_iters, burn_in_converged=burn_ok,
        eta=eta, m=m,
        epochs_run=last.epoch,
        epoch_potentials=trace.epoch_potentials(),
        final_potential=last.potential,
        final_residual=last.residual,
        samples=trace.samples,
        elapsed_s=time.perf_counter() - t_start,
        runtime_model=model)
    return report, trace


def run_experiment(cfg: ExperimentConfig):
    """Full pipeline: load/synthesize -> optional rescale -> init ->
    optional burn-in -> parameter selection -> solve -> optional oracle
    verification. The data and oracle are prepared once; the seeds then
    run one after another in config order, in the calling thread. Returns
    a list of RunReport, one per seed in that order; when out_dir is set,
    writes trace_seed<seed>.jsonl and report.json there.

    Burn-in non-convergence is reported in the run report, not raised.
    """
    prep = _prepare(cfg)
    runs = [_single_run(*prep, cfg, s) for s in cfg.seeds]

    reports = [r for r, _ in runs]
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for report, trace in runs:
            _write_trace(out / f"trace_seed{report.seed}.jsonl", trace)
        _write_json(out / "report.json", [r.to_dict() for r in reports])
    return reports


def compare_baselines(cfg: ExperimentConfig):
    """Run the variance-reduced solver, the Oja baseline (k=1 only) and
    orthogonal iteration through the solve pipeline at matched sample
    budgets; returns aligned potential-vs-samples series.

    Every series is one _single_run of cfg with the oracle forced on and its
    one seed (more than one is a ConfigError), so init, burn-in, epsilon and
    oja_eta0 apply as in solve.
    The variance-reduced run, of cfg.solver (vrpca_vector or vrpca_block;
    any other is a ConfigError), sets the budget: Oja takes oja_iters =
    budget and orthogonal iteration sweeps = max(ceil(budget / n), 1).
    Each baseline starts from the same deterministic init as the
    variance-reduced run.
    """
    if cfg.solver not in ("vrpca_vector", "vrpca_block"):
        raise ConfigError("compare runs vrpca_vector or vrpca_block, got "
                          f"solver {cfg.solver}")
    if len(cfg.seeds) > 1:
        raise ConfigError(f"compare runs one seed, got seeds {cfg.seeds}")
    prep = _prepare(replace(cfg, oracle_check=True))
    if prep[3] is None:  # no reference frame: d is past the dense guard
        raise ConfigError(
            f"baseline comparison is desk-scale only: d={prep[0].d} exceeds "
            f"the dense guard ({DENSE_GUARD})")
    (seed,) = cfg.seeds

    def run(**changes):
        return _single_run(*prep, replace(cfg, **changes), seed)

    report, vr_trace = run()
    budget = vr_trace.samples
    series = {"vrpca": _series(vr_trace)}
    if cfg.k == 1:
        series["oja"] = _series(run(solver="oja", oja_iters=budget)[1])
    sweeps = max(int(np.ceil(budget / report.n)), 1)
    series["orthogonal_iteration"] = _series(
        run(solver="orthogonal_iteration", sweeps=sweeps)[1])

    result = {
        "d": report.d, "n": report.n, "k": report.k,
        "realized_r": report.realized_r, "eigengap": report.eigengap,
        "eta": report.eta, "m": report.m, "seed": seed,
        "sample_budget": budget, "series": series,
    }
    if cfg.out_dir is not None:
        _write_json(Path(cfg.out_dir) / "comparison.json", result)
    return result


def _series(trace: ConvergenceTrace):
    return [{"samples": r.samples, "potential": r.potential,
             "residual": r.residual} for r in trace.records]


def geometry_report(lam: float, eps: float, out=None, samples: int = 10000,
                    seed: int = 0):
    """Diagnostics bundle: Hessian-determinant sweep on the 2-D projector
    instance, extremal curvatures over the convexity region, and the
    tightness-counterexample values. JSON-serializable.

    ``lam`` and ``eps`` must lie in (0, 1/2), ``seed`` in [0, 2**64 - 4],
    as the report draws from seed to seed + 3, and ``samples`` in its
    _RANGES; values outside are refused before any draw."""
    cx = tightness_counterexample(lam, eps)
    _check_run(seed=seed)
    _check("seed", seed, (lambda v: v + 3 < 2**64, "lie in [0, 2**64 - 4], "
                          "as seed + 3 is drawn from too"))
    _check_run(samples=samples)
    # 2-D instance with covariance diag(1, 0): determinant of the Hessian
    # is -4 w1^2 w2^2 / ||w||^8, nonpositive everywhere
    X2 = DataMatrix(np.array([[1.0], [0.0]]))
    rng = _stream(seed)
    dets = []
    negative_curvature = 0
    eligible = 0
    for _ in range(200):
        w = rng.standard_normal(2)
        h = rayleigh_hessian(X2, w)
        dets.append(float(np.linalg.det(h)))
        if abs(w[0] * w[1]) > 1e-3:
            eligible += 1
            if not nonconvexity_certificate(X2, w)[0]:
                negative_curvature += 1
    det_sweep = {"max_det": max(dets), "num_samples": 200,
                 "non_psd_fraction_off_axes": negative_curvature / max(eligible, 1)}

    # convexity probe on a spectral-norm-1 instance with the requested gap
    d = 8
    eigs = [1.0, 1.0 - lam] + [max(1.0 - lam, 0.0) * 0.5 ** j
                               for j in range(1, d - 1)]
    spec_req = SpectrumSpec(eigenvalues=tuple(eigs), k=1)
    Xp = synthesize_dataset(spec_req, 4 * d, seed=seed + 1)
    spec = dense_eigh(Xp)
    v1 = spec.eigenvectors.entries[:, 0].copy()
    gap = spec.gap_at(1)
    rngp = _stream(seed + 2)
    tang = rngp.standard_normal(d)
    tang -= (tang @ v1) * v1
    tang /= np.linalg.norm(tang)
    w0 = v1 + (0.8 * gap / 44.0) * tang
    w0 /= np.linalg.norm(w0)
    region = build_convex_region(spec, w0)
    lo, hi = probe_strong_convexity(region, Xp, samples, seed + 3)

    v1_dist = float(np.linalg.norm(np.array([1.0, 0.0, 0.0]) - cx.w0))
    report = {
        "determinant_sweep": det_sweep,
        "convexity_probe": {
            "eigengap": gap, "radius": region.radius,
            "min_curvature": lo, "max_curvature": hi,
            "samples": samples,
            "projected_optimum_in_region":
                region.contains(region.projected_optimum),
        },
        "counterexample": {
            "eigengap": lam, "eps": eps,
            "second_derivative_at_0": cx.second_derivative_at_0,
            "v1_distance": v1_dist,
            "v1_distance_bound": float(np.sqrt(2.0 * (1.0 + eps) * lam)),
            "rayleigh_at_w0": rayleigh(cx.dataset, cx.w0),
        },
    }
    if out is not None:
        _write_json(Path(out), report)
    return report
