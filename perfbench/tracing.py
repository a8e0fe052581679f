"""Spans recorded from the benchmark's side of the program's public API.

``traced_pipeline`` calls the public functions that ``harness._single_run``
and ``run_experiment`` call, in the same order, and wraps each call in a
span. Spans are held in memory and written out when the run ends. The
program itself records nothing; the spans sit around calls into it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

#: the ExperimentConfig settings traced_pipeline mirrors; others raise
_MIRRORED = dict(init="power", run_burn_in=False, oracle_check=True)


@dataclass
class Spans:
    """In-memory span log: name, start, end, parent span and run id."""

    rows: list = field(default_factory=list)

    @contextmanager
    def span(self, name, run, parent=None):
        row = {"id": len(self.rows), "name": name, "run": run,
               "parent": parent, "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        try:
            yield row["id"]
        finally:
            row["end"] = time.perf_counter()

    def durations(self, run):
        """Total seconds per span name within one run."""
        out = {}
        for row in self.rows:
            if row["run"] == run:
                out[row["name"]] = (out.get(row["name"], 0.0)
                                    + row["end"] - row["start"])
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


@dataclass
class Prepared:
    """What run_experiment builds before its first seed: the data the
    solver sees, the oracle spectrum, the reference subspace and the gap."""

    cfg: object
    X: object
    spectrum: object
    reference: object
    gap: float


def _untimed(name):
    return nullcontext()


def prepare(config: dict, span=_untimed) -> Prepared:
    """Load or synthesize, rescale and solve the oracle, as run_experiment
    does for ``config``; ``span(name)`` wraps each call."""
    from vrpca import (ExperimentConfig, SpectrumSpec, dense_eigh,
                       leading_subspace, load_dataset, rescale_dataset,
                       synthesize_dataset)

    cfg = ExperimentConfig.from_dict(config)
    for key, value in _MIRRORED.items():
        if getattr(cfg, key) != value:
            raise ValueError(f"traced pipeline needs {key}={value!r}")
    if cfg.dataset_path is not None:
        with span("io.load"):
            X = load_dataset(cfg.dataset_path, cfg.dataset_format)
    else:
        with span("oracle.synth"):
            X = synthesize_dataset(
                SpectrumSpec(eigenvalues=cfg.spectrum, k=cfg.gap_index),
                cfg.n, cfg.synth_seed)
    if cfg.rescale:
        with span("matrix.rescale"):
            X, _ = rescale_dataset(X)
    with span("oracle.eigh"):
        spectrum = dense_eigh(X)
        reference = leading_subspace(spectrum, cfg.k)
        gap = spectrum.gap_at(cfg.k)
    return Prepared(cfg=cfg, X=X, spectrum=spectrum, reference=reference,
                    gap=gap)


def step_parameters(prep: Prepared, span=_untimed):
    """(eta, m): the configured pair, or the selection rule's."""
    from vrpca import select_parameters

    cfg = prep.cfg
    if cfg.eta is not None and cfg.m is not None:
        return cfg.eta, cfg.m
    with span("solvers.select"):
        return select_parameters(prep.gap, prep.X.r, cfg.k, cfg.delta)


def solver_config(cfg, eta, m, seed):
    from vrpca import SolverConfig

    return SolverConfig(k=cfg.k, eta=eta, m=m, epochs=cfg.epochs, seed=seed,
                        delta=cfg.delta, epsilon=cfg.epsilon,
                        use_rotation=cfg.use_rotation)


@dataclass
class TracedRun:
    """Per-seed outcomes of one traced pipeline call, plus the data, oracle
    and frames it produced, which the layer micro-timings reuse."""

    run: int
    seeds: list
    X: object
    spectrum: object
    frames: list


def traced_pipeline(spans: Spans, run: int, config: dict) -> TracedRun:
    """The run_experiment pipeline for ``config``, one span per call.

    Seeds run one after another (run_experiment runs them in a thread
    pool), so each seed's spans measure it alone. Like harness._single_run,
    each seed ends with one rayleigh_residual pass on the final frame. Not
    mirrored: CLI parsing, the thread pool, building the reports and
    writing trace and report files.
    """
    from vrpca import (power_warm_start, rayleigh_residual, vrpca_block,
                       vrpca_vector)

    with spans.span("harness.pipeline", run) as root:
        prep = prepare(config, lambda name: spans.span(name, run, root))
        cfg, X = prep.cfg, prep.X
        solver = {"vrpca_vector": vrpca_vector,
                  "vrpca_block": vrpca_block}[cfg.solver]
        seeds, frames = [], []
        for seed in cfg.seeds:
            with spans.span("harness.seed", run, root) as parent:
                def span(name):
                    return spans.span(name, run, parent)
                with span("init.warm_start"):
                    frame = power_warm_start(X, seed, k=cfg.k,
                                             reference=prep.reference).frame
                eta, m = step_parameters(prep, span)
                with span("solvers.solve"):
                    trace = solver(X, frame, solver_config(cfg, eta, m, seed),
                                   prep.reference)
                with span("harness.final_residual"):
                    rayleigh_residual(X, trace.final_frame)
            boundaries = trace.boundary_records()
            seeds.append({
                "seed": seed, "samples": trace.samples, "m": m,
                "final_potential": boundaries[-1].potential,
                "epochs": max((r.epoch for r in trace.records), default=0),
                "records": len(trace.records)})
            frames.append(trace.final_frame)
    return TracedRun(run=run, seeds=seeds, X=X, spectrum=prep.spectrum,
                     frames=frames)


def block_vector_diffs(config: dict) -> list:
    """Max |vrpca_block - vrpca_vector| over final frames, per seed, on the
    workload's k=1 instance with the parameters its pipeline uses."""
    from vrpca import power_warm_start, vrpca_block, vrpca_vector

    prep = prepare(config)
    eta, m = step_parameters(prep)
    diffs = []
    for seed in prep.cfg.seeds:
        start = power_warm_start(prep.X, seed, reference=prep.reference).frame
        solver_cfg = solver_config(prep.cfg, eta, m, seed)
        vec = vrpca_vector(prep.X, start, solver_cfg, prep.reference)
        blk = vrpca_block(prep.X, start, solver_cfg, prep.reference)
        diffs.append(float(np.max(np.abs(blk.final_frame.entries
                                         - vec.final_frame.entries))))
    return diffs


def per_call_seconds(fn):
    """Median seconds per call of ``fn()`` over at least 5 batches and
    0.2 s, with batches sized so that one takes about a millisecond."""
    t0 = time.perf_counter()
    fn()
    batch = max(1, int(1e-3 / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    start = time.perf_counter()
    while len(samples) < 5 or time.perf_counter() - start < 0.2:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return float(np.median(samples))


def layer_timings(run: TracedRun, seed: int) -> dict:
    """Micro-timings of the matrix layer on the run's own data and frames.

    covariance_apply and rayleigh_residual use the exact DataMatrix the
    solver saw and its final frame. procrustes_rotation and
    polar_normalize use k=3 frames of the same data: the oracle's leading
    3-subspace and a k=3 power warm start.
    """
    from vrpca import (covariance_apply, leading_subspace, polar_normalize,
                       power_warm_start, procrustes_rotation,
                       rayleigh_residual)

    X, W = run.X, run.frames[0]
    cov_s = per_call_seconds(lambda: covariance_apply(X, W))
    residual_s = per_call_seconds(lambda: rayleigh_residual(X, W))
    C = leading_subspace(run.spectrum, 3)
    D = power_warm_start(X, seed, k=3).frame
    AD = covariance_apply(X, D)
    procrustes_s = per_call_seconds(lambda: procrustes_rotation(C, D))
    polar_s = per_call_seconds(lambda: polar_normalize(AD))
    # X (X^T W) reads the d x n data twice; computed bytes, not measured
    cov_bytes = 2 * X.data.nbytes
    return {"cov_s": cov_s, "cov_bytes": cov_bytes, "residual_s": residual_s,
            "procrustes_s": procrustes_s, "polar_s": polar_s}
