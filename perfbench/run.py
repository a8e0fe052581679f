#!/usr/bin/env python3
"""vrpca benchmark: time to a target potential, end to end and per layer.

    python3 perfbench/run.py --workload k1-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 0.1 --trace 0

One run sets the workload up from its seed, then calls the public pipeline
(run_experiment, or cli.main for bign-file) in a closed loop for --seconds
and checks every output. With --trace 1 it also runs the traced pipeline
(perfbench/tracing.py) and reports per-layer metrics instead of end-to-end
ones. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. ``--workload all`` runs each workload in its
own process; ``--smoke`` uses tiny instances, for the benchmark's own tests.

The program is imported from ``src/`` of the checkout this file sits in.
Scratch files go to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import INPUTS_FILE, WORKLOADS, call, make_inputs  # noqa: E402

#: calls made even when one call outlasts --seconds, so wall_s is a median;
#: also the number of traced calls
MIN_CALLS = 3
#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 9
#: a set-up child running longer than this is killed
SETUP_TIMEOUT_S = 150
#: vrpca_block at k=1 must reproduce vrpca_vector to this max-abs difference
K1_EQUIVALENCE_TOL = 1e-12

END_TO_END = {
    "wall_s": "s", "samples_per_s": "1/s", "samples_to_target": "count",
    "final_potential": "1", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "io.load_s": "s", "io.load_mb_per_s": "MB/s",
    "oracle.synth_s": "s", "oracle.eigh_s": "s",
    "matrix.rescale_s": "s", "matrix.cov_apply_ms": "ms",
    "matrix.cov_apply_gbps": "GB/s", "matrix.residual_ms": "ms",
    "matrix.procrustes_us": "us", "matrix.polar_us": "us",
    "init.warm_start_s": "s",
    "solvers.solve_s": "s", "solvers.us_per_step": "us",
    "solvers.inner_steps": "count", "solvers.epochs": "count",
    "solvers.records": "count", "solvers.record_passes_per_anchor": "1",
    "solvers.data_passes_per_epoch": "1", "solvers.record_share": "1",
    "harness.seed_pool_speedup": "1", "harness.unattributed_s": "s",
    "harness.trace_bytes": "bytes", "trace_overhead_s": "s",
    "fail_fraction": "1",
}


def import_program():
    """Import vrpca from this checkout's src/, or exit non-zero."""
    if not (SRC / "vrpca" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'vrpca'}")
    sys.path.insert(0, str(SRC))
    import vrpca
    if Path(vrpca.__file__).resolve().parent != SRC / "vrpca":
        sys.exit(f"perfbench: imported vrpca from {vrpca.__file__}, "
                 f"not from {SRC}")


def machine_info():
    """Where a result was measured: cores, CPU, Python, numpy, BLAS build
    and the BLAS thread count in use, and the commit when there is one."""
    import ctypes
    import numpy as np

    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = None
    np.dot(np.ones(2), np.ones(2))  # make sure the BLAS library is mapped
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                break
    info["commit"] = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        git = None
    if git is not None and git.returncode == 0:
        top, head = git.stdout.split()
        if Path(top).resolve() == ROOT:  # not an enclosing repository's
            info["commit"] = head
    return info


def timed_setups(args, workdir):
    """Seconds of a fresh interpreter that imports the program and
    generates the workload's inputs, once for each of SETUP_REPEATS runs.

    The child is reaped with a blocking wait, which returns as soon as it
    exits; a watchdog kills a child that outlasts SETUP_TIMEOUT_S.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)] + (
               ["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def closed_loop(fns, seconds):
    """Rounds of back-to-back calls for ``seconds``, at least MIN_CALLS.

    Each round calls every function in ``fns`` once, in order, so that two
    interleaved paths see the same machine conditions. Returns one list of
    (wall seconds, result or None) per function; a call that raises is
    logged to stderr and recorded with result None. Garbage left by one
    call is collected before the next call's clock starts.
    """
    out = [[] for _ in fns]
    start = time.perf_counter()
    while len(out[0]) < MIN_CALLS or time.perf_counter() - start < seconds:
        for fn, calls in zip(fns, out):
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception:  # a failed call is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                result = None
            calls.append((time.perf_counter() - t0, result))
    return out


def check_untraced(calls, seeds, target):
    """Per-seed checks on the untraced calls; returns (attempted, failed).

    A seed run fails when its call raised, when it ends above the target,
    or when its epoch_potentials and samples differ bitwise from the first
    successful call's run of the same seed.
    """
    first = {}
    attempted = failed = 0
    for _, reports in calls:
        attempted += len(seeds)
        if reports is None or sorted(r["seed"] for r in reports) != sorted(seeds):
            failed += len(seeds)
            continue
        for rep in reports:
            key = (rep["epoch_potentials"], rep["samples"])
            expect = first.setdefault(rep["seed"], key)
            pot = rep["final_potential"]
            if pot is None or not pot <= target or key != expect:
                failed += 1
    return attempted, failed


def check_traced(traced, reports, target):
    """Traced seed runs must end at or below the target and reproduce the
    untraced run's samples and final_potential exactly."""
    by_seed = {r["seed"]: r for r in reports or []}
    attempted = failed = 0
    for run in traced:
        for s in run.seeds:
            attempted += 1
            ref = by_seed.get(s["seed"])
            pot = s["final_potential"]
            if ref is None or pot is None or not pot <= target \
                    or s["samples"] != ref["samples"] \
                    or pot != ref["final_potential"]:
                failed += 1
    return attempted, failed


def check_block_vector(config):
    """vrpca_block at k=1 against vrpca_vector, one attempt per seed; a seed
    fails when the final frames differ by more than K1_EQUIVALENCE_TOL or
    the comparison raises. Returns (attempted, failed, diffs)."""
    from tracing import block_vector_diffs

    try:
        diffs = block_vector_diffs(config)
    except Exception:  # a failed check is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        diffs = [float("inf")] * len(config["seeds"])
    failed = sum(not d <= K1_EQUIVALENCE_TOL for d in diffs)
    return len(diffs), failed, diffs


def layer_metrics(spans, traced, wall_s, config, micro, trace_bytes):
    """Per-layer metrics from the traced runs (medians over runs), the
    untraced median wall time and the matrix-layer micro-timings."""
    runs = [spans.durations(t.run) for t in traced]

    def med(name):
        return statistics.median(d.get(name, 0.0) for d in runs)

    last = traced[-1].seeds
    nseeds = len(last)
    n = traced[-1].X.n
    epochs = sum(s["epochs"] for s in last)
    records = sum(s["records"] for s in last)
    inner = sum(s["samples"] - s["epochs"] * n for s in last)
    pre = statistics.median(
        sum(d.get(name, 0.0) for name in
            ("io.load", "oracle.synth", "matrix.rescale", "oracle.eigh"))
        for d in runs)
    load_s = med("io.load")
    solve_s = med("solvers.solve")
    file_bytes = (os.path.getsize(config["dataset_path"])
                  if config.get("dataset_path") else 0)
    return {
        "io.load_s": load_s,
        "io.load_mb_per_s": file_bytes / load_s / 1e6 if load_s else 0.0,
        "oracle.synth_s": med("oracle.synth"),
        "oracle.eigh_s": med("oracle.eigh"),
        "matrix.rescale_s": med("matrix.rescale"),
        "matrix.cov_apply_ms": micro["cov_s"] * 1e3,
        "matrix.cov_apply_gbps": micro["cov_bytes"] / micro["cov_s"] / 1e9,
        "matrix.residual_ms": micro["residual_s"] * 1e3,
        "matrix.procrustes_us": micro["procrustes_s"] * 1e6,
        "matrix.polar_us": micro["polar_s"] * 1e6,
        "init.warm_start_s": med("init.warm_start") / nseeds,
        "solvers.solve_s": solve_s / nseeds,
        "solvers.us_per_step": solve_s / inner * 1e6,
        "solvers.inner_steps": inner,
        "solvers.epochs": epochs,
        "solvers.records": records,
        "solvers.record_passes_per_anchor": records / epochs,
        "solvers.data_passes_per_epoch": last[0]["m"] / n,
        # derived: the residual of each record is one uncounted data pass
        "solvers.record_share": records * micro["residual_s"] / solve_s,
        # run_experiment calls a single seed directly, without the pool
        "harness.seed_pool_speedup": (med("harness.seed") / (wall_s - pre)
                                      if nseeds > 1 else 1.0),
        "harness.unattributed_s": wall_s - pre - med("harness.seed"),
        "harness.trace_bytes": trace_bytes,
        # a pipeline difference, not only the cost of spans: the traced
        # pipeline runs seeds in sequence and skips CLI parsing, the pool
        # and report and trace writing
        "trace_overhead_s": med("harness.pipeline") - wall_s,
    }


def run_workload(args):
    """One benchmark run of one workload; prints the result line."""
    from tracing import Spans, layer_timings, traced_pipeline

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else "")
    workdir = WORK / "work" / f"{wl.name}-{os.getpid()}"
    results = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        machine = machine_info()
        setup_walls = timed_setups(args, workdir)
        config = json.loads((workdir / INPUTS_FILE).read_text())
        target = config["epsilon"]
        seeds = config["seeds"]

        def untraced():
            return call(config)

        spans, traced, run_ids = Spans(), [], itertools.count()

        def traced_call():
            traced.append(traced_pipeline(spans, next(run_ids), config))
            return traced[-1]

        if args.trace:
            # untraced and traced calls alternate, so their difference is
            # not a drift of the machine between two loops
            calls, traced_calls = closed_loop([untraced, traced_call],
                                              args.seconds)
        else:
            [calls] = closed_loop([untraced], args.seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        wall_s = statistics.median(w for w, _ in calls)
        attempted, failed = check_untraced(calls, seeds, target)
        reports = next((r for _, r in calls if r is not None), None)
        checks = {"untraced": [attempted, failed]}

        if wl.block_vector_check:
            k1_att, k1_failed, diffs = check_block_vector(config)
            attempted += k1_att
            failed += k1_failed
            checks["k1_block_vs_vector"] = diffs

        if args.trace:
            t_att, t_failed = check_traced(traced, reports, target)
            # a traced call that raised left no TracedRun behind
            t_raised = sum(r is None for _, r in traced_calls) * len(seeds)
            attempted += t_att + t_raised
            failed += t_failed + t_raised
            checks["traced"] = [t_att + t_raised, t_failed + t_raised]
            out_dir = config.get("out_dir")
            trace_bytes = (sum(p.stat().st_size
                               for p in Path(out_dir).iterdir())
                           if out_dir else 0)
            micro = layer_timings(traced[-1], seeds[0])
            metrics = layer_metrics(spans, traced, wall_s, config, micro,
                                    trace_bytes)
            metrics["fail_fraction"] = failed / attempted
            units = PER_LAYER
        else:
            samples = sum(r["samples"] for r in reports) if reports else 0
            finals = [r["final_potential"] for r in reports or []]
            metrics = {
                "wall_s": wall_s,
                "samples_per_s": samples / wall_s,
                "samples_to_target": samples,
                "final_potential": (max(finals)
                                    if finals and None not in finals
                                    else float("inf")),
                "setup_s": statistics.median(setup_walls),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END

        correct = failed == 0 and all(map(math.isfinite, metrics.values()))
        result = {"correct": bool(correct), "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": float(metrics[k]), "unit": u}
                              for k, u in units.items()}}
        record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke, "machine": machine,
                  "setup_walls_s": setup_walls,
                  "call_walls_s": [w for w, _ in calls],
                  "checks": checks, "result": result}
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            spans.write(results / f"{tag}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {wl.name} seed={args.seed} calls={len(calls)} "
          f"machine={json.dumps(machine)}")
    for name, m in result["metrics"].items():
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak RSS, warm caches and lazy
    set-up do not leak between them. Prints {workload: result} last."""
    here = str(Path(__file__).resolve())
    combined = {}
    for name in WORKLOADS:
        cmd = [sys.executable, here, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the closed loop measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    wl = WORKLOADS.get(args.workload)
    if wl is not None and wl.cpus is not None:
        # before numpy loads, so that its BLAS library sizes its thread
        # pool to the same CPUs
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:wl.cpus])
    import_program()
    if args.setup_only:
        make_inputs(WORKLOADS[args.workload], args.seed, Path(args.workdir),
                    args.smoke)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
