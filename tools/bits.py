#!/usr/bin/env python3
"""Print the bits of each benchmark workload's result at one seed: the
samples, final_potential.hex() and a sha256 of the epoch potentials, one
line a run report.

    python3 tools/bits.py                   # seed 1, at the thread count set
    python3 tools/bits.py --seed 2
    python3 tools/bits.py --threads 1,2     # once under each count; compare

The workloads are the ones BENCHMARK.json names. Each one's inputs are
made by perfbench/workloads.py's make_inputs in a temporary directory and
run by one untraced call of its ``call``, as the benchmark runs them; the
program is imported from src/ of the checkout this file sits in. With
--threads the script runs itself once under each OPENBLAS_NUM_THREADS
given, prints each run's lines and exits non-zero if any differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workload_bits(seed):
    """The result lines of every benchmark workload at ``seed``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import INPUTS_FILE, WORKLOADS, call, make_inputs

    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    lines = []
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            make_inputs(WORKLOADS[name], seed, Path(tmp), smoke=False)
            reports = call(json.loads((Path(tmp) / INPUTS_FILE).read_text()))
        for rep in reports:
            pots = rep["epoch_potentials"]
            digest = hashlib.sha256(struct.pack(f"<{len(pots)}d", *pots))
            lines.append(f"{name} seed={seed} run_seed={rep['seed']} "
                         f"samples={rep['samples']} "
                         f"final_potential={rep['final_potential'].hex()} "
                         f"epoch_potentials_sha256={digest.hexdigest()}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads",
                   help="comma-separated OPENBLAS_NUM_THREADS values")
    args = p.parse_args(argv)
    if args.threads is None:
        print("\n".join(workload_bits(args.seed)))
        return 0
    outs = {}
    for threads in args.threads.split(","):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        outs[threads] = subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed)], env=env,
            check=True, capture_output=True, text=True).stdout
        print(f"# OPENBLAS_NUM_THREADS={threads}\n{outs[threads]}", end="")
    if len(set(outs.values())) > 1:
        print(f"DIFFERENT under OPENBLAS_NUM_THREADS={args.threads}")
        return 1
    print(f"equal under OPENBLAS_NUM_THREADS={args.threads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
