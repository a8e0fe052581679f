"""The benchmark's own tests: smoke runs on tiny instances, the format of
the result line, and the correctness checks.

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    # the runner also holds workloads BENCHMARK.json leaves out
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_and_runs_every_check(trace, key):
    results = _result(_bench("--workload", "all", "--smoke", "--seconds",
                             "0.1", "--trace", str(trace)))
    assert list(results) == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in BENCH[key]}
    for name, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        assert res["correct"] and res["failed"] == 0, (name, res)
        record = json.loads((run.WORK / "results" /
                             f"{name}-seed1-trace{trace}-smoke.json")
                            .read_text())
        checks = record["checks"]
        nseeds = len(WORKLOADS[name].smoke_config["seeds"])
        assert checks["untraced"][0] >= run.MIN_CALLS * nseeds
        assert ("k1_block_vs_vector" in checks) \
            == WORKLOADS[name].block_vector_check
        assert ("traced" in checks) == bool(trace)
        if trace:
            assert checks["traced"][0] >= run.MIN_CALLS * nseeds


def test_file_workload_seed_changes_bytes_not_the_solve():
    a = _result(_bench("--workload", "bign-file", "--smoke", "--seed", "1",
                       "--seconds", "0.1"))
    b = _result(_bench("--workload", "bign-file", "--smoke", "--seed", "2",
                       "--seconds", "0.1"))
    for metric in ("samples_to_target", "final_potential"):
        assert a["metrics"][metric] == b["metrics"][metric]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "k1-desk", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_block_vector_divergence_is_counted_as_a_failure():
    """A known finding in the program, kept visible: on the d=12 k1-desk
    smoke instance with the selection-rule m, seed 1, vrpca_block with
    use_rotation ends ~9e-7 from vrpca_vector at k=1 (the k=1 overlap turns
    negative, so the rotation is -I). The check must count it as a failed
    seed run. When the program is fixed, this test fails and goes."""
    run.import_program()
    config = dict(WORKLOADS["k1-desk"].smoke_config, seeds=[1])
    del config["m"], config["eta"]
    attempted, failed, diffs = run.check_block_vector(config)
    assert (attempted, failed) == (1, 1)
    assert diffs[0] > run.K1_EQUIVALENCE_TOL


def _report(seed, potentials, samples):
    return {"seed": seed, "epoch_potentials": potentials,
            "final_potential": potentials[-1], "samples": samples}


def test_check_untraced_counts_every_kind_of_failure():
    good = [_report(1, [0.5, 1e-9], 10), _report(2, [0.4, 2e-9], 10)]
    assert run.check_untraced([(1.0, good)] * 3, [1, 2], 1e-8) == (6, 0)
    above = [_report(1, [0.5, 1e-7], 10), _report(2, [0.4, 2e-9], 10)]
    assert run.check_untraced([(1.0, above)], [1, 2], 1e-8) == (2, 1)
    drift = [_report(1, [0.5, 1.5e-9], 10), _report(2, [0.4, 2e-9], 10)]
    assert run.check_untraced([(1.0, good), (1.0, drift)], [1, 2],
                              1e-8) == (4, 1)
    assert run.check_untraced([(1.0, good), (1.0, None)], [1, 2],
                              1e-8) == (4, 2)


def test_check_traced_requires_exact_reproduction():
    class Traced:
        def __init__(self, seeds):
            self.seeds = seeds

    reports = [_report(1, [0.5, 1e-9], 10)]
    same = Traced([{"seed": 1, "samples": 10, "final_potential": 1e-9}])
    moved = Traced([{"seed": 1, "samples": 10,
                     "final_potential": math.nextafter(1e-9, 1.0)}])
    assert run.check_traced([same], reports, 1e-8) == (1, 0)
    assert run.check_traced([moved], reports, 1e-8) == (1, 1)
    assert run.check_traced([same], None, 1e-8) == (1, 1)
