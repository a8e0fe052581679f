"""Experiment pipeline: configuration, reports, traces, baselines comparison,
the geometry report, and the CLI."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from vrpca import (ConfigError, DataMatrix, ExperimentConfig, GapWarning,
                   compare_baselines, geometry_report, harness, read_trace,
                   run_experiment, runtime_model, save_dataset,
                   trace_fingerprint)
from vrpca.cli import build_parser
from vrpca.cli import main as cli_main

from conftest import GramCounter, counted, spectrum_k1, spectrum_k3


def synth_cfg(**kw):
    base = dict(spectrum=spectrum_k1(d=12), n=64, synth_seed=5,
                solver="vrpca_vector", k=1, epochs=3, delta=0.25,
                seeds=(1,), init="power")
    base.update(kw)
    return ExperimentConfig(**base)


#: baseline settings the config refuses: (field, value, message)
BAD_BASELINE_VALUES = [
    ("oja_iters", -5, r"oja_iters must be >= 0, got -5"),
    ("sweeps", -3, r"sweeps must be >= 0, got -3"),
    ("oja_eta0", -1.0, r"oja_eta0 must be positive, got -1.0"),
    ("oja_eta0", 0.0, r"oja_eta0 must be positive, got 0.0"),
    ("oja_eta0", float("nan"), r"oja_eta0 must be positive, got nan"),
]


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(dataset_path="x.csv", spectrum=(1.0, 0.5), n=4)

    def test_seeds_must_be_distinct(self):
        with pytest.raises(ConfigError, match="distinct"):
            synth_cfg(seeds=(1, 1))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"spectrum": (1.0, 0.5), "n": 4,
                                        "bogus": 1})

    def test_every_field_has_a_kind(self):
        # __post_init__ looks every field's kind up in harness._KINDS, so
        # a field added without one fails here and in every config
        assert {f.name for f in fields(ExperimentConfig)} <= set(
            harness._KINDS)

    def test_numpy_scalars_are_of_their_kind(self):
        cfg = synth_cfg(n=np.int64(64), gap_index=np.int32(1),
                        seeds=(np.int64(1),), spectrum=tuple(
                            np.float64(v) for v in spectrum_k1(d=12)))
        assert cfg.n == 64

    def test_burn_in_needs_k1(self):
        # burn-in is a k=1 phase; a block run must not report one it skipped
        with pytest.raises(ConfigError, match="burn-in needs k == 1"):
            synth_cfg(solver="vrpca_block", k=2, run_burn_in=True)
        assert synth_cfg(solver="vrpca_block", k=2).k == 2

    @pytest.mark.parametrize("solver", ["vrpca_vector", "oja"])
    def test_k1_solvers_need_k1(self, solver):
        # caught in the config, before any warm start is paid for
        with pytest.raises(ConfigError, match=f"solver {solver} needs k == 1"):
            synth_cfg(solver=solver, k=2)

    @pytest.mark.parametrize("field, value, message", BAD_BASELINE_VALUES)
    def test_bad_baseline_values_refused(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            synth_cfg(**{field: value})

    @pytest.mark.parametrize("solver, extra", [
        ("vrpca_vector", {}), ("vrpca_block", dict(k=2)),
        ("deflation", dict(k=2)), ("oja", {})])
    @pytest.mark.parametrize("lone", [dict(eta=0.5), dict(m=7)])
    def test_lone_eta_or_m_refused(self, solver, extra, lone):
        # selection would overwrite the one that was set without a word
        with pytest.raises(ConfigError, match=r"set both eta and m, or "
                           r"neither .* got eta=.*, m="):
            synth_cfg(solver=solver, **extra, **lone)

    @pytest.mark.parametrize("lone", [dict(eta=0.5), dict(m=7)])
    def test_lone_eta_or_m_kept_where_nothing_is_selected(self, lone):
        assert synth_cfg(solver="orthogonal_iteration", **lone)
        assert synth_cfg(solver="oja", oja_iters=10, **lone)


class TestRunExperiment:
    def test_zero_epochs_echoes_init(self):
        reports = run_experiment(synth_cfg(epochs=0))
        rep = reports[0]
        assert rep.init_alignment_sq is not None
        assert rep.epochs_run == 0
        assert rep.final_potential is not None

    def test_pipeline_converges(self):
        reports = run_experiment(synth_cfg(epochs=6))
        rep = reports[0]
        assert rep.final_potential <= 1e-8
        assert rep.eigengap == pytest.approx(0.3, abs=1e-9)
        assert rep.realized_r == pytest.approx(sum(spectrum_k1(d=12)),
                                               rel=1e-12)
        assert rep.epoch_potentials[-1] == rep.final_potential
        assert rep.runtime_model is not None

    def test_trace_files_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(synth_cfg(out_dir=str(out1)))
        run_experiment(synth_cfg(out_dir=str(out2)))
        f1 = trace_fingerprint(out1 / "trace_seed1.jsonl")
        f2 = trace_fingerprint(out2 / "trace_seed1.jsonl")
        assert f1 == f2

    def test_trace_roundtrip_lossless(self, tmp_path):
        out = tmp_path / "run"
        rep = run_experiment(synth_cfg(out_dir=str(out)))[0]
        path = out / "trace_seed1.jsonl"
        rows = read_trace(path)
        assert rows
        for row in rows:
            assert set(row) == {"epoch", "iter", "potential", "residual",
                                "samples", "elapsed_s"}
            # residuals come from the anchor pass, so only at boundaries
            boundary = row["iter"] in (0, rep.m)
            assert (row["residual"] is None) != boundary
        assert '"residual": null' in path.read_text()
        # a JSON round trip of the parsed rows reproduces the file
        text = path.read_text().strip().splitlines()
        again = [json.dumps(json.loads(line)) for line in text]
        assert again == [json.dumps(r) for r in rows]

    def test_multi_seed_runs_and_report_file(self, tmp_path):
        # the seeds run in config order, each as it runs alone
        def timeless(rep):
            return {k: v for k, v in rep.items() if k != "elapsed_s"}

        out = tmp_path / "multi"
        cfg = synth_cfg(seeds=(3, 1, 2), out_dir=str(out))
        reports = run_experiment(cfg)
        assert [r.seed for r in reports] == [3, 1, 2]
        saved = json.loads((out / "report.json").read_text())
        assert saved == [r.to_dict() for r in reports]
        for rep in reports:
            assert rep.final_potential <= 1e-6
            alone_dir = tmp_path / f"alone{rep.seed}"
            (alone,) = run_experiment(replace(cfg, seeds=(rep.seed,),
                                              out_dir=str(alone_dir)))
            assert timeless(rep.to_dict()) == timeless(alone.to_dict())
            name = f"trace_seed{rep.seed}.jsonl"
            assert trace_fingerprint(out / name) == \
                trace_fingerprint(alone_dir / name)

    def test_burn_in_path(self):
        cfg = synth_cfg(run_burn_in=True, init="gaussian", epochs=4)
        rep = run_experiment(cfg)[0]
        assert rep.burn_in_converged
        assert rep.burn_in_iterations > 0
        assert rep.final_potential <= 1e-8

    def test_failed_burn_in_reports_iterations(self, monkeypatch):
        from vrpca import NonConvergenceError, burn_in, solvers
        import vrpca.harness

        raised = []
        monkeypatch.setattr(solvers, "BURN_C_PRIME", 0.01)

        def short_burn_in(*args, **kw):
            try:
                return burn_in(*args, **kw)
            except NonConvergenceError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(vrpca.harness, "burn_in", short_burn_in)
        cfg = synth_cfg(run_burn_in=True, init="gaussian", epochs=1)
        rep = run_experiment(cfg)[0]
        assert not rep.burn_in_converged
        assert rep.burn_in_iterations == raised[0].iterations
        assert rep.burn_in_iterations > len(raised[0].trace.records)

    def test_replicate_seeds_reach_burn_in_and_oja(self, monkeypatch):
        from vrpca import burn_in, harness, oja_baseline

        seen = []

        def spy(real):
            def call(*args, seed, **kwargs):
                seen.append((real.__name__, seed))
                return real(*args, seed=seed, **kwargs)
            return call

        monkeypatch.setattr(harness, "burn_in", spy(burn_in))
        monkeypatch.setattr(harness, "oja_baseline", spy(oja_baseline))
        burned = run_experiment(synth_cfg(run_burn_in=True, init="gaussian",
                                          epochs=1, seeds=(1, 2)))
        oja = run_experiment(synth_cfg(solver="oja", oja_iters=400,
                                       seeds=(1, 2)))
        assert sorted(seen) == [("burn_in", 1), ("burn_in", 2),
                                ("oja_baseline", 1), ("oja_baseline", 2)]
        assert oja[0].final_potential != oja[1].final_potential
        assert burned[0].final_potential != burned[1].final_potential

    def test_epsilon_without_reference_refused(self):
        # no oracle: the solver has no potential to stop on
        with pytest.raises(ConfigError, match=r"epsilon=0.001 needs the "
                           r"oracle reference .*oracle_check"):
            run_experiment(synth_cfg(oracle_check=False, lambda_hat=0.3,
                                     epsilon=1e-3))

    def test_explicit_parameters_skip_selection(self):
        cfg = synth_cfg(eta=0.01, m=400, epochs=3, oracle_check=True)
        rep = run_experiment(cfg)[0]
        assert rep.eta == 0.01
        assert rep.m == 400

    def test_burn_in_needs_a_gap(self):
        cfg = synth_cfg(oracle_check=False, eta=0.1, m=5, run_burn_in=True)
        with pytest.raises(ConfigError,
                           match="burn-in needs an eigengap estimate"):
            run_experiment(cfg)

    def test_no_oracle_requires_gap_or_params(self):
        cfg = synth_cfg(oracle_check=False)
        with pytest.raises(ConfigError):
            run_experiment(cfg)
        rep = run_experiment(synth_cfg(oracle_check=False,
                                       lambda_hat=0.3))[0]
        assert rep.final_potential is None  # no reference without oracle
        assert rep.final_residual <= 1e-4

    def test_step_parameters_only_for_solvers_that_read_them(self, capsys):
        # no gap and no (eta, m): orthogonal iteration and Oja with its
        # iteration count run and report None; the epoch solvers refuse
        base = dict(oracle_check=False, k=2, sweeps=5)
        rep = run_experiment(synth_cfg(solver="orthogonal_iteration",
                                       **base))[0]
        assert (rep.eta, rep.m) == (None, None)
        assert rep.epochs_run == 5
        rep = run_experiment(synth_cfg(solver="oja", oracle_check=False,
                                       oja_iters=200, oja_eta0=1.0))[0]
        assert (rep.eta, rep.m, rep.samples) == (None, None, 200)
        for solver in ("oja", "vrpca_vector", "vrpca_block", "deflation"):
            changes = dict(base, solver=solver,
                           k=1 if solver in ("oja", "vrpca_vector") else 2)
            with pytest.raises(ConfigError, match="set eta and m"):
                run_experiment(synth_cfg(**changes))
        rep = run_experiment(synth_cfg(solver="oja", eta=0.01, m=40,
                                       epochs=2))[0]
        assert (rep.eta, rep.m, rep.samples) == (0.01, 40, 80)
        assert cli_main(["solve", "--spectrum", "1,0.7,0.23,0.1", "--n", "40",
                         "--solver", "orthogonal_iteration",
                         "--no-oracle-check", "--sweeps", "5"]) == 0
        out = json.loads(capsys.readouterr().out)[0]
        assert (out["eta"], out["m"]) == (None, None)

    def test_block_solver_path(self):
        cfg = synth_cfg(solver="vrpca_block", k=2, epochs=5, delta=0.5)
        rep = run_experiment(cfg)[0]
        assert rep.final_potential <= 1e-6

    def test_standard_instance_through_pipeline(self):
        from conftest import spectrum_k1 as sk1
        cfg = ExperimentConfig(spectrum=sk1(d=50), n=500, synth_seed=1,
                               solver="vrpca_vector", k=1, epochs=10,
                               delta=0.25, seeds=(1,), init="power")
        rep = run_experiment(cfg)[0]
        assert rep.final_potential <= 1e-8
        assert rep.eigengap == pytest.approx(0.3, abs=1e-9)

    def test_deflation_path(self):
        cfg = synth_cfg(solver="deflation", k=2, epochs=5, delta=0.5)
        rep = run_experiment(cfg)[0]
        assert rep.final_potential <= 1e-5
        # two stages, each running every epoch (stages carry no reference,
        # so none stops early): n + m samples per epoch
        assert rep.epochs_run == 2 * 5
        assert rep.samples == 2 * 5 * (rep.n + rep.m) > 0

    def test_deflation_refuses_epsilon(self):
        # the stages never stop early, so an epsilon would go unheeded
        with pytest.raises(ConfigError, match="vrpca_block stops on epsilon"):
            run_experiment(synth_cfg(solver="deflation", k=2, epochs=5,
                                     delta=0.5, epsilon=1e-3))

    def test_deflation_reports_one_potential_per_stage(self, tmp_path):
        # the report and the trace file come from the deflation trace: one
        # sweep-style row per stage, and the run starts from the init frame
        cfg = synth_cfg(spectrum=spectrum_k3(d=12), gap_index=3,
                        solver="deflation", k=3, epochs=4, delta=0.5,
                        out_dir=str(tmp_path))
        rep = run_experiment(cfg)[0]
        rows = read_trace(tmp_path / "trace_seed1.jsonl")
        assert len(rep.epoch_potentials) == len(rows) == 3
        assert rep.epoch_potentials == [row["potential"] for row in rows]
        assert rep.final_potential == rep.epoch_potentials[-1] <= 1e-5
        assert rep.final_residual == rows[-1]["residual"]
        assert rep.samples == rows[-1]["samples"] == 3 * 4 * (rep.n + rep.m)
        assert rep.epochs_run == rows[-1]["epoch"] == 3 * 4
        gauss = run_experiment(replace(cfg, init="gaussian",
                                       out_dir=None))[0]
        assert gauss.final_potential != rep.final_potential


class TestCovarianceMemo:
    @pytest.mark.parametrize("changes, formed", [
        (dict(seeds=(1, 2)), 1),
        (dict(run_burn_in=True, epsilon=1e-6), 1),
        (dict(solver="vrpca_block", k=2, eta=0.05, m=64), 1),
        (dict(solver="deflation", k=2), 1),
        (dict(solver="oja", oja_iters=500), 1),
        (dict(solver="orthogonal_iteration", sweeps=3), 1),
        (dict(oracle_check=False, lambda_hat=0.3), 0),
    ])
    def test_one_memo_per_run(self, monkeypatch, changes, formed):
        # the oracle forms the memo; the warm start, burn-in and solve of
        # every seed apply it, and a run without an oracle never forms it
        from vrpca import harness

        def rescale(X0, _real=harness.rescale_dataset):
            X, scale = _real(X0)
            return counted(X), scale

        monkeypatch.setattr(harness, "rescale_dataset", rescale)
        reports = run_experiment(synth_cfg(**changes))
        assert GramCounter.formed == formed
        unpatched = run_experiment(synth_cfg(**changes))
        assert [r.samples for r in reports] == [r.samples for r in unpatched]


class TestRuntimeModel:
    def test_pure_function(self):
        a = runtime_model(50, 1, 500, 2.0, 0.3, 1e-6)
        b = runtime_model(50, 1, 500, 2.0, 0.3, 1e-6)
        assert a == b
        expected = 50 * 1 * (500 + 4.0 / 0.09) * np.log(1e6)
        assert a == pytest.approx(expected, rel=1e-12)

    def test_reported_value_matches_formula(self):
        rep = run_experiment(synth_cfg())[0]
        expected = runtime_model(rep.d, rep.k, rep.n, rep.realized_r,
                                 rep.eigengap, 1e-6)
        assert rep.runtime_model == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("gap", [0.0, -0.1, float("nan")])
    def test_nonpositive_gap_refused(self, gap):
        with pytest.raises(ConfigError, match="eigengap must be positive"):
            runtime_model(50, 1, 500, 2.0, gap, 1e-6)


class TestCompareBaselines:
    def test_ordering_and_equivalence(self):
        result = compare_baselines(synth_cfg(epochs=4))
        series = result["series"]
        vr_final = series["vrpca"][-1]["potential"]
        oja_final = series["oja"][-1]["potential"]
        assert vr_final < oja_final
        # budgets aligned to the variance-reduced run
        assert series["oja"][-1]["samples"] == result["sample_budget"]

    def test_orthogonal_iteration_rate(self):
        result = compare_baselines(synth_cfg(epochs=4))
        oi = result["series"]["orthogonal_iteration"]
        s2_over_s1 = 0.7  # requested spectrum ratio
        p0 = oi[0]["potential"]
        sweeps = len(oi) - 1
        assert oi[-1]["potential"] <= 10.0 * (s2_over_s1 ** (2 * sweeps)) * p0 \
            + 1e-12

    @pytest.mark.parametrize("changes", [
        {}, {"init": "gaussian"}, {"epsilon": 1e-6},
        {"solver": "vrpca_block", "k": 2, "gap_index": 2, "eta": 0.05,
         "m": 64}])
    def test_vrpca_series_is_the_solve_trace(self, tmp_path, changes):
        # compare runs the solve pipeline: its variance-reduced series is
        # the trace solve writes for the same config and seed
        cfg = synth_cfg(epochs=4, **changes)
        result = compare_baselines(cfg)
        run_experiment(replace(cfg, out_dir=str(tmp_path)))
        rows = read_trace(tmp_path / "trace_seed1.jsonl")
        assert result["series"]["vrpca"] == [
            {key: row[key] for key in ("samples", "potential", "residual")}
            for row in rows]
        assert result["sample_budget"] == rows[-1]["samples"]

    def test_out_dir_holds_the_comparison(self, tmp_path):
        out = tmp_path / "a" / "b"
        result = compare_baselines(synth_cfg(epochs=2, out_dir=str(out)))
        assert json.loads((out / "comparison.json").read_text()) == result

    def test_one_seed_only(self):
        # a comparison is one seed's run; more seeds are refused, not dropped
        with pytest.raises(ConfigError, match="one seed"):
            compare_baselines(synth_cfg(epochs=4, seeds=(3, 4)))

    @pytest.mark.parametrize("solver", ["vrpca_vector", "vrpca_block"])
    def test_runs_the_configured_solver(self, monkeypatch, solver):
        # at k=1 vrpca_block is taken as asked, not swapped for vrpca_vector
        called = []
        for name, fn in list(harness._EPOCH_SOLVERS.items()):
            monkeypatch.setitem(
                harness._EPOCH_SOLVERS, name,
                lambda *a, name=name, fn=fn: called.append(name) or fn(*a))
        compare_baselines(synth_cfg(epochs=2, solver=solver))
        assert called == [solver]

    @pytest.mark.parametrize("changes", [
        {"solver": "oja"}, {"solver": "orthogonal_iteration"},
        {"solver": "deflation", "k": 2, "gap_index": 2}])
    def test_other_solvers_refused(self, changes):
        with pytest.raises(ConfigError, match="^compare runs vrpca_vector "
                           f"or vrpca_block, got solver {changes['solver']}$"):
            compare_baselines(synth_cfg(epochs=2, **changes))

    def test_init_and_epsilon_reach_compare(self):
        base = compare_baselines(synth_cfg(epochs=4))
        gauss = compare_baselines(synth_cfg(epochs=4, init="gaussian"))
        assert gauss["series"]["vrpca"][0]["potential"] != \
            base["series"]["vrpca"][0]["potential"]
        # both baselines start where the variance-reduced run starts
        for name in ("oja", "orthogonal_iteration"):
            assert gauss["series"][name][0] == gauss["series"]["vrpca"][0]
        early = compare_baselines(synth_cfg(epochs=4, epsilon=1e-4))
        assert early["series"]["vrpca"][-1]["potential"] <= 1e-4
        assert early["sample_budget"] < base["sample_budget"]
        assert early["series"]["oja"][-1]["samples"] == early["sample_budget"]


class TestGeometryReport:
    def test_report_values(self, tmp_path):
        out = tmp_path / "geom.json"
        rep = geometry_report(0.2, 0.1, out=str(out), samples=2000, seed=0)
        assert rep["counterexample"]["second_derivative_at_0"] == \
            pytest.approx(-0.04, abs=1e-12)
        assert rep["determinant_sweep"]["max_det"] <= 1e-12
        assert rep["determinant_sweep"]["non_psd_fraction_off_axes"] == 1.0
        probe = rep["convexity_probe"]
        assert probe["min_curvature"] >= probe["eigengap"] - 1e-9
        assert probe["max_curvature"] <= 20.0 + 1e-9
        assert probe["projected_optimum_in_region"]
        saved = json.loads(out.read_text())
        assert saved == rep


class TestCli:
    def test_synth_solve_convert_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "data.vrpc"
        rc = cli_main(["synth", "--spectrum", "1,0.7,0.23,0.07", "--n", "32",
                       "--seed", "3", "--format", "f64le",
                       "--out", str(data)])
        assert rc == 0
        out_dir = tmp_path / "run"
        rc = cli_main(["solve", "--dataset", str(data), "--format", "f64le",
                       "--epochs", "4", "--seeds", "2",
                       "--out", str(out_dir)])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out.splitlines()[-1]
                             if False else
                             (out_dir / "report.json").read_text())
        assert reports[0]["final_potential"] <= 1e-8
        csv_copy = tmp_path / "data.csv"
        rc = cli_main(["convert", str(data), str(csv_copy),
                       "--from", "f64le", "--to", "csv"])
        assert rc == 0
        from vrpca import load_dataset
        a = load_dataset(data, "f64le")
        b = load_dataset(csv_copy, "csv")
        assert np.array_equal(a.data, b.data)

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "spectrum": list(spectrum_k1(d=12)), "n": 64, "synth_seed": 5,
            "epochs": 2, "seeds": [4]}))
        out = tmp_path / "out"
        rc = cli_main(["solve", "--config", str(cfgfile), "--epochs", "3",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())[0]
        assert rep["epochs_run"] == 3  # flag overrides the file

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config .*cfg.json: .*No such file"),
        ("{not json", "cannot read config .*cfg.json: Expecting property"),
        ("[1, 2]", "config file must hold a JSON object$")])
    def test_unusable_config_file(self, tmp_path, capsys, content, message):
        cfgfile = tmp_path / "cfg.json"
        if content is not None:
            cfgfile.write_text(content)
        assert cli_main(["solve", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
        assert re.match(f"error: {message}", err[:-1])

    @pytest.mark.parametrize("changes, message", [
        ({"eta": "0.1", "m": 5}, "eta must be a number, got '0.1'"),
        ({"n": "50"}, "n must be an integer, got '50'"),
        ({"n": None}, "synthetic datasets need the column count n"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"epochs": None}, "epochs must be an integer, got None"),
        ({"k": True}, "k must be an integer, got True"),
        ({"gap_index": 1.0}, "gap_index must be an integer, got 1.0"),
        ({"synth_seed": "5"}, "synth_seed must be an integer, got '5'"),
        ({"spectrum": [1, "0.5"]},
         "spectrum must be a tuple of numbers, got (1, '0.5')"),
        ({"seeds": [1.5]},
         "seeds must be a non-empty tuple of distinct integers, got (1.5,)"),
        ({"seeds": []},
         "seeds must be a non-empty tuple of distinct integers, got ()"),
        ({"seeds": 5},
         "seeds must be a non-empty tuple of distinct integers, got 5"),
        ({"rescale": "false"}, "rescale must be true or false, got 'false'"),
        ({"use_rotation": 1}, "use_rotation must be true or false, got 1"),
        ({"oracle_check": None},
         "oracle_check must be true or false, got None"),
        ({"solver": "lanczos"}, "solver must be one of ('vrpca_vector', "
         "'vrpca_block', 'oja', 'orthogonal_iteration', 'deflation'), "
         "got 'lanczos'"),
        ({"init": "zeros"},
         "init must be one of ('gaussian', 'power'), got 'zeros'"),
        ({"dataset_format": "parquet"},
         "dataset_format must be one of ('csv', 'f64le'), got 'parquet'"),
        ({"out_dir": 3}, "out_dir must be a path, got 3")])
    def test_wrongly_typed_config_values_refused(self, tmp_path, monkeypatch,
                                                 capsys, changes, message):
        # JSON values reach the config as they are: none is coerced
        def refuse(*args):
            raise AssertionError("synthesize_dataset called")

        monkeypatch.setattr(harness, "synthesize_dataset", refuse)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "spectrum": list(spectrum_k1(d=12)), "n": 64, "seeds": [1],
            **changes}))
        assert cli_main(["solve", "--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_geometry_verb(self, tmp_path):
        out = tmp_path / "geom.json"
        rc = cli_main(["geometry", "--lam", "0.2", "--eps", "0.1",
                       "--samples", "500", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["counterexample"][
            "second_derivative_at_0"] == pytest.approx(-0.04)

    def test_parse_error_exit_code(self, capsys):
        assert cli_main(["solve", "--epochs", "3"]) == 1  # no dataset source
        assert cli_main(["bogus-verb"]) == 1

    @pytest.mark.parametrize("spectrum, named", [
        ("nan", "non-finite eigenvalue nan"),
        ("inf,1", "non-finite eigenvalue inf"),
        ("1e308", "n * max eigenvalue = 10 * 1e+308 overflows"),
        ("1e300", "n * max eigenvalue = 10 * 1e+300 overflows the row "
                  "balancing")])
    def test_synth_refuses_non_finite_scale(self, tmp_path, capsys, spectrum,
                                            named):
        out = tmp_path / "data.vrpc"
        rc = cli_main(["synth", "--spectrum", spectrum, "--n", "10",
                       "--out", str(out)])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_solve_refuses_epsilon_without_oracle(self, capsys):
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--no-oracle-check", "--lambda-hat", "0.3",
                       "--epsilon", "1e-3", "--epochs", "3", "--seeds", "1"])
        assert rc == 1
        assert "needs the oracle reference" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", BAD_BASELINE_VALUES)
    def test_bad_baseline_values_print_an_error(self, tmp_path, capsys,
                                                 field, value, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "spectrum": list(spectrum_k1(d=12)), "n": 64, "seeds": [1],
            "solver": "oja", field: value}))
        assert cli_main(["solve", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(message, err)

    def test_solve_refuses_a_negative_seed(self, capsys):
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--epochs", "1", "--seeds=-1"])
        assert rc == 1
        assert "error: seed must lie in [0, 2**64), got -1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seeds=-1"], "seed must lie in [0, 2**64), got -1"),
        (["--seeds", "1,18446744073709551616"],
         "seed must lie in [0, 2**64), got 18446744073709551616"),
        (["--synth-seed", "-3"], "synth_seed must lie in [0, 2**64), got -3")])
    def test_bad_seeds_refused_before_synthesis(self, monkeypatch, capsys,
                                                flags, message):
        def refuse(*args):
            raise AssertionError("synthesize_dataset called")

        monkeypatch.setattr(harness, "synthesize_dataset", refuse)
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--epochs", "1", *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--eta", "0.5"], "set both eta and m, or neither to select them "
         "from the eigengap; got eta=0.5, m=None"),
        (["--m", "7"], "set both eta and m, or neither to select them "
         "from the eigengap; got eta=None, m=7"),
        (["--delta", "2"], "delta must lie in (0,1), got 2.0"),
        (["--epochs", "-1"], "epochs must be >= 0, got -1"),
        (["--epsilon", "0"], "epsilon must be positive, got 0.0"),
        (["--eta", "-1", "--m", "5"], "eta must be positive, got -1.0"),
        (["--eta", "0.1", "--m", "0"], "m must be >= 1, got 0"),
        (["--burn-in", "--zeta", "5"], "zeta must lie in (0,1], got 5.0"),
        (["--no-oracle-check", "--lambda-hat", "-1"],
         "lambda_hat must be positive, got -1.0"),
        (["--lambda-hat", "nan"], "lambda_hat must be positive, got nan"),
        (["--solver", "deflation", "--k", "2", "--epsilon", "1e-3"],
         "epsilon=0.001: deflation runs every epoch of every stage and "
         "cannot stop on it; vrpca_block stops on epsilon"),
        (["--no-oracle-check", "--epsilon", "1e-3"],
         "epsilon=0.001 needs the oracle reference to stop on "
         "(oracle_check, d <= DENSE_GUARD = 2000)")])
    def test_bad_run_fields_refused_before_synthesis(self, monkeypatch,
                                                     capsys, flags, message):
        def refuse(*args):
            raise AssertionError("synthesize_dataset called")

        monkeypatch.setattr(harness, "synthesize_dataset", refuse)
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_gap_refused_before_the_solve(self, capsys):
        # the selection rule's m grows as 1/gap^2; at a zero gap its first
        # index draw would ask numpy for ~1e33 indices
        with pytest.warns(GapWarning):
            rc = cli_main(["solve", "--spectrum", "1,1,0.5,0.1", "--n", "200",
                           "--epochs", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigengap ") and "Traceback" not in err
        assert re.search(r"selects m = \d+: 3 epochs of m steps exceed the "
                         r"step budget of 1000000000", err)

    @pytest.mark.parametrize("flags", [
        ["--zeta", "1e-120"], ["--zeta", "1e-100"],
        ["--no-oracle-check", "--lambda-hat", "1e-300"]])
    def test_burn_in_horizon_refused(self, capsys, flags):
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.2", "--n", "50",
                       "--eta", "0.1", "--m", "10", "--epochs", "1",
                       "--burn-in", *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: burn-in horizon overflows at zeta=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--dataset", "{missing}", "--format", "f64le"],
         "No such file or directory: '{missing}'"),
        (["solve", "--dataset", "{tmp}", "--format", "f64le"],
         "Is a directory: '{tmp}'"),
        (["compare", "--dataset", "{missing}", "--format", "csv"],
         "No such file or directory: '{missing}'"),
        (["convert", "{missing}", "{tmp}/x.csv", "--from", "f64le",
          "--to", "csv"], "No such file or directory: '{missing}'"),
        (["synth", "--spectrum", "1,0.5", "--n", "10",
          "--out", "{missing}/x.vrpc"],
         "No such file or directory: '{missing}/x.vrpc'"),
        (["synth", "--spectrum", "1,0.5", "--n", "10", "--format", "csv",
          "--out", "{missing}/x.csv"],
         "No such file or directory: '{missing}/x.csv'"),
        (["convert", "{file}", "{missing}/x.vrpc", "--from", "csv",
          "--to", "f64le"], "No such file or directory: '{missing}/x.vrpc'"),
        (["solve", "--spectrum", "1,0.5,0.1", "--n", "20",
          "--out", "{file}"], "File exists: '{file}'")],
        ids=["solve-missing", "solve-directory", "compare-missing",
             "convert-missing", "synth-missing-directory",
             "synth-csv-missing-directory", "convert-missing-directory",
             "solve-out-file"])
    def test_file_errors_print_one_line(self, tmp_path, capsys, argv,
                                        message):
        names = dict(missing=tmp_path / "missing", tmp=tmp_path,
                     file=tmp_path / "file")
        names["file"].write_text("1,0\n0,1\n")
        if argv[0] in ("solve", "compare"):
            argv = [*argv, "--eta", "0.1", "--m", "10", "--epochs", "1"]
        rc = cli_main([a.format(**names) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message.format(**names) in err
        assert ".tmp" not in err  # the writer's temporary file is not named

    @pytest.mark.parametrize("flags", [
        ["--eta", "0.1", "--m", "5"],
        ["--solver", "orthogonal_iteration", "--sweeps", "3"]])
    def test_zero_eigengap_reports_no_runtime_model(self, tmp_path, capsys,
                                                    flags):
        data = tmp_path / "eq.csv"
        data.write_text("1,0\n0,1\n")  # A = I / 2: the gap is exactly 0
        with pytest.warns(GapWarning):
            rc = cli_main(["solve", "--dataset", str(data), *flags])
        assert rc == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["eigengap"] == 0.0
        assert report["runtime_model"] is None

    @pytest.mark.parametrize("rescale, words", [
        ("--no-rescale", "cannot form the covariance"),
        ("--rescale", "cannot rescale")])
    def test_overflowing_column_is_a_solver_error(self, tmp_path, capsys,
                                                  rescale, words):
        cols = np.ones((4, 30))
        cols[:, 0] = 1e200  # finite entries, squared norm overflows
        path = tmp_path / "ovf.vrpc"
        save_dataset(DataMatrix(cols), path, "f64le")
        rc = cli_main(["solve", "--dataset", str(path), "--format", "f64le",
                       rescale, "--eta", "0.1", "--m", "40", "--epochs", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"solver error: {words}: the squared norm of column 0 overflows "
            "to inf (largest entry 1.000e+200)\n")

    def test_tiny_lambda_hat_refused(self, capsys):
        # eta * lambda_hat underflows to 0 in the selection rule
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "200",
                       "--no-oracle-check", "--lambda-hat", "1e-200",
                       "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigengap estimate ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", [
        ["synth", "--spectrum", "1,0.5", "--n", "4"],
        ["geometry", "--lam", "0.2", "--eps", "0.1", "--samples", "10"]])
    def test_synth_and_geometry_refuse_a_negative_seed(self, tmp_path,
                                                       capsys, verb):
        out = tmp_path / "out"
        rc = cli_main([*verb, "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: seed must lie in [0, 2**64), got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lam", "1.5"], "eigengap must lie in (0, 1/2), got 1.5"),
        (["--lam", "nan"], "eigengap must lie in (0, 1/2), got nan"),
        (["--lam", "-0.1"], "eigengap must lie in (0, 1/2), got -0.1"),
        (["--eps", "0.5"], "eps must lie in (0, 1/2), got 0.5"),
        (["--seed", "18446744073709551613"],
         "seed must lie in [0, 2**64 - 4], as seed + 3 is drawn from too; "
         "got 18446744073709551613")])
    def test_geometry_refuses_bad_values_before_synthesis(
            self, monkeypatch, capsys, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesize_dataset called")

        monkeypatch.setattr(harness, "synthesize_dataset", refuse)
        given = {"--lam": "0.3", "--eps": "0.1", "--samples": "5"}
        given.update(zip(flags[::2], flags[1::2]))
        rc = cli_main(["geometry", *(x for kv in given.items() for x in kv)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_geometry_takes_the_largest_seed(self, capsys):
        rc = cli_main(["geometry", "--lam", "0.3", "--eps", "0.1",
                       "--samples", "5", "--seed", str(2**64 - 4)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["convexity_probe"][
            "samples"] == 5

    def test_solve_refuses_epsilon_with_deflation(self, capsys):
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--solver", "deflation", "--k", "2",
                       "--epsilon", "1e-3", "--epochs", "3", "--seeds", "1"])
        assert rc == 1
        assert "vrpca_block stops on epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("init", ["power", "gaussian"])
    def test_k_above_data_dimension_exits_1(self, tmp_path, capsys, init):
        # the file's d is known only once it is loaded
        data = tmp_path / "data.vrpc"
        assert cli_main(["synth", "--spectrum", "1,0.7,0.2", "--n", "16",
                         "--seed", "3", "--format", "f64le",
                         "--out", str(data)]) == 0
        rc = cli_main(["solve", "--dataset", str(data), "--format", "f64le",
                       "--solver", "vrpca_block", "--k", "4", "--init", init,
                       "--eta", "0.01", "--m", "50", "--epochs", "1",
                       "--seeds", "1", "--no-oracle-check"])
        assert rc == 1
        assert capsys.readouterr().err == "error: k=4 exceeds d=3\n"

    def test_degeneracy_exit_code(self, tmp_path):
        # rank-1 data cannot support a k=2 power warm start: A G has
        # numerical rank 1 < 2 for every draw G
        rc = cli_main(["solve", "--spectrum", "1,0", "--n", "4",
                       "--solver", "vrpca_block", "--k", "2",
                       "--init", "power",
                       "--eta", "0.01", "--m", "50", "--epochs", "1",
                       "--seeds", "1"])
        assert rc == 2

    @pytest.mark.parametrize("verb", ["solve", "compare"])
    def test_every_config_field_has_a_flag(self, verb):
        # the flags mirror the ExperimentConfig fields, one flag per field
        (sub,) = [a for a in build_parser()._actions if a.choices]
        dests = {a.dest for a in sub.choices[verb]._actions}
        assert {f.name for f in fields(ExperimentConfig)} <= dests

    def test_oja_flags_reach_the_run(self, capsys):
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--solver", "oja", "--oja-iters", "0",
                       "--oja-eta0", "0.5", "--seeds", "1"])
        assert rc == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["samples"] == 0
        rc = cli_main(["solve", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--solver", "oja", "--oja-iters", "30",
                       "--oja-eta0", "-1", "--seeds", "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: oja_eta0 must be positive, got -1.0\n"

    def test_compare_verb_picks_the_solver_from_k(self, capsys):
        # compare runs vrpca_block at k >= 2; without --solver the config
        # must not take vrpca_vector, which needs k == 1
        rc = cli_main(["compare", "--spectrum", "1,0.5,0.2,0.1", "--n", "40",
                       "--k", "2", "--eta", "0.05", "--m", "40",
                       "--epochs", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["series"]) == {"vrpca", "orthogonal_iteration"}
        assert payload["k"] == 2

    def test_compare_verb_refuses_other_solvers(self, capsys):
        rc = cli_main(["compare", "--spectrum", "1,0.5,0.2,0.1", "--n", "40",
                       "--k", "2", "--eta", "0.05", "--m", "40",
                       "--epochs", "2", "--solver", "deflation"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: compare runs vrpca_vector or "
                                "vrpca_block, got solver deflation\n")

    def test_compare_verb(self, tmp_path, capsys):
        rc = cli_main(["compare", "--spectrum", "1,0.7,0.23", "--n", "24",
                       "--epochs", "3", "--seeds", "7"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["series"]) == {"vrpca", "oja",
                                          "orthogonal_iteration"}
        assert payload["series"]["oja"][-1]["samples"] == \
            payload["sample_budget"] > 0
