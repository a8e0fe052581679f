"""Solvers: parameter selection, the vector and block variance-reduced
solvers, burn-in, and the baselines."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrpca import (ConfigError, DataMatrix, DegenerateIterateError,
                   DimensionMismatchError,
                   GapWarning, NonConvergenceError,
                   OrthonormalFrame, SolverConfig, SpectrumSpec,
                   build_convex_region, burn_in, deflation_solve, dense_eigh,
                   gaussian_init, leading_subspace, oja_baseline,
                   orthogonal_iteration,
                   potential, power_warm_start, probe_strong_convexity,
                   rayleigh_residual,
                   rescale_dataset, select_parameters, synthesize_dataset,
                   tightness_counterexample, vrpca_block, vrpca_vector)
from vrpca import (ExperimentConfig, _native, errors, harness, initialization,
                   matrix, solvers)
from vrpca.initialization import BURN_IN_STREAM, RUN_STREAM, _stream
from vrpca.solvers import ConvergenceTrace, TraceRecord

from conftest import GramCounter, Instance, counted, spectrum_k1


class TestSelectParameters:
    def test_frozen_evaluation(self, monkeypatch):
        # direct evaluation of the selection rule at
        # lambda=0.3, r=1, k=1, delta=0.1 with unit constants
        for name in ("C", "C_PRIME", "C_DPRIME"):
            monkeypatch.setattr(solvers, name, 1.0)
        eta, m = select_parameters(0.3, 1.0, 1, 0.1)
        big_l = np.log(20.0)
        a = min(1.0, 1.0 / (4 * 0.01 * big_l), (1.0 / (4 * 0.01)) / big_l**2)
        assert eta == pytest.approx(a * 0.01 * 0.3, rel=1e-15)
        assert m == int(np.ceil(big_l / (eta * 0.3)))
        # frozen numbers from evaluating the formula once by hand
        assert eta == pytest.approx(3.0e-3, rel=1e-12)
        assert m == 3329

    def test_doubling_r_quarters_eta_and_quadruples_m(self):
        eta1, m1 = select_parameters(0.3, 1.0, 2, 0.2)
        eta2, m2 = select_parameters(0.3, 2.0, 2, 0.2)
        assert eta2 == pytest.approx(eta1 / 4.0, rel=1e-12)
        assert m2 == pytest.approx(4 * m1, rel=1e-3)

    def test_shrinking_delta_never_increases_eta(self):
        delta = 0.8
        last = np.inf
        while delta > 1e-4:
            eta, _ = select_parameters(0.25, 1.5, 2, delta)
            assert eta <= last + 1e-18
            last = eta
            delta /= 2.0

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ConfigError, match="burn_in"):
            select_parameters(0.0, 1.0, 1, 0.25)

    def test_infinite_gap_refused(self):
        # an infinite gap selected (inf, 0): no step size and no epoch
        with pytest.raises(ConfigError) as err:
            select_parameters(float("inf"), 1.0, 1, 0.25)
        assert str(err.value) == \
            "lambda_hat must be positive and finite, got inf"

    @pytest.mark.parametrize("gap", [1e-200, 1e-160])
    def test_tiny_gap_refused(self, gap):
        # eta * gap underflows: to 0 at 1e-200, to a subnormal whose
        # quotient overflows at 1e-160
        with pytest.raises(ConfigError, match=rf"eigengap estimate "
                           rf"{gap:.3e} selects an epoch length m too large"):
            select_parameters(gap, 1.0, 1, 0.25)


def _tiny():
    """A 3 x 4 instance and a k=1 start on it."""
    X = DataMatrix(np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                             [0.5, 0.5, 0.0, 0.0]]))
    return X, gaussian_init(3, 1, seed=1)


def _config(**kw):
    return SolverConfig(**{"k": 1, "eta": 0.1, "m": 5, "epochs": 1, **kw})


def _burn(**kw):
    X, w0 = _tiny()
    return burn_in(X, w0, **{"zeta": 0.5, "delta": 0.25, "lambda_hat": 0.3,
                             **kw})


def _oja(**kw):
    X, w0 = _tiny()
    return oja_baseline(X, w0, **{"eta_schedule": 0.5, "iters": 5, **kw})


#: every run parameter's public entry point: name -> (value out of range,
#: call(value)); each float parameter is also given NaN
RANGE_CASES = {
    "k": (0, lambda v: _config(k=v)),
    "eta": (-1.0, lambda v: _config(eta=v)),
    "m": (0, lambda v: _config(m=v)),
    "epochs": (-1, lambda v: _config(epochs=v)),
    "delta": (1.0, lambda v: _config(delta=v)),
    "epsilon": (0.0, lambda v: _config(epsilon=v)),
    "zeta": (1.5, lambda v: _burn(zeta=v)),
    "lambda_hat": (-0.3, lambda v: _burn(lambda_hat=v)),
    "r": (0.0, lambda v: select_parameters(0.3, v, 1, 0.25)),
    "sweeps": (-2, lambda v: orthogonal_iteration(*_tiny(), sweeps=v)),
    "oja_iters": (-5, lambda v: _oja(iters=v)),
    "oja_eta0": (0.0, lambda v: _oja(eta_schedule=v)),
    "samples": (0, lambda v: harness.geometry_report(0.3, 0.1, samples=v)),
    "seed": (-1, lambda v: _config(seed=v)),
    "synth_seed": (-3, lambda v: harness.ExperimentConfig(
        spectrum=(1.0, 0.5), n=4, synth_seed=v)),
    "eps": (0.5, lambda v: tightness_counterexample(0.3, v)),
}


class TestRunRanges:
    def test_every_range_has_a_case(self):
        assert set(RANGE_CASES) == set(errors._RANGES)

    @pytest.mark.parametrize("name, value", [
        *((name, bad) for name, (bad, _) in RANGE_CASES.items()),
        *((name, float("nan")) for name, (bad, _) in RANGE_CASES.items()
          if isinstance(bad, float)),
        # a step-sizing value must be finite too
        *((name, float("inf")) for name in ("eta", "lambda_hat", "r",
                                            "oja_eta0"))])
    def test_entry_point_refuses_out_of_range(self, name, value):
        rule = errors._RANGES[name][1]
        with pytest.raises(ConfigError) as err:
            RANGE_CASES[name][1](value)
        assert str(err.value) == f"{name} must {rule}, got {value}"

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in RANGE_CASES for value in (True, "1")),
        *((name, 1.0) for name, (bad, _) in RANGE_CASES.items()
          if isinstance(bad, int))])
    def test_entry_point_refuses_wrong_kind(self, name, value):
        # a bool is neither an integer nor a number, and an integer
        # parameter refuses a float even when it is integral
        kind = errors._RANGES[name][2][1]
        with pytest.raises(ConfigError) as err:
            RANGE_CASES[name][1](value)
        assert str(err.value) == f"{name} must {kind}, got {value!r}"

    @pytest.mark.parametrize("name, call", [
        *((name, call) for name, (_, call) in RANGE_CASES.items()
          if name != "epsilon"),  # the one optional parameter
        ("delta", lambda v: _burn(delta=v)),
        ("lambda_hat", lambda v: select_parameters(v, 1.0, 1, 0.25)),
        ("delta", lambda v: select_parameters(0.3, 1.0, 1, v))])
    def test_entry_point_refuses_none(self, name, call):
        # None is no value of a required parameter: it is refused by name,
        # not taken as unset to fail later in the arithmetic
        kind = errors._RANGES[name][2][1]
        with pytest.raises(ConfigError) as err:
            call(None)
        assert str(err.value) == f"{name} must {kind}, got None"

    def test_numpy_scalars_are_of_their_kind(self):
        cfg = _config(k=np.int64(1), eta=np.float32(0.1), m=np.int32(5),
                      epochs=np.uint8(1))
        assert (cfg.k, cfg.m, cfg.epochs) == (1, 5, 1)

    @pytest.mark.parametrize("eta", [-1.0, 0.0])
    def test_burn_in_eta_override_refused_before_any_step(self, monkeypatch,
                                                          eta):
        def refuse(*args, **kwargs):
            raise AssertionError("_steps_k1 called")

        monkeypatch.setattr(solvers, "_steps_k1", refuse)
        with pytest.raises(ConfigError,
                           match=rf"^eta must be positive and finite, "
                           rf"got {eta}$"):
            _burn(eta=eta)

    def test_every_range_refusal_goes_through_the_table(self):
        # a ConfigError that states a range ("must be/lie ... got") is
        # raised only by errors._check, whose message is built from the
        # table's rules, so no second copy of a rule can drift; every
        # module of the library is scanned
        stray = []
        for path in sorted(Path(errors.__file__).parent.glob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if (isinstance(call, ast.Call) and call.args
                        and ast.unparse(call.func) == "ConfigError"
                        and re.search(r"must (be|lie) .* got",
                                      ast.unparse(call.args[0]))):
                    stray.append((path.name, call.lineno))
        assert not stray, f"range refusals outside the table: {stray}"


def _probe(seed):
    X = synthesize_dataset(SpectrumSpec(eigenvalues=(1.0, 0.5, 0.2), k=1),
                           12, seed=1)
    spec = dense_eigh(X)
    region = build_convex_region(spec, spec.eigenvectors.entries[:, 0])
    return probe_strong_convexity(region, X, samples=5, seed=seed)


#: every public call that takes a seed, as call(seed)
SEED_CALLS = {
    "gaussian_init": lambda s: gaussian_init(5, 1, seed=s),
    "power_warm_start": lambda s: power_warm_start(_tiny()[0], s),
    "synthesize_dataset": lambda s: synthesize_dataset(
        SpectrumSpec(eigenvalues=(1.0, 0.5), k=1), 4, seed=s),
    "SolverConfig": lambda s: _config(seed=s),
    "oja_baseline": lambda s: _oja(seed=s),
    "burn_in": lambda s: _burn(seed=s),
    "probe_strong_convexity": _probe,
    "geometry_report": lambda s: harness.geometry_report(0.3, 0.1, samples=5,
                                                         seed=s),
}


class TestSeedRule:
    """A seed is an integer in [0, 2**64) (errors._RANGES["seed"]): every
    call that takes one refuses another kind by name rather than drawing
    the stream of int(seed)."""

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_refuses_a_seed_that_is_not_an_integer(self, call, seed):
        with pytest.raises(ConfigError) as err:
            SEED_CALLS[call](seed)
        assert str(err.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_takes_numpy_integers(self, call, kind):
        SEED_CALLS[call](kind(1))

    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    def test_numpy_integer_draws_the_seeds_stream(self, kind):
        np.testing.assert_array_equal(gaussian_init(5, 2, kind(7)).entries,
                                      gaussian_init(5, 2, 7).entries)

    def test_solver_config_refuses_a_rotation_that_is_not_a_flag(self):
        with pytest.raises(ConfigError, match=r"^use_rotation must be true "
                           r"or false, got 'no'$"):
            _config(use_rotation="no")


class TestVectorSolver:
    def test_zero_step_rejected_by_config(self):
        with pytest.raises(ConfigError):
            SolverConfig(k=1, eta=0.0, m=10, epochs=1)

    @pytest.mark.parametrize("w0, k, error, message", [
        (gaussian_init(4, 1, seed=1), 1, DimensionMismatchError,
         "start frame has d=4, data has d=3"),
        (gaussian_init(3, 1, seed=1), 2, ConfigError,
         "vector solver requires cfg.k == 1, got 2"),
        # a start of the config's k: the config is at fault, not the start
        (gaussian_init(3, 3, seed=1), 3, ConfigError,
         "vector solver requires cfg.k == 1, got 3")])
    def test_mismatched_start_or_k_refused(self, w0, k, error, message):
        with pytest.raises(error) as err:
            vrpca_vector(_tiny()[0], w0, _config(k=k))
        assert str(err.value) == message

    def test_tiny_step_keeps_start(self, small_k1):
        # eta -> 0 limit: the iterate stays at the anchor
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=3)
        cfg = SolverConfig(k=1, eta=1e-300, m=50, epochs=3, seed=0)
        trace = vrpca_vector(small_k1.Xs, w0, cfg, small_k1.reference(1))
        pots = trace.epoch_potentials()
        assert max(pots) - min(pots) <= 1e-12
        np.testing.assert_allclose(trace.final_frame.entries, w0.entries,
                                   atol=1e-12)

    def test_fixed_point_at_leading_eigenvector(self):
        inst = Instance((1.0, 0.5), n=8, seed=2)
        v1 = inst.reference(1)
        cfg = SolverConfig(k=1, eta=0.05, m=400, epochs=2, seed=9)
        trace = vrpca_vector(inst.Xs, v1, cfg, v1)
        assert max(r.potential for r in trace.records) <= 1e-12

    def test_converges_on_standard_instance(self, std_k1):
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=1, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, 1.0, 1, 0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=4, seed=1)
        trace = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        pots = trace.epoch_potentials()
        assert pots[-1] <= 1e-10
        ratios = [b / a for a, b in zip(pots, pots[1:])]
        assert np.median(ratios) <= 0.5

    def test_trace_structure(self, small_k1):
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=3)
        cfg = SolverConfig(k=1, eta=0.01, m=100, epochs=2, seed=0)
        trace = vrpca_vector(small_k1.Xs, w0, cfg, small_k1.reference(1))
        # initial record + per-epoch: 9 inner (m/10 granularity) + boundary
        assert len(trace.records) == 1 + 2 * 10
        samples = [r.samples for r in trace.records]
        assert samples == sorted(samples)
        assert trace.records[-1].samples == 2 * (small_k1.Xs.n + 100)
        bounds = trace.boundary_records()
        assert [b.epoch for b in bounds] == [0, 1, 2]

    def test_determinism_bitwise(self, small_k1):
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=3)
        cfg = SolverConfig(k=1, eta=0.02, m=200, epochs=3, seed=11)
        t1 = vrpca_vector(small_k1.Xs, w0, cfg, small_k1.reference(1))
        t2 = vrpca_vector(small_k1.Xs, w0, cfg, small_k1.reference(1))
        assert np.array_equal(t1.final_frame.entries, t2.final_frame.entries)
        for a, b in zip(t1.records, t2.records):
            assert a.potential == b.potential
            assert a.residual == b.residual
            assert a.samples == b.samples

    def test_early_exit_on_epsilon(self, std_k1):
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=1, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, 1.0, 1, 0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=10, seed=1, epsilon=1e-6)
        trace = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        bounds = trace.boundary_records()
        assert bounds[-1].potential <= 1e-6
        assert bounds[-1].epoch < 10

    def test_epsilon_without_reference_refused(self, small_k1):
        # the stop reads the potential, which needs the oracle's frame:
        # without one, epsilon would let every epoch run without a word
        X = small_k1.Xs
        cfg = SolverConfig(k=1, eta=0.02, m=200, epochs=3, seed=1,
                           epsilon=1e-3)
        cfg2 = SolverConfig(k=2, eta=0.02, m=200, epochs=3, seed=1,
                            epsilon=1e-3)
        named = (r"epsilon=0.001 needs the oracle reference to stop on "
                 r"\(oracle_check, d <= DENSE_GUARD = 2000\)")
        for solve, c in ((vrpca_vector, cfg), (vrpca_block, cfg),
                         (vrpca_block, cfg2)):
            with pytest.raises(ConfigError, match=named):
                solve(X, gaussian_init(X.d, c.k, seed=3), c)
        # with a reference, the same configs run and may stop early
        for solve, c in ((vrpca_vector, cfg), (vrpca_block, cfg2)):
            solve(X, gaussian_init(X.d, c.k, seed=3), c,
                  small_k1.reference(c.k))
        # deflation stages run every epoch without a reference, so deflation
        # refuses epsilon, with or without one, and names the solver that
        # stops on it
        for ref in (None, small_k1.reference(2)):
            with pytest.raises(ConfigError, match=r"epsilon=0.001: deflation "
                               r"runs every epoch.*vrpca_block stops on"):
                deflation_solve(X, gaussian_init(X.d, 2, seed=3), cfg2, ref)


class TestBlockSolver:
    def test_fixed_point_at_leading_subspace(self, small_k1):
        vk = small_k1.reference(3)
        cfg = SolverConfig(k=3, eta=0.02, m=500, epochs=1, seed=4)
        trace = vrpca_block(small_k1.Xs, vk, cfg, vk)
        assert max(r.potential for r in trace.records) <= 1e-10

    def test_epoch_iterates_orthonormal(self, small_k1):
        w0 = gaussian_init(small_k1.Xs.d, 2, seed=6)
        cfg = SolverConfig(k=2, eta=0.01, m=300, epochs=3, seed=6)
        trace = vrpca_block(small_k1.Xs, w0, cfg)
        assert trace.final_frame.k == 2  # frame construction re-validates

    def test_k1_equivalence_with_vector(self, std_k1):
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=1, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, 1.0, 1, 0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=3, seed=1)
        tv = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        tb = vrpca_block(std_k1.Xs, w0, cfg, ref)
        diff = np.max(np.abs(tv.final_frame.entries - tb.final_frame.entries))
        assert diff <= 1e-12

    def test_k1_plain_variant_matches_vector(self, std_k1):
        # with B = I the k=1 block update is the vector update, whatever
        # the sign of the anchor overlap
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=1, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, 1.0, 1, 0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=3, seed=1,
                           use_rotation=False)
        tv = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        tb = vrpca_block(std_k1.Xs, w0, cfg, ref)
        diff = np.max(np.abs(tv.final_frame.entries - tb.final_frame.entries))
        assert diff <= 1e-12

    def test_rotation_variants_both_converge(self, std_k3):
        ref = std_k3.reference(3)
        w0 = power_warm_start(std_k3.Xs, seed=2, k=3).frame
        eta, m = select_parameters(std_k3.gap, 1.0, 3, 0.8)
        for use_rotation in (True, False):
            cfg = SolverConfig(k=3, eta=eta, m=m, epochs=4, seed=2,
                               delta=0.8, use_rotation=use_rotation)
            trace = vrpca_block(std_k3.Xs, w0, cfg, ref)
            pots = trace.epoch_potentials()
            assert pots[-1] <= 1e-4 * pots[0]


@pytest.fixture(scope="module")
def burn_instance():
    eigs = [1.0, 0.7] + [0.7 * (1.0 / 3.0) ** j for j in range(1, 29)]
    return Instance(tuple(eigs), n=128, seed=5)


class TestBurnIn:
    def test_good_start_returns_immediately(self, burn_instance):
        ref = burn_instance.reference(1)
        v1 = ref.column(0)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(v1.size)
        g -= (g @ v1) * v1
        g /= np.linalg.norm(g)
        w0 = OrthonormalFrame((np.sqrt(0.9) * v1 + np.sqrt(0.1) * g)[:, None])
        frame, iters = burn_in(burn_instance.Xs, w0, zeta=0.9, delta=0.5,
                               lambda_hat=burn_instance.gap, reference=ref)
        assert iters == 0
        assert frame is w0

    def test_random_start_reaches_half_potential(self, burn_instance):
        ref = burn_instance.reference(1)
        w0 = gaussian_init(burn_instance.Xs.d, 1, seed=11)
        frame, iters = burn_in(burn_instance.Xs, w0, zeta=1.0 / 30, delta=0.5,
                               lambda_hat=burn_instance.gap, reference=ref)
        assert iters > 0
        assert potential(ref, frame) <= 0.5

    def test_residual_plateau_mode(self, burn_instance):
        w0 = gaussian_init(burn_instance.Xs.d, 1, seed=11)
        frame, iters = burn_in(burn_instance.Xs, w0, zeta=1.0 / 30, delta=0.5,
                               lambda_hat=burn_instance.gap)
        ref = burn_instance.reference(1)
        assert iters > 0
        # the proxy rule has no guarantee, but on this easy instance it
        # should stop well below the starting potential
        assert potential(ref, frame) <= 0.5

    def test_overshot_step_size_exceeds_budget(self):
        # eigengap 0.05 with the rest of the spectrum packed at 0.95:
        # at 100x the admissible step size the potential hovers near 1/2,
        # and on the pinned burn-in stream no check lands below it (on
        # burn-in seeds 0-11, four of twelve do). Single pinned seed; the
        # demonstration is empirical.
        d, n = 20, 64
        eigs = (1.0,) + (0.95,) * (d - 1)
        inst = Instance(eigs, n=n, seed=3)
        ref = inst.reference(1)
        v1 = ref.column(0)
        rng = np.random.Generator(np.random.Philox(key=2))
        g = rng.standard_normal(d)
        g -= (g @ v1) * v1
        g /= np.linalg.norm(g)
        w0 = OrthonormalFrame(
            (np.sqrt(0.35) * v1 + np.sqrt(0.65) * g)[:, None])
        lam = inst.gap
        zeta, delta = 0.3, 0.9
        big_l = np.log(2.0 / delta)
        eta_bound = 1000.0 * delta**2 * lam * zeta**3 / big_l**2
        with pytest.raises(NonConvergenceError) as err:
            burn_in(inst.Xs, w0, zeta=zeta, delta=delta, lambda_hat=lam,
                    reference=ref, eta=100.0 * eta_bound, seed=1)
        assert "budget" in str(err.value)
        assert err.value.trace is not None
        assert err.value.trace.records
        assert err.value.frame is not None

    def test_exhausted_budget_reports_iterations(self, small_k1,
                                                 monkeypatch):
        # a tiny horizon constant shrinks the budget below what this start
        # needs; the error counts steps taken, not trace checkpoints
        ref = small_k1.reference(1)
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=1)
        zeta, delta = 1.0 / small_k1.Xs.d, 0.25
        monkeypatch.setattr(solvers, "BURN_C_PRIME", 0.01)
        with pytest.raises(NonConvergenceError) as err:
            burn_in(small_k1.Xs, w0, zeta=zeta, delta=delta,
                    lambda_hat=small_k1.gap, reference=ref)
        big_l = np.log(2.0 / delta)
        eta = solvers.BURN_C * delta**2 * small_k1.gap * zeta**3 / (
            small_k1.Xs.r**2 * big_l**2)
        budget = 10 * int(solvers.BURN_C_PRIME * big_l
                          / (eta * small_k1.gap * zeta))
        assert err.value.iterations == budget
        assert len(err.value.trace.records) < budget

    @pytest.mark.parametrize("changes", [
        dict(zeta=1e-120), dict(zeta=1e-100), dict(lambda_hat=1e-300),
        dict(eta=1e-320)])
    def test_unrepresentable_horizon_refused_before_any_step(
            self, monkeypatch, changes):
        # eta * lambda_hat * zeta underflows, to 0 or to a subnormal whose
        # quotient overflows
        def refuse(*args, **kwargs):
            raise AssertionError("_steps_k1 called")

        monkeypatch.setattr(solvers, "_steps_k1", refuse)
        with pytest.raises(ConfigError, match=r"^burn-in horizon overflows "
                           r"at zeta=\S+, lambda_hat=\S+ and eta=\S+$"):
            _burn(**changes)

    def test_horizon_under_one_step_still_steps(self):
        # eta = 100 puts the horizon T below one step; a budget of 10 T
        # then rounded to 0, and burn-in gave up without a step
        X = synthesize_dataset(SpectrumSpec((1, .5, .1, .05)), 50, 1)
        with pytest.raises(NonConvergenceError,
                           match=r"horizon=0\)$") as err:
            burn_in(X, gaussian_init(4, 1, 3), zeta=1.0, delta=0.25,
                    lambda_hat=0.5, eta=100.0, seed=1)
        assert err.value.iterations == 10
        assert err.value.trace.records[-1].iteration == 10

    def test_invalid_zeta(self, burn_instance):
        w0 = gaussian_init(burn_instance.Xs.d, 1, seed=1)
        with pytest.raises(ConfigError):
            burn_in(burn_instance.Xs, w0, zeta=0.0, delta=0.5,
                    lambda_hat=0.3)


class TestBoundaryRecords:
    """A record is an epoch boundary when its iteration is 0 or it is the
    last record of its epoch: each solver's boundaries follow from its own
    m or iteration count, read off the records alone."""

    @staticmethod
    def _marks(trace):
        return [(r.epoch, r.iteration) for r in trace.boundary_records()]

    @pytest.mark.parametrize("solve, k", [
        (vrpca_vector, 1), (vrpca_block, 1), (vrpca_block, 3),
        (deflation_solve, 1), (deflation_solve, 3)])
    @pytest.mark.parametrize("epochs", [0, 2])
    def test_epoch_solvers(self, solve, k, epochs, small_k1):
        X, m = small_k1.Xs, 64
        cfg = SolverConfig(k=k, eta=0.01, m=m, epochs=epochs, seed=1)
        with warnings.catch_warnings():
            # unconverged stages may order their eigenvalue estimates wrongly
            warnings.simplefilter("ignore", GapWarning)
            trace = solve(X, gaussian_init(X.d, k, seed=3), cfg,
                          small_k1.reference(k))
        if solve is deflation_solve:  # one record per stage
            expect = [(epochs * j, 0) for j in range(1, k + 1)]
        else:
            expect = [(0, 0)] + [(s, m) for s in range(1, epochs + 1)]
        assert self._marks(trace) == expect
        assert trace.boundary_records()[-1] is trace.records[-1]

    @pytest.mark.parametrize("iters, expect", [
        (333, [(0, 0), (1, 333)]), (0, [(0, 0)])])
    def test_oja(self, iters, expect, small_k1):
        X = small_k1.Xs
        trace = oja_baseline(X, gaussian_init(X.d, 1, seed=9), 1.0, iters)
        assert self._marks(trace) == expect

    @pytest.mark.parametrize("k", [1, 3])
    def test_orthogonal_iteration_every_sweep(self, k, small_k1):
        X = small_k1.Xs
        trace = orthogonal_iteration(X, gaussian_init(X.d, k, seed=8), 4)
        assert self._marks(trace) == [(s, 0) for s in range(5)]

    def test_one_epoch_trace_has_its_first_and_last_records(self):
        # a burn-in trace is all epoch 0: its boundaries are its start and
        # its last check, not every check
        recs = [TraceRecord(epoch=0, iteration=t, potential=None,
                            residual=None, samples=t, elapsed_s=0.0)
                for t in (0, 64, 128, 192)]
        trace = ConvergenceTrace(records=recs)
        assert trace.boundary_records() == [recs[0], recs[-1]]
        assert ConvergenceTrace().boundary_records() == []

    def test_exhausted_burn_in_trace(self, small_k1, monkeypatch):
        X = small_k1.Xs
        monkeypatch.setattr(solvers, "BURN_C_PRIME", 0.008)
        with pytest.raises(NonConvergenceError) as err:
            burn_in(X, gaussian_init(X.d, 1, seed=4), zeta=1.0 / X.d,
                    delta=0.5, lambda_hat=small_k1.gap,
                    reference=small_k1.reference(1), eta=0.02)
        recs = err.value.trace.records
        assert len(recs) >= 3
        assert err.value.trace.boundary_records() == [recs[0], recs[-1]]


def _philox(key, jump=0):
    return np.random.Generator(np.random.Philox(key=key).jumped(jump))


def _record_indices(monkeypatch):
    """Make solvers._steps_k1 record the index array of every call."""
    drawn = []

    def record(xd, idx, *args, _real=solvers._steps_k1, **kwargs):
        drawn.append(np.array(idx))
        return _real(xd, idx, *args, **kwargs)

    monkeypatch.setattr(solvers, "_steps_k1", record)
    return drawn


class TestSeedStreams:
    """Every solve-path draw comes from _stream(seed, purpose, jump), whose
    documented keys burn_in, oja_baseline, the deflation stages and the
    warm start keep."""

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**64 - 1])
    def test_each_purpose_draws_its_documented_key(self, seed):
        def draws(gen):
            return gen.integers(0, 1000, size=64), gen.standard_normal(8)

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b))

        words = np.array([seed, 0], dtype=np.uint64)
        assert same(draws(_stream(seed)), draws(_philox(words)))
        assert same(draws(_stream(seed)), draws(_philox(seed)))
        burn = np.array([seed, 1], dtype=np.uint64)
        assert same(draws(_stream(seed, BURN_IN_STREAM)), draws(_philox(burn)))
        for jump in (1, 2, 8):
            assert same(draws(_stream(seed, RUN_STREAM, jump)),
                        draws(_philox(words, jump)))
        assert not same(draws(_stream(seed)), draws(_stream(seed, 1)))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ConfigError,
                           match=r"seed must lie in \[0, 2\*\*64\)"):
            _stream(seed)

    def test_deflation_stage_j_draws_the_run_stream_jumped(self, monkeypatch,
                                                           small_k1):
        drawn = _record_indices(monkeypatch)
        X = small_k1.Xs
        k, epochs, m = 3, 2, 50
        cfg = SolverConfig(k=k, eta=0.05, m=m, epochs=epochs, seed=6)
        deflation_solve(X, gaussian_init(X.d, k, seed=6), cfg)
        per_stage = epochs * 10  # segments of m // 10 steps
        assert len(drawn) == k * per_stage
        for j in range(1, k + 1):
            got = np.concatenate(drawn[(j - 1) * per_stage:j * per_stage])
            want = _philox(cfg.seed, j - 1).integers(0, X.n, size=epochs * m)
            assert np.array_equal(got, want), j

    @pytest.mark.parametrize("k", [1, 3])
    def test_warm_start_makes_one_draw_from_the_run_stream(self, monkeypatch,
                                                          k):
        # A is the identity: the start is the draw itself, orthonormalized;
        # a draw A maps to zero raises, without a second draw
        X = DataMatrix(np.eye(5))
        drawn = []

        def identity(X, g, cov=None):
            drawn.append(g.copy())
            return g

        monkeypatch.setattr(initialization, "_products", identity)
        frame = power_warm_start(X, seed=9, k=k).frame
        g = _philox(9).standard_normal((5, k))
        assert len(drawn) == 1 and np.array_equal(drawn[0], g)
        np.testing.assert_array_equal(
            frame.entries, matrix.polar_normalize(g).entries)
        drawn.clear()
        monkeypatch.setattr(initialization, "_products",
                            lambda X, g, cov=None: drawn.append(g) or 0.0 * g)
        with pytest.raises(DegenerateIterateError, match="numerical rank"):
            power_warm_start(X, seed=9, k=k)
        assert len(drawn) == 1
        assert np.array_equal(gaussian_init(5, 2, seed=9).entries,
                              matrix.polar_normalize(
                                  _philox(9).standard_normal((5, 2))).entries)

    def test_burn_in_draws_a_stream_of_its_own(self, burn_instance,
                                                monkeypatch):
        X = burn_instance.Xs
        drawn = _record_indices(monkeypatch)
        for seed in (0, 4):
            drawn.clear()
            burn_in(X, gaussian_init(X.d, 1, seed=11), zeta=1.0 / 30,
                    delta=0.5, lambda_hat=burn_instance.gap,
                    reference=burn_instance.reference(1), seed=seed)
            got = np.concatenate(drawn)
            assert got.size > 0

            def stream(key):
                return np.random.Generator(np.random.Philox(key=key)) \
                    .integers(0, X.n, size=got.size)

            assert np.array_equal(got, stream((seed, 1)))
            assert not np.array_equal(got, stream(seed))  # the solver's

    @pytest.mark.parametrize("seed", [0, 5])
    def test_oja_draws_the_run_stream(self, monkeypatch, small_k1, seed):
        # Oja's steps, written out on the run stream's indices in the
        # kernel's one-pass order (the normalization carried as inv into
        # the next step, each sum in the kernel's order): the compiled
        # steps and the numpy fallback reproduce them bit for bit
        X = small_k1.Xs
        w0 = gaussian_init(X.d, 1, seed=3)
        idx = np.random.Generator(np.random.Philox(key=seed)).integers(
            0, X.n, size=300)
        v, inv = w0.entries[:, 0].copy(), 1.0
        p = _native._sum8(X.data[:, idx[0]] * v)  # x^T v for the step
        for t in range(1, 301):
            x = X.data[:, idx[t - 1]]
            v = v * inv + (0.5 / t * (inv * p)) * x
            p = _native._sum8(X.data[:, idx[min(t, 299)]] * v)
            inv = 1.0 / np.sqrt(_native._sum8(v * v))
        w = v * inv
        compiled = oja_baseline(X, w0, 0.5, 300, seed=seed)
        assert np.array_equal(compiled.final_frame.entries[:, 0], w)
        monkeypatch.setattr(_native, "_library", lambda: None)
        trace = oja_baseline(X, w0, 0.5, 300, seed=seed)
        assert np.array_equal(trace.final_frame.entries[:, 0], w)
        if seed == 0:  # the default
            assert np.array_equal(
                oja_baseline(X, w0, 0.5, 300).final_frame.entries,
                trace.final_frame.entries)


class TestOja:
    def test_single_eigendirection(self):
        from vrpca import DataMatrix
        X = DataMatrix(np.array([[1.0], [0.0], [0.0]]))
        w0 = gaussian_init(3, 1, seed=4)
        trace = oja_baseline(X, w0, 5.0, iters=2000)
        w = trace.final_frame.column(0)
        assert abs(abs(w[0]) - 1.0) <= 1e-8

    @pytest.mark.parametrize("schedule, iters, message", [
        (0.5, -5, r"oja_iters must be >= 0, got -5"),
        (-1.0, 10, r"oja_eta0 must be positive and finite, got -1.0"),
        (0.0, 10, r"oja_eta0 must be positive and finite, got 0.0"),
        (lambda t: 0.5, 10, r"oja_eta0 must be a number, got <function")])
    def test_bad_arguments_refused(self, small_k1, schedule, iters, message):
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=2)
        with pytest.raises(ConfigError, match=message):
            oja_baseline(small_k1.Xs, w0, schedule, iters)

    def test_zero_iterations_keep_start(self, small_k1):
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=2)
        trace = oja_baseline(small_k1.Xs, w0, 0.5, 0)
        assert len(trace.records) == 1 and trace.samples == 0
        assert np.array_equal(trace.final_frame.entries, w0.entries)

    def test_loses_to_variance_reduction_at_equal_budget(self, std_k1):
        ref = std_k1.reference(1)
        w0 = power_warm_start(std_k1.Xs, seed=1, reference=ref).frame
        eta, m = select_parameters(std_k1.gap, 1.0, 1, 0.25)
        cfg = SolverConfig(k=1, eta=eta, m=m, epochs=10, seed=1)
        vr = vrpca_vector(std_k1.Xs, w0, cfg, ref)
        budget = vr.samples
        oja = oja_baseline(std_k1.Xs, w0, 1.0 / std_k1.gap, iters=budget, reference=ref)
        assert vr.records[-1].potential < oja.records[-1].potential


class TestOrthogonalIteration:
    def test_fixed_point(self, small_k1):
        vk = small_k1.reference(2)
        trace = orthogonal_iteration(small_k1.Xs, vk, sweeps=5, reference=vk)
        assert max(r.potential for r in trace.records) <= 1e-12

    def test_single_sweep_hand_case(self):
        from vrpca import DataMatrix
        cols = np.zeros((2, 2))
        cols[0, 0] = np.sqrt(2.0)
        cols[1, 1] = 1.0
        X = DataMatrix(cols)  # covariance diag(1, 0.5)
        w0 = OrthonormalFrame(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        trace = orthogonal_iteration(X, w0, sweeps=1)
        expected = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
        np.testing.assert_allclose(np.abs(trace.final_frame.column(0)),
                                   expected, atol=1e-12)

    def test_classical_rate(self, std_k1):
        ref = std_k1.reference(1)
        w0 = gaussian_init(std_k1.Xs.d, 1, seed=13)
        p0 = potential(ref, w0)
        trace = orthogonal_iteration(std_k1.Xs, w0, sweeps=50, reference=ref)
        s = std_k1.spectrum.eigenvalues
        bound = (s[1] / s[0]) ** (2 * 50) * p0
        assert trace.records[-1].potential <= 10.0 * bound


    @pytest.mark.parametrize("scale", [1e-4, 1e-20, 1e20])
    def test_scaled_data_gives_the_unscaled_frames(self, scale):
        # full-rank d=12, n=200 data: each sweep judges the rank of A W
        # relative to its scale, so scaling the data moves only rounding
        X = DataMatrix(np.random.default_rng(12).standard_normal((12, 200)))
        Xc = DataMatrix(X.data * scale)
        for k in (1, 2, 3):
            w0 = gaussian_init(X.d, k, seed=k)
            np.testing.assert_allclose(
                orthogonal_iteration(Xc, w0, sweeps=5).final_frame.entries,
                orthogonal_iteration(X, w0, sweeps=5).final_frame.entries,
                rtol=0, atol=1e-12)

    def test_negative_sweeps_refused(self, small_k1):
        w0 = gaussian_init(small_k1.Xs.d, 2, seed=2)
        with pytest.raises(ConfigError, match=r"sweeps must be >= 0, got -3"):
            orthogonal_iteration(small_k1.Xs, w0, sweeps=-3)


class TestDeflation:
    def _cfg(self, gap, seed=1, epochs=6, k=1):
        eta, m = select_parameters(gap, 1.0, 1, 0.5)
        return SolverConfig(k=k, eta=eta, m=m, epochs=epochs, seed=seed,
                            delta=0.5)

    def test_k1_identical_to_vector_solver(self, small_k1):
        cfg = self._cfg(small_k1.gap, seed=3)
        w0 = gaussian_init(small_k1.Xs.d, 1, seed=cfg.seed + 1)
        frame = deflation_solve(small_k1.Xs, w0, cfg).final_frame
        direct = vrpca_vector(small_k1.Xs, w0, cfg)
        assert np.array_equal(frame.entries, direct.final_frame.entries)

    def test_two_stage_recovery(self):
        inst = Instance((1.0, 0.8, 0.6), n=16, seed=7)
        cfg = self._cfg(0.2 / inst.scale, seed=2, epochs=8, k=2)
        w0 = gaussian_init(inst.Xs.d, 2, seed=cfg.seed)
        frame = deflation_solve(inst.Xs, w0, cfg).final_frame
        assert potential(inst.reference(2), frame) <= 1e-6

    def test_degenerate_gap_warns_but_terminates(self):
        inst = Instance((1.0, 1.0, 0.4), n=16, seed=9)
        cfg = SolverConfig(k=2, eta=0.02, m=1000, epochs=8, seed=5)
        w0 = gaussian_init(inst.Xs.d, 2, seed=5)
        with pytest.warns(GapWarning):
            frame = deflation_solve(inst.Xs, w0, cfg).final_frame
        assert frame.k == 2  # converged or not, the frame is orthonormal

    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_tied_pair_warns_at_every_scale(self, scale):
        # the instance above scaled; eta / scale^2 keeps its steps
        inst = Instance((1.0, 1.0, 0.4), n=16, seed=9)
        X = DataMatrix(inst.Xs.data * scale)
        cfg = SolverConfig(k=2, eta=0.02 / scale**2, m=1000, epochs=8,
                           seed=5)
        with pytest.warns(GapWarning):
            deflation_solve(X, gaussian_init(X.d, 2, seed=5), cfg)

    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_gap_rule_is_relative_to_the_leading_estimate(self, std_k3,
                                                          scale):
        # the top three eigenvalues 1, .95, .9 differ by 5%; a rule on
        # the absolute difference warned twice at scale 0.01
        X = DataMatrix(std_k3.X.data * scale)
        eta, m = select_parameters(0.05 * scale**2, X.r, 1, 0.5)
        cfg = SolverConfig(k=3, eta=eta, m=m, epochs=3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GapWarning)
            deflation_solve(X, gaussian_init(X.d, 3, seed=1), cfg)

    def test_one_record_per_stage(self, small_k1):
        # each stage adds one sweep-style record: cumulative epochs and
        # samples, the found vectors' potential against the reference and
        # their residual; the last record is the final frame's
        X = small_k1.Xs
        k, epochs, m = 3, 3, 128
        ref = small_k1.reference(k)
        cfg = SolverConfig(k=k, eta=0.1, m=m, epochs=epochs, seed=4)
        trace = deflation_solve(X, gaussian_init(X.d, k, seed=4), cfg, ref)
        assert [r.epoch for r in trace.records] == [epochs * j
                                                    for j in (1, 2, 3)]
        assert [r.samples for r in trace.records] == [
            epochs * (X.n + m) * j for j in (1, 2, 3)]
        assert trace.boundary_records() == trace.records
        for j, r in enumerate(trace.records, 1):
            found = OrthonormalFrame(trace.final_frame.entries[:, :j])
            inside = found.entries.T @ ref.entries
            assert r.potential == pytest.approx(
                j - np.sum(inside**2), rel=0, abs=1e-12)
            assert r.residual == pytest.approx(rayleigh_residual(X, found),
                                               rel=0, abs=1e-12)
        assert trace.records[-1].potential == pytest.approx(
            potential(ref, trace.final_frame), rel=0, abs=1e-15)

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_stage_vectors_stay_in_the_complement(self, monkeypatch, std_k3,
                                                  with_reference):
        # stage j >= 2 steps on the projected copy with u = P A w~ (from
        # the memo with a reference, streamed without), so its final vector
        # is orthogonal to the vectors found before it already; the last
        # projection corrects only rounding
        calls = []
        real = solvers._project_out

        def record(w, basis):
            if basis is not None:
                calls.append((w.copy(), basis.copy()))
            real(w, basis)

        monkeypatch.setattr(solvers, "_project_out", record)
        X, ref = std_k3.Xs, std_k3.reference(3)
        eta, m = select_parameters(std_k3.gap, 1.0, 3, 0.8)
        cfg = SolverConfig(k=3, eta=eta, m=m, epochs=4, seed=1, delta=0.8)
        deflation_solve(X, power_warm_start(X, k=3, seed=1,
                                            reference=ref).frame, cfg,
                        ref if with_reference else None)
        starts, finals = calls[::2], calls[1::2]
        assert [b.shape[1] for _, b in finals] == [1, 2]
        for w, basis in starts:  # the start columns needed the projection
            assert np.max(np.abs(basis.T @ w)) > 1e-6
        for v, basis in finals:
            assert np.max(np.abs(basis.T @ v)) <= 1e-12

    def test_stage_j_starts_from_column_j(self, small_k1):
        # stage 2 runs from the start frame's second column: swapping the
        # columns changes the run, and cfg.k must match the frame
        X = small_k1.Xs
        cfg = SolverConfig(k=2, eta=0.1, m=128, epochs=2, seed=4)
        w0 = gaussian_init(X.d, 2, seed=4)
        swapped = OrthonormalFrame(w0.entries[:, ::-1].copy())
        a = deflation_solve(X, w0, cfg).final_frame.entries
        b = deflation_solve(X, swapped, cfg).final_frame.entries
        assert not np.array_equal(a, b)
        with pytest.raises(DimensionMismatchError, match="config k=2"):
            deflation_solve(X, gaussian_init(X.d, 1, seed=4), cfg)


@pytest.fixture(scope="module")
def zero_columns():
    """A d=20, n=200 instance of the standard k=1 family with every third
    data point (column) set to zero, rescaled, and its oracle spectrum:
    DataMatrix accepts such data, so every solver must cope with it."""
    data = synthesize_dataset(SpectrumSpec(spectrum_k1(d=20)), 200,
                              seed=7).data.copy()
    data[:, ::3] = 0.0
    X, _ = rescale_dataset(DataMatrix(data))
    return X, dense_eigh(X)


def _start(X, init, k):
    if init == "gaussian":
        return gaussian_init(X.d, k, seed=3)
    return power_warm_start(X, 3, k=k).frame


@pytest.mark.parametrize("init", ["gaussian", "power"])
class TestZeroColumns:
    @pytest.mark.parametrize("solve, k", [
        (vrpca_vector, 1), (vrpca_block, 1), (vrpca_block, 2),
        (deflation_solve, 2)])
    def test_variance_reduced_solvers_converge(self, zero_columns, init,
                                               solve, k):
        X, spec = zero_columns
        # m = n and eta = 1/(r sqrt(n)), with r = 1 after rescaling
        cfg = SolverConfig(k=k, eta=1.0 / np.sqrt(X.n), m=X.n, epochs=15,
                           seed=3)
        trace = solve(X, _start(X, init, k), cfg)
        assert potential(leading_subspace(spec, k),
                         trace.final_frame) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_orthogonal_iteration_converges(self, zero_columns, init, k):
        X, spec = zero_columns
        trace = orthogonal_iteration(X, _start(X, init, k), 60)
        assert potential(leading_subspace(spec, k),
                         trace.final_frame) <= 1e-12

    def test_oja_converges(self, zero_columns, init):
        X, spec = zero_columns
        trace = oja_baseline(X, _start(X, init, 1), 1.0 / spec.gap_at(1),
                             20000, seed=3)
        assert potential(leading_subspace(spec, 1),
                         trace.final_frame) <= 1e-2

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_burn_in_stops_under_both_rules(self, zero_columns, init,
                                            with_reference):
        # with a reference it stops at potential <= 1/2; without one, on
        # the residual proxy, which here stops well inside that
        X, spec = zero_columns
        ref = leading_subspace(spec, 1)
        frame, _ = burn_in(X, _start(X, init, 1), 1.0 / X.d, 0.25,
                           spec.gap_at(1), seed=3,
                           reference=ref if with_reference else None)
        assert potential(ref, frame) <= 0.5



def test_rank_one_zero_column_data_refuses_a_two_column_power_start():
    # the data spans one direction: a one-column power start lands on it,
    # and a two-column one, which finds no second direction, is refused
    data = np.zeros((20, 200))
    data[0, 1::3] = 1.0
    X = DataMatrix(data)
    e1 = OrthonormalFrame(np.eye(20)[:, :1])
    assert potential(e1, power_warm_start(X, 3).frame) == 0.0
    with pytest.raises(DegenerateIterateError, match="numerical rank < 2"):
        power_warm_start(X, 3, k=2)


class TestRng:
    def test_same_seed_same_index_stream(self, monkeypatch, small_k1):
        # one run stream per seed: the vector solver and the block solver
        # at k=1 and k=2 hand their step functions the same column indices
        drawn = []
        for name in ("_steps_k1", "_steps_block"):
            def record(xd, idx, *args, _real=getattr(solvers, name),
                       **kwargs):
                drawn[-1].append(np.array(idx))
                return _real(xd, idx, *args, **kwargs)

            monkeypatch.setattr(solvers, name, record)
        X = small_k1.Xs
        for solve, k in ((vrpca_vector, 1), (vrpca_block, 1),
                         (vrpca_block, 2)):
            drawn.append([])
            cfg = SolverConfig(k=k, eta=0.01, m=64, epochs=2, seed=21)
            solve(X, gaussian_init(X.d, k, seed=3), cfg)
        vector, block1, block2 = (np.concatenate(b) for b in drawn)
        assert len(vector) == 2 * 64
        assert np.array_equal(block1, vector)
        assert np.array_equal(block2, vector)

    @pytest.mark.parametrize("n, m", [(3000, 56385), (100000, 100000)])
    def test_chunked_draws_equal_one_block(self, n, m):
        # consecutive Philox integer draws continue one stream: chunks of
        # any size, and the draw after them, concatenate to one block draw
        # bit for bit
        block = np.random.Generator(np.random.Philox(key=9)).integers(
            0, n, size=m + 5)
        for stride in (1, 3, m // 10, 4097):
            rng = np.random.Generator(np.random.Philox(key=9))
            chunks = [rng.integers(0, n, size=min(stride, m - t0))
                      for t0 in range(0, m, stride)]
            chunks.append(rng.integers(0, n, size=5))
            assert np.array_equal(np.concatenate(chunks), block)

    def test_epoch_draws_one_segment_at_a_time(self, monkeypatch, small_k1):
        # each checkpoint segment draws only its own indices, and the
        # epoch's segments make up the block Philox(seed) would draw at once
        drawn = []

        def record(xd, idx, *args, _real=solvers._steps_k1, **kwargs):
            assert idx.flags.owndata  # not a view into an epoch-long block
            drawn.append(np.array(idx))
            return _real(xd, idx, *args, **kwargs)

        monkeypatch.setattr(solvers, "_steps_k1", record)
        X = small_k1.Xs
        m, epochs = 97, 2
        cfg = SolverConfig(k=1, eta=0.01, m=m, epochs=epochs, seed=21)
        vrpca_vector(X, gaussian_init(X.d, 1, seed=3), cfg)
        assert [len(idx) for idx in drawn] == epochs * ([9] * 10 + [7])
        rng = np.random.Generator(np.random.Philox(key=21))
        expected = [rng.integers(0, X.n, size=m) for _ in range(epochs)]
        assert np.array_equal(np.concatenate(drawn), np.concatenate(expected))


    def test_segments_draw_bounded_chunks(self):
        # a segment longer than _CHUNK runs as several steps calls, each
        # told its first step, so no index array grows with the total
        calls = []

        def steps(idx, t0, v, scale):
            calls.append((len(idx), t0))
            return 1 if len(calls) == 2 else 0

        w = np.array([[0.6], [0.8]])
        with pytest.raises(DegenerateIterateError,
                           match=r"at epoch 1, step 65537: norm 1\.000e\+00"):
            for _ in solvers._segments(_stream(0), 5, 10**30, 10**29, w,
                                       "at epoch 1,", steps):
                pass
        assert calls == [(2**16, 0), (2**16, 2**16)]

    def test_chunks_change_no_bit(self, monkeypatch, small_k1):
        # chunked draws continue one stream, and Oja's step sizes follow
        # each chunk's first step
        X = small_k1.Xs
        w1, w2 = gaussian_init(X.d, 1, seed=3), gaussian_init(X.d, 2, seed=3)
        cfg = SolverConfig(k=1, eta=0.01, m=97, epochs=2, seed=21)

        def runs():
            traces = (vrpca_vector(X, w1, cfg),
                      vrpca_block(X, w2, SolverConfig(
                          k=2, eta=0.01, m=97, epochs=2, seed=21)),
                      oja_baseline(X, w1, 0.5, 97, seed=21))
            return [([(r.epoch, r.iteration, r.samples, r.residual)
                      for r in t.records], t.final_frame.entries)
                    for t in traces]

        whole = runs()
        monkeypatch.setattr(solvers, "_CHUNK", 4)
        for (recs, frame), (recs4, frame4) in zip(whole, runs()):
            assert recs4 == recs
            assert np.array_equal(frame4, frame)


class _PassCounter(np.ndarray):
    """Data whose X^T W products are counted: each covariance pass of a
    solver makes one, and so does each anchor product X^T W~ taken with
    the covariance memo."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # X^T W: the transpose of the F-ordered d x n data is C-ordered
        if ufunc is np.matmul and isinstance(inputs[0], _PassCounter) \
                and inputs[0].ndim == 2 and not inputs[0].flags.f_contiguous:
            _PassCounter.passes += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs),
                                      **kwargs)


class TestRecorderPasses:
    """The trace recorder makes no data pass: boundary residuals come from
    the next epoch's anchor product and the run's final product. With a
    reference those products come from the covariance memo, so only the
    anchor products X^T W~ read the data."""

    def test_epochs_call_no_covariance_apply(self, small_k1):
        # with a reference every boundary residual comes from the memo:
        # E epochs read the data E times, for the anchor products X^T W~
        X = DataMatrix(small_k1.Xs.data)
        X.data = X.data.view(_PassCounter)
        for solve, k in ((vrpca_vector, 1), (vrpca_block, 1),
                         (vrpca_block, 2)):
            _PassCounter.passes = 0
            cfg = SolverConfig(k=k, eta=0.01, m=64, epochs=2, seed=3)
            trace = solve(X, gaussian_init(X.d, k, seed=3), cfg,
                          small_k1.reference(k))
            assert trace.boundary_records()[-1].residual is not None
            assert _PassCounter.passes == 2

    @pytest.mark.parametrize("solve, k", [(vrpca_vector, 1),
                                          (vrpca_block, 2)])
    def test_epoch_loop_makes_one_pass_per_epoch_plus_one(self, solve, k,
                                                          small_k1):
        # without a reference: E anchor passes and the final pass
        X = DataMatrix(small_k1.Xs.data)
        X.data = X.data.view(_PassCounter)
        for epochs in (0, 1, 3):
            _PassCounter.passes = 0
            cfg = SolverConfig(k=k, eta=0.01, m=64, epochs=epochs, seed=3)
            solve(X, gaussian_init(X.d, k, seed=3), cfg)
            assert _PassCounter.passes == epochs + 1

    @pytest.mark.parametrize("solve, k", [(vrpca_vector, 1),
                                          (vrpca_block, 2)])
    def test_epoch_loop_with_a_reference_makes_one_pass_per_epoch(
            self, solve, k, small_k1):
        # with a reference u and the final residual come from the memo:
        # only the E anchor products X^T W~ read the data
        X = DataMatrix(small_k1.Xs.data)
        X.data = X.data.view(_PassCounter)
        for epochs in (0, 1, 3):
            _PassCounter.passes = 0
            cfg = SolverConfig(k=k, eta=0.01, m=64, epochs=epochs, seed=3)
            solve(X, gaussian_init(X.d, k, seed=3), cfg, small_k1.reference(k))
            assert _PassCounter.passes == epochs

    @pytest.mark.parametrize("solve, k", [(vrpca_vector, 1),
                                          (vrpca_block, 2)])
    def test_final_residual_is_the_next_boundary_residual(self, solve, k,
                                                          small_k1):
        X = small_k1.Xs
        w0 = gaussian_init(X.d, k, seed=5)
        runs = [solve(X, w0, SolverConfig(k=k, eta=0.01, m=100, epochs=e,
                                          seed=2), small_k1.reference(k))
                for e in (2, 3)]
        short, longer = runs
        final = short.boundary_records()[-1]
        assert final.epoch == 2
        assert final.residual == longer.boundary_records()[2].residual
        assert final.residual == pytest.approx(
            rayleigh_residual(X, short.final_frame), rel=0, abs=1e-12)
        for trace in runs:
            for r in trace.records:
                boundary = r.iteration in (0, 100)
                assert (r.residual is not None) == boundary

    @pytest.mark.parametrize("k", [2, 3])
    def test_deflation_passes_and_none_from_the_pipeline(self, k, small_k1,
                                                         monkeypatch):
        # k stages of E anchor passes (no stage-final pass), stage 1 over X
        # and stage j >= 2 over its projected copy, and one X^T B per copy;
        # without a reference also one pass per stage record, with one the
        # records and the stage u come from the memo. The pipeline adds no
        # pass of its own
        def counted_copy(data):
            copy = DataMatrix(data)
            copy.data = copy.data.view(_PassCounter)
            return copy

        monkeypatch.setattr(matrix, "DataMatrix", counted_copy)
        X = counted_copy(small_k1.Xs.data)
        epochs, seed = 4, 3
        cfg = SolverConfig(k=k, eta=0.01, m=64, epochs=epochs, seed=seed)
        run_cfg = ExperimentConfig(spectrum=small_k1.spec_req.eigenvalues,
                                   n=X.n, solver="deflation", k=k, eta=0.01,
                                   m=64, epochs=epochs, init="gaussian",
                                   seeds=(seed,))
        for ref, gap, records in (
                (small_k1.reference(k), small_k1.spectrum.gap_at(k), 0),
                (None, None, k)):
            _PassCounter.passes = 0
            deflation_solve(X, gaussian_init(X.d, k, seed=seed), cfg, ref)
            assert _PassCounter.passes == k * epochs + (k - 1) + records
            _PassCounter.passes = 0
            harness._single_run(X, X.r, 1.0, ref, gap, run_cfg, seed)
            assert _PassCounter.passes == k * epochs + (k - 1) + records

    def test_burn_in_with_reference_makes_no_pass(self, burn_instance):
        # no covariance pass: u comes from the memo and every check reads
        # the potential, so only the anchor product X^T w0 reads the data
        X = DataMatrix(burn_instance.Xs.data)
        X.data = X.data.view(_PassCounter)
        _PassCounter.passes = 0
        frame, iters = burn_in(X, gaussian_init(X.d, 1, seed=11),
                               zeta=1.0 / 30, delta=0.5,
                               lambda_hat=burn_instance.gap,
                               reference=burn_instance.reference(1))
        assert iters > 0
        assert _PassCounter.passes == 1

    def test_burn_in_without_reference_makes_one_pass_per_record(
            self, monkeypatch, burn_instance):
        # the anchor pass's u = A w0 gives the start's residual: one pass
        # for the anchor and record 0, and one per check record
        X = DataMatrix(burn_instance.Xs.data)
        X.data = X.data.view(_PassCounter)
        records = []
        add = solvers._Recorder.add
        monkeypatch.setattr(solvers._Recorder, "add", lambda self, *a:
                            records.append(a) or add(self, *a))
        _PassCounter.passes = 0
        frame, iters = burn_in(X, gaussian_init(X.d, 1, seed=11),
                               zeta=1.0 / 30, delta=0.5,
                               lambda_hat=burn_instance.gap)
        assert iters > 0 and len(records) > 2
        assert _PassCounter.passes == len(records)

    def test_orthogonal_iteration_reuses_its_sweep_product(self, small_k1):
        X = small_k1.Xs
        w0 = gaussian_init(X.d, 2, seed=8)
        frames = [orthogonal_iteration(X, w0, sweeps=s).final_frame
                  for s in range(5)]
        X = DataMatrix(X.data)
        X.data = X.data.view(_PassCounter)
        _PassCounter.passes = 0
        trace = orthogonal_iteration(X, w0, sweeps=4)
        assert _PassCounter.passes == 4 + 1
        assert [r.residual for r in trace.records] == \
            [rayleigh_residual(X, f) for f in frames]


def _burn_in_exhausted(X, reference, gap):
    # a budget of 450 steps (7 checks): the reference rule (potential
    # <= 1/2) and the proxy rule (8 checks without progress) both stay
    # unmet, so both runs take every step and return their last iterate
    with pytest.MonkeyPatch.context() as mp, \
            pytest.raises(NonConvergenceError) as info:
        mp.setattr(solvers, "BURN_C_PRIME", 0.008)
        burn_in(X, gaussian_init(X.d, 1, seed=4), zeta=1.0 / X.d, delta=0.5,
                lambda_hat=gap, reference=reference, eta=0.02)
    return info.value.frame, info.value.iterations


class TestCovarianceMemo:
    """A solve given a reference at desk scale applies A from the data
    matrix's covariance memo; without one it streams X (X^T W) / n."""

    @staticmethod
    def _runs(inst):
        """(name, k, call(X, reference) -> (final frame, samples)) for each
        solver that takes a reference."""
        def cfg(k):
            return SolverConfig(k=k, eta=0.05, m=150, epochs=4, seed=2)

        def traced(solve, k):
            def run(X, ref):
                trace = solve(X, gaussian_init(X.d, k, seed=6), cfg(k), ref)
                return trace.final_frame, trace.samples
            return run

        def warm(k):
            def run(X, ref):
                return power_warm_start(X, 7, k=k, reference=ref).frame, 0
            return run

        def sweeps(X, ref):
            w0 = gaussian_init(X.d, 2, seed=8)
            return orthogonal_iteration(X, w0, 6, ref).final_frame, 6 * X.n

        def oja(X, ref):
            w0 = gaussian_init(X.d, 1, seed=9)
            trace = oja_baseline(X, w0, 1.0, 500, ref)
            return trace.final_frame, trace.samples

        return [
            ("vrpca_vector", 1, traced(vrpca_vector, 1)),
            ("vrpca_block", 2, traced(vrpca_block, 2)),
            ("deflation_solve", 2, traced(deflation_solve, 2)),
            ("power_warm_start", 1, warm(1)),
            ("power_warm_start", 2, warm(2)),
            ("orthogonal_iteration", 2, sweeps),
            ("oja_baseline", 1, oja),
            ("burn_in", 1,
             lambda X, ref: _burn_in_exhausted(X, ref, inst.gap)),
        ]

    def test_with_and_without_reference_agree(self, small_k1):
        # epsilon unset and the same epochs: only the products A W differ
        for name, k, run in self._runs(small_k1):
            ref = small_k1.reference(k)
            with_ref, samples_ref = run(small_k1.Xs, ref)
            without, samples = run(small_k1.Xs, None)
            assert samples_ref == samples, (name, k)
            diff = np.max(np.abs(with_ref.entries - without.entries))
            assert diff <= 1e-12, (name, k, diff)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.data())
    def test_memo_and_streamed_solves_agree(self, data):
        # random desk instances: the memo path (a reference at d <=
        # DENSE_GUARD) and the streamed path (none) draw the same samples
        # and end on the same frame to rounding
        d = data.draw(st.integers(2, 40), "d")
        n = data.draw(st.integers(d, 400), "n")
        solver, rotate = data.draw(st.sampled_from([
            (vrpca_vector, True), (vrpca_block, True), (vrpca_block, False),
            (deflation_solve, True)]), "solver")
        k = 1 if solver is vrpca_vector else data.draw(
            st.integers(1, min(3, d - 1)), "k")
        gap = data.draw(st.floats(0.02, 0.9), "relative gap at k")
        power = data.draw(st.booleans(), "power start")
        epochs = data.draw(st.integers(2, 3), "epochs")
        seed = data.draw(st.integers(0, 2**16), "seed")
        top = [1.0 - 0.1 * i for i in range(k)]
        eigs = top + [top[-1] * (1.0 - gap) * 0.5**j for j in range(d - k)]
        X, _ = rescale_dataset(synthesize_dataset(SpectrumSpec(eigs, k=k), n,
                                                  seed))
        ref = leading_subspace(dense_eigh(X), k)
        cfg = SolverConfig(k=k, eta=1.0 / np.sqrt(n), m=n, epochs=epochs,
                           seed=seed, use_rotation=rotate)
        runs = []
        with warnings.catch_warnings():
            # deflation's estimates of close eigenvalues need not converge
            warnings.simplefilter("ignore", GapWarning)
            for reference in (ref, None):
                w0 = (power_warm_start(X, seed, k=k, reference=reference)
                      .frame if power else gaussian_init(d, k, seed=seed))
                runs.append(solver(X, w0, cfg, reference))
        memo, streamed = runs
        assert memo.samples == streamed.samples
        diff = np.max(np.abs(memo.final_frame.entries
                             - streamed.final_frame.entries))
        assert diff <= 1e-12

    def test_reference_free_calls_form_no_memo(self, small_k1):
        for name, k, run in self._runs(small_k1):
            X = counted(small_k1.Xs)
            run(X, None)
            assert GramCounter.formed == 0, (name, k)

    def test_reference_calls_form_the_memo_once(self, small_k1):
        for name, k, run in self._runs(small_k1):
            X = counted(small_k1.Xs)
            run(X, small_k1.reference(k))
            run(X, small_k1.reference(k))
            assert GramCounter.formed == 1, (name, k)
            assert np.array_equal(X.covariance(),
                                  small_k1.Xs.data @ small_k1.Xs.data.T
                                  / small_k1.Xs.n)

    @pytest.mark.parametrize("solve, k", [(vrpca_vector, 1),
                                          (vrpca_block, 2),
                                          (deflation_solve, 2)])
    def test_boundary_residuals_match_rayleigh_residual(self, solve, k,
                                                        small_k1):
        # the residual of each boundary, from the memo, against the
        # streamed rayleigh_residual of the iterate at that boundary: the
        # final frame of the run that stops there
        X, ref = small_k1.Xs, small_k1.reference(k)
        w0 = gaussian_init(X.d, k, seed=5)

        def run(epochs):
            cfg = SolverConfig(k=k, eta=0.05, m=100, epochs=epochs, seed=2)
            return solve(X, w0, cfg, ref)

        if solve is deflation_solve:
            trace = run(3)
            final = trace.final_frame.entries
            for j, rec in enumerate(trace.records, 1):
                expect = rayleigh_residual(X, OrthonormalFrame(final[:, :j]))
                assert rec.residual == pytest.approx(expect, rel=0, abs=1e-12)
            return
        boundaries = run(3).boundary_records()
        assert len(boundaries) == 4
        for e, rec in enumerate(boundaries):
            expect = rayleigh_residual(X, run(e).final_frame)
            assert rec.residual == pytest.approx(expect, rel=0, abs=1e-12)

    def test_sweep_and_record_residuals_match_rayleigh_residual(self,
                                                                small_k1):
        X = small_k1.Xs
        w0 = gaussian_init(X.d, 2, seed=8)
        trace = orthogonal_iteration(X, w0, 4, small_k1.reference(2))
        for s, rec in enumerate(trace.records):
            frame = orthogonal_iteration(X, w0, s).final_frame
            assert rec.residual == pytest.approx(
                rayleigh_residual(X, frame), rel=0, abs=1e-12)
        trace = oja_baseline(X, gaussian_init(X.d, 1, seed=9), 1.0, 300,
                             small_k1.reference(1))
        assert trace.records[-1].residual == pytest.approx(
            rayleigh_residual(X, trace.final_frame), rel=0, abs=1e-12)

    def test_past_the_dense_guard_no_memo_and_streamed(self):
        # d = 2001 > DENSE_GUARD: a reference does not form the memo, and
        # the solver streams the data as it does without one
        rng = np.random.default_rng(4)
        d = 2001
        X = counted(DataMatrix(rng.standard_normal((d, 3))))
        ref = OrthonormalFrame(np.eye(d, 1))
        with pytest.raises(DimensionMismatchError, match="dense guard"):
            X.covariance()
        cfg = SolverConfig(k=1, eta=1e-4, m=5, epochs=2, seed=1)
        w0 = power_warm_start(X, 1, reference=ref).frame
        with_ref = vrpca_vector(X, w0, cfg, ref)
        without = vrpca_vector(X, w0, cfg)
        assert GramCounter.formed == 0
        assert np.array_equal(with_ref.final_frame.entries,
                              without.final_frame.entries)
        assert [r.residual for r in with_ref.records] == \
            [r.residual for r in without.records]

    def test_concurrent_first_use_forms_one_memo(self, small_k1):
        import sys
        import threading

        X = counted(small_k1.Xs)
        got = []
        start = threading.Barrier(8)

        def use():
            start.wait(timeout=30)
            got.append(X.covariance())

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(a is got[0] for a in got)
        assert GramCounter.formed == 1
        assert not got[0].flags.writeable
