from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import warnlab.scaling as scaling
from warnlab import (
    EigenvalueCurve,
    EnsembleConfig,
    MultiplicationSymbolModel,
    NumericalError,
    SpectralModel,
    SweepResult,
    classify_warning_sign,
    fit_power_law,
    fit_quantity,
    load_config,
    make_p_grid,
    parse_quantity,
    run_parameter_sweep,
    select_window,
    splitmix64,
)
from oracles import assemble_drift_matrix, finite_lyapunov_solve


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def single_mode(sigma=1.0, noise=1.0, omega=0.0, sigma_exponent=0.0):
    return SpectralModel(
        curves=[EigenvalueCurve(0, 1.0, 1j * omega)],
        noise_matrix=np.array([[noise]]),
        sigma=sigma,
        sigma_exponent=sigma_exponent,
    )


def jordan_mode(m=2):
    return SpectralModel(
        curves=[EigenvalueCurve(0, 1.0)],
        noise_matrix=np.eye(m),
        jordan_sizes={0: m},
    )


class TestGrids:
    def test_geometric_halving_is_exact(self):
        grid = make_p_grid(0.0, -0.5, 10)
        assert np.array_equal(grid, -(0.5 ** np.arange(1, 11)))

    def test_geometric_with_stop(self):
        grid = make_p_grid(0.0, -0.1, 4, stop=-1e-4)
        assert_allclose(grid, [-1e-1, -1e-2, -1e-3, -1e-4], rtol=1e-12)

    def test_linear(self):
        grid = make_p_grid(0.0, -1.0, 5, stop=-0.2, spacing="linear")
        assert_allclose(grid, [-1.0, -0.8, -0.6, -0.4, -0.2], rtol=1e-12)

    def test_start_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            make_p_grid(0.0, 0.5, 4)


class TestQuantityParsing:
    def test_round_trip(self):
        for name in ("critical_diagonal", "entry:0,1", "block_entry:1,2",
                     "norm", "gaussian_pairing", "weyl_pairing:5"):
            assert parse_quantity(name).name == name

    def test_bad_strings_rejected(self):
        for bad in ("entry:0", "block_entry:0,1", "weyl_pairing:0",
                    "weyl_pairing:x", "norm:2", "unknown"):
            with pytest.raises(ValueError):
                parse_quantity(bad)


class TestFitPowerLaw:
    def test_exact_laws_recovered(self):
        d = np.geomspace(1e-4, 1e-1, 12)
        for alpha in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0):
            fit = fit_power_law(d, 3.7 * d**alpha)
            assert abs(fit.exponent - alpha) < 1e-12
            assert abs(fit.log_prefactor - np.log(3.7)) < 1e-10
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
            assert fit.residual_std < 1e-12

    def test_too_few_points_signal(self):
        with pytest.raises(NumericalError):
            fit_power_law([1.0, 0.5], [1.0, 2.0])

    def test_nonpositive_values_signal(self):
        with pytest.raises(NumericalError):
            fit_power_law([1.0, 0.5, 0.25], [1.0, -2.0, 4.0])

    def test_distances_equal_to_rounding_signal(self):
        d = 2.0 * np.array([1.0 - 2**-52, 1.0 - 2**-53, 1.0])
        with pytest.raises(NumericalError, match="agree to rounding"):
            fit_power_law(d, 1.0 / d)

    def test_constant_series_has_zero_slope(self):
        fit = fit_power_law(np.geomspace(1e-3, 1, 8), np.full(8, 2.5))
        assert abs(fit.exponent) < 1e-12

    def test_constant_series_with_rounding_noise_keeps_r_squared_in_range(self):
        # 1-ulp jitter leaves ss_tot at rounding level, which explains nothing
        values = np.where(np.arange(10) % 2 == 0, np.nextafter(0.5, 1.0), 0.5)
        fit = fit_power_law(np.geomspace(1e-3, 0.5, 10), values)
        assert 0.0 <= fit.r_squared <= 1.0


class TestWindows:
    def test_last_decade_on_halving_grid(self):
        d = 0.5 ** np.arange(1, 11)
        idx = select_window(d, "last_decade")
        # within a factor 10 of the smallest distance: 2^-7 .. 2^-10
        assert list(idx) == [6, 7, 8, 9]

    def test_all(self):
        assert list(select_window(np.ones(5), "all")) == [0, 1, 2, 3, 4]

    def test_interval(self):
        d = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        assert list(select_window(d, (0.1, 0.6))) == [1, 2, 3]

    def test_interval_too_small_signals(self):
        with pytest.raises(NumericalError):
            select_window(np.array([1.0, 0.5, 0.25]), (1e-6, 1e-5))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            select_window(np.ones(4), "first_decade")

    def test_pair_of_ints_is_a_distance_window(self):
        assert list(select_window(np.array([1.0, 0.5, 0.25]), (0, 2))) == [0, 1, 2]

    def test_index_list_rejected(self):
        with pytest.raises(ValueError, match="expected a window name or \\[lo, hi\\]"):
            select_window(np.ones(6), [0, 2, 4])


class TestAnalyticSweep:
    def test_frozen_values_single_mode(self):
        grid = np.array([-0.5, -0.25, -0.125, -0.0625])
        sweep = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"])
        assert_allclose(sweep.quantities["critical_diagonal"], [1.0, 2.0, 4.0, 8.0], rtol=1e-14)
        assert sweep.p_star == 0.0
        assert sweep.engine == "analytic"
        assert sweep.stderrs["critical_diagonal"] is None

    def test_coarse_grid_frozen_values(self):
        grid = np.array([-0.2, -0.1, -0.05, -0.025])
        sweep = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"])
        assert_allclose(sweep.quantities["critical_diagonal"], [2.5, 5.0, 10.0, 20.0], rtol=1e-14)

    def test_multiplication_norm_follows_same_law(self):
        # the symbol attains its max at a grid point, so the norm is 1/(2|p|)
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        grid = np.array([-0.2, -0.1, -0.05, -0.025])
        sweep = run_parameter_sweep(model, grid, ["norm"])
        assert_allclose(sweep.quantities["norm"], [2.5, 5.0, 10.0, 20.0], rtol=1e-12)

    def test_imaginary_part_leaves_series_unchanged(self):
        grid = make_p_grid(0.0, -0.5, 8)
        base = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"])
        for omega in (1.0, 10.0):
            rotated = run_parameter_sweep(single_mode(omega=omega), grid, ["critical_diagonal"])
            assert np.array_equal(
                base.quantities["critical_diagonal"], rotated.quantities["critical_diagonal"]
            )

    def test_jordan_exponent_multiset(self):
        grid = make_p_grid(0.0, -1.0, 7)  # last decade: |p| in {2^-3 .. 2^-6}
        sweep = run_parameter_sweep(
            jordan_mode(), grid, ["block_entry:1,1", "block_entry:1,2", "block_entry:2,2"]
        )
        exps = sorted(
            fit_quantity(sweep, q).exponent
            for q in ("block_entry:1,1", "block_entry:1,2", "block_entry:2,2")
        )
        assert_allclose(exps, [-3.0, -2.0, -1.0], atol=0.05)

    def test_larger_jordan_block_diagonal_exponents(self):
        grid = make_p_grid(0.0, -1.0, 7)
        sweep = run_parameter_sweep(
            jordan_mode(3), grid, ["block_entry:1,1", "block_entry:2,2", "block_entry:3,3"]
        )
        exps = [
            fit_quantity(sweep, q).exponent
            for q in ("block_entry:1,1", "block_entry:2,2", "block_entry:3,3")
        ]
        assert_allclose(exps, [-5.0, -3.0, -1.0], atol=0.1)

    def test_series_monotone_toward_threshold(self):
        grid = make_p_grid(0.0, -1.0, 8)
        mult = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        cases = [
            (single_mode(), "critical_diagonal"),
            (jordan_mode(), "block_entry:1,1"),
            (mult, "norm"),
            (mult, "gaussian_pairing"),
        ]
        for model, q in cases:
            sweep = run_parameter_sweep(model, grid, [q])
            assert np.all(np.diff(sweep.quantities[q]) > 0), q

    def test_grid_touching_threshold_signals(self):
        with pytest.raises(NumericalError):
            run_parameter_sweep(single_mode(), np.array([-0.5, 0.0]), ["critical_diagonal"])

    def test_entry_on_jordan_mode_rejected(self):
        with pytest.raises(ValueError, match="block_entry"):
            run_parameter_sweep(jordan_mode(), np.array([-1.0, -0.5]), ["entry:0,0"])

    def test_block_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            run_parameter_sweep(jordan_mode(2), np.array([-1.0, -0.5]), ["block_entry:3,1"])

    @pytest.mark.parametrize("quantities", [
        ["critical_diagonal", "critical_diagonal"],
        ["critical_diagonal", " critical_diagonal"],  # the same canonical name
    ])
    def test_repeated_quantity_rejected(self, quantities):
        with pytest.raises(ValueError, match="named twice"):
            run_parameter_sweep(single_mode(), make_p_grid(0.0, -0.5, 4), quantities)

    def test_each_quantity_resolved_once_per_sweep(self, monkeypatch):
        cfg = load_config(CONFIG_DIR / "jordan_block.json")
        grid = make_p_grid(0.0, -1.0, 6)
        calls = []
        real = scaling._entry_index

        def counted(model, spec):
            calls.append(spec.name)
            return real(model, spec)

        monkeypatch.setattr(scaling, "_entry_index", counted)
        sweep = run_parameter_sweep(cfg.model, grid, cfg.quantities)
        assert sorted(calls) == sorted(cfg.quantities)
        assert list(sweep.quantities) == list(cfg.quantities)

    def test_multiplication_sweep_rewrites_one_set_of_arrays(self, monkeypatch):
        # the pairings of both kinds share one _StableShift per sweep; each
        # pairing's arrays keep their identity from point to point, and each
        # series is bit-identical to the series swept alone, although the
        # pairings share one quotient array
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        grid = make_p_grid(0.0, -0.1, 5)
        names = ["weyl_pairing:3", "norm", "gaussian_pairing", "weyl_pairing:5"]
        seen = []

        class Recorded(scaling._StableShift):
            def at(self, p):
                seen.append((self, [id(a) for r in self._pairings if r is not None
                                    for a in (r, r._num, r._shift, r._den, r._quotient)]))
                return super().at(p)

        monkeypatch.setattr(scaling, "_StableShift", Recorded)
        sweep = run_parameter_sweep(model, grid, names)
        assert len(seen) == grid.size
        assert len({id(shift) for shift, _ in seen}) == 1
        assert len({tuple(ids) for _, ids in seen}) == 1
        # three pairings, each with its numerator, shift, denominator and
        # quotient; the norm has none
        assert len(seen[0][1]) == 3 * 5
        # the three share one zero-padded quotient
        shift = seen[0][0]
        assert len({id(r._quotient) for r in shift._pairings if r is not None}) == 1
        for name in names:
            alone = run_parameter_sweep(model, grid, [name])
            assert np.array_equal(sweep.quantities[name], alone.quantities[name]), name

    def test_multiplication_quantity_on_spectral_model_rejected(self):
        with pytest.raises(ValueError):
            run_parameter_sweep(single_mode(), np.array([-1.0, -0.5]), ["norm"])

    def test_quantities_read_at_non_zero_offsets(self):
        # curves [stable simple, critical size-2 Jordan, stable complex] put the
        # critical block at rows 1-2 and the second simple mode at row 3
        g = np.array([[1.0, 0.3j, -0.2, 0.1 + 0.4j],
                      [0.5, 1.2, 0.2j, -0.3],
                      [0.1j, -0.4, 0.9, 0.2],
                      [0.3, 0.1 - 0.2j, 0.6j, 1.1]])
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0, -1.0),
                    EigenvalueCurve(1, 1.0),
                    EigenvalueCurve(2, 1.0, -0.5 + 2.0j)],
            noise_matrix=g @ g.conj().T,
            jordan_sizes={1: 2},
            sigma_exponent=0.25,
        )
        grid = make_p_grid(0.0, -0.5, 6)
        names = ["critical_diagonal", "block_entry:1,2", "block_entry:2,2",
                 "entry:0,0", "entry:0,2", "entry:2,0", "entry:2,2"]
        cells = [(1, 1), (1, 2), (2, 2), (0, 0), (0, 3), (3, 0), (3, 3)]
        sweep = run_parameter_sweep(model, grid, names)
        for i, p in enumerate(grid):
            dense = finite_lyapunov_solve(assemble_drift_matrix(model, p),
                                          model.noise_matrix, model.sigma_at(p))
            for name, cell in zip(names, cells):
                assert_allclose(sweep.quantities[name][i], abs(dense[cell]), rtol=1e-10,
                                err_msg=f"{name} at p={p}")

    def test_threads_do_not_change_results(self):
        grid = make_p_grid(0.0, -0.5, 10)
        serial = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"], threads=1)
        pooled = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"], threads=4)
        assert np.array_equal(
            serial.quantities["critical_diagonal"], pooled.quantities["critical_diagonal"]
        )


class TestClassification:
    grid = staticmethod(lambda: make_p_grid(0.0, -0.5, 10))

    def test_constant_noise_diverges(self):
        sweep = run_parameter_sweep(single_mode(), self.grid(), ["critical_diagonal"])
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"))
        assert verdict.classification == "diverging"
        assert abs(verdict.fitted_exponent + 1.0) < 1e-10

    def test_balanced_noise_finite_limit(self):
        model = single_mode(sigma_exponent=0.5)  # sigma^2 = |p|
        grid = self.grid()
        sweep = run_parameter_sweep(model, grid, ["critical_diagonal"])
        xi = model.noise_limit_xi
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"), xi=xi)
        assert verdict.classification == "finite_limit"
        assert abs(verdict.fitted_exponent) < 1e-10
        assert xi == -0.5
        assert verdict.rationale.endswith("; flat series; noise limit Xi = -0.5+0j")
        # the series itself sits at b/2
        assert_allclose(sweep.quantities["critical_diagonal"], 0.5, rtol=1e-12)

    @pytest.mark.parametrize("count", [10, 26])
    def test_complex_balanced_noise_verdict_does_not_depend_on_the_grid(self, count):
        # lambda = p + i with sigma^2 = |p|: Xi is exactly 0, however close the grid gets
        model = single_mode(omega=1.0, sigma_exponent=0.5)
        sweep = run_parameter_sweep(model, make_p_grid(0.0, -0.5, count), ["critical_diagonal"])
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"),
                                        xi=model.noise_limit_xi)
        assert verdict.classification == "finite_limit"
        assert verdict.rationale.partition(" nearest p*; ")[2] == \
            "flat series; noise limit Xi = 0+0j"

    def test_flat_series_with_diverging_xi_falls_back(self):
        # sigma^2 = |p|^(1 - 2e-9) against lambda = p: the series is flat to the
        # fit, yet Xi = -|p|^(-2e-9) / 2 diverges at p*
        model = single_mode(sigma_exponent=0.5 - 1e-9)
        sweep = run_parameter_sweep(model, self.grid(), ["critical_diagonal"])
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"),
                                        xi=model.noise_limit_xi)
        assert abs(verdict.fitted_exponent) <= 0.1
        assert verdict.classification == "finite_limit"
        assert verdict.rationale.endswith(
            "; inconclusive fit, defaulting to finite_limit; noise limit Xi diverges")

    def test_fast_noise_vanishes(self):
        model = single_mode(sigma_exponent=1.0)  # sigma^2 = p^2
        sweep = run_parameter_sweep(model, self.grid(), ["critical_diagonal"])
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"))
        assert verdict.classification == "vanishing"
        assert abs(verdict.fitted_exponent - 1.0) < 1e-10

    def test_same_family_classified_by_monte_carlo(self):
        grid = np.array([-0.5, -0.25, -0.125])
        cfg = EnsembleConfig(dt=0.05, horizon=40.0, n_trajectories=400, master_seed=5)
        cases = [
            (single_mode(), "diverging"),
            (single_mode(sigma_exponent=0.5), "finite_limit"),
            (single_mode(sigma_exponent=1.0), "vanishing"),
        ]
        for model, expected in cases:
            sweep = run_parameter_sweep(model, grid, ["critical_diagonal"], config=cfg)
            verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"))
            assert verdict.classification == expected, verdict.rationale

    def test_noisy_steep_series_falls_back_with_rationale(self):
        p = -(0.5 ** np.arange(1, 9))[::-1]
        d = -p
        rng = np.random.default_rng(1)
        noisy = d**-0.6 * np.exp(rng.normal(scale=0.6, size=d.size))
        sweep = SweepResult(
            p_values=p, quantities={"critical_diagonal": noisy}, p_star=0.0,
            engine="analytic",
        )
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal", window="all"))
        if verdict.classification == "finite_limit":
            assert "inconclusive" in verdict.rationale
        else:
            assert verdict.classification == "diverging"

    def test_mid_range_exponent_is_inconclusive_finite_limit(self):
        p = -(0.5 ** np.arange(1, 9))[::-1]
        d = -p
        sweep = SweepResult(
            p_values=p, quantities={"q": d**-0.3}, p_star=0.0, engine="analytic",
        )
        verdict = classify_warning_sign(fit_quantity(sweep, "q", window="all"))
        assert verdict.classification == "finite_limit"
        assert "inconclusive" in verdict.rationale


class TestEmpiricalSweep:
    def test_values_carry_standard_errors(self):
        grid = np.array([-0.5, -0.25])
        cfg = EnsembleConfig(dt=0.05, horizon=40.0, n_trajectories=300, master_seed=3)
        sweep = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"],
                                    config=cfg)
        errs = sweep.stderrs["critical_diagonal"]
        assert errs is not None and np.all(errs > 0)
        assert sweep.engine == "empirical"
        exact = np.array([1.0, 2.0])
        assert np.all(np.abs(sweep.quantities["critical_diagonal"] - exact) < 4 * errs)

    def test_reproducible_and_thread_invariant(self):
        grid = np.array([-0.5, -0.25, -0.125])
        cfg = EnsembleConfig(dt=0.05, horizon=20.0, n_trajectories=100, master_seed=12)
        runs = [
            run_parameter_sweep(single_mode(), grid, ["critical_diagonal"],
                                config=cfg, threads=t)
            for t in (1, 1, 3)
        ]
        assert np.array_equal(runs[0].quantities["critical_diagonal"],
                              runs[1].quantities["critical_diagonal"])
        assert np.array_equal(runs[0].quantities["critical_diagonal"],
                              runs[2].quantities["critical_diagonal"])

    def test_point_seeds_are_the_seeds_each_point_ran_with(self, monkeypatch):
        seen = []

        def recorded(model, p, config, *args):
            seen.append(config.master_seed)
            return simulate(model, p, config, *args)

        simulate = scaling.simulate_ensemble
        monkeypatch.setattr(scaling, "simulate_ensemble", recorded)
        grid = np.array([-0.5, -0.25, -0.125])
        cfg = EnsembleConfig(dt=0.05, horizon=2.0, n_trajectories=4, master_seed=12)
        sweep = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"], config=cfg)
        assert sweep.point_seeds == tuple(seen) == tuple(splitmix64(12, i) for i in range(3))
        assert run_parameter_sweep(single_mode(), grid, ["critical_diagonal"]).point_seeds == ()

    def test_large_ensemble_fit_recovers_inverse_law(self):
        grid = np.array([-1.0, -0.5, -0.25, -0.125])
        cfg = EnsembleConfig(dt=0.05, horizon=50.0, n_trajectories=10_000,
                             master_seed=20260813)
        sweep = run_parameter_sweep(single_mode(), grid, ["critical_diagonal"],
                                    config=cfg)
        fit = fit_quantity(sweep, "critical_diagonal", window="all")
        assert abs(fit.exponent + 1.0) < 0.05

    def test_multiplication_model_rejects_ensemble_config(self):
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        cfg = EnsembleConfig(dt=0.05, horizon=20.0, n_trajectories=100, master_seed=12)
        with pytest.raises(ValueError, match="only available for spectral models"):
            run_parameter_sweep(model, np.array([-1.0, -0.5]), ["norm"], config=cfg)


class TestWeylProbe:
    def test_flat_symbol_pairing_is_exact(self):
        flat = MultiplicationSymbolModel.from_function(
            lambda x: np.zeros_like(np.asarray(x, float)), lo=-2.0, hi=2.0, spacing=1e-3
        )
        grid = make_p_grid(0.0, -0.5, 8)
        probe = run_parameter_sweep(flat, grid, ["weyl_pairing:2", "weyl_pairing:5"])
        for k in (2, 5):
            series = probe.quantities[f"weyl_pairing:{k}"]
            assert_allclose(series, 1.0 / (2.0 * np.abs(grid)), rtol=1e-12)
            fit = fit_quantity(probe, f"weyl_pairing:{k}")
            assert abs(fit.exponent + 1.0) < 1e-10

    def test_quadratic_symbol_series_increases_toward_threshold(self):
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        grid = make_p_grid(0.0, -0.0625, 12)
        probe = run_parameter_sweep(model, grid, ["weyl_pairing:5"])
        series = probe.quantities["weyl_pairing:5"]
        assert np.all(np.diff(series) > 0)

    def test_pairing_far_from_threshold_matches_flat_limit(self):
        # far below p* the bump sees an almost constant symbol
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        grid = np.array([-100.0, -10.0])
        probe = run_parameter_sweep(model, grid, ["weyl_pairing:5"])
        series = probe.quantities["weyl_pairing:5"]
        assert_allclose(series, 1.0 / (2.0 * np.abs(grid)), rtol=0.1)

    def test_repeated_k_rejected(self):
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        with pytest.raises(ValueError, match="named twice"):
            run_parameter_sweep(model, make_p_grid(0.0, -0.5, 4),
                                ["weyl_pairing:2", "weyl_pairing:5", "weyl_pairing:2"])

    def test_empty_k_values_rejected(self):
        model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        with pytest.raises(ValueError, match="at least one quantity"):
            run_parameter_sweep(model, make_p_grid(0.0, -0.5, 4), [])


class TestSweepResultAndCsv:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SweepResult(
                p_values=np.array([-1.0, -0.5]),
                quantities={"q": np.array([1.0])},
                p_star=0.0,
                engine="analytic",
            )
