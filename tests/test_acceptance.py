"""Acceptance gate: ten end-to-end checks at stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one [PASS]/[FAIL]
line per criterion. The Monte Carlo consistency check (criterion 7) is the
slow one; it is budgeted at five minutes and typically finishes well under.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose

from warnlab import (
    EigenvalueCurve,
    EnsembleConfig,
    MultiplicationSymbolModel,
    SpectralModel,
    bifurcation_parameter,
    build_weyl_sequence,
    classify_warning_sign,
    fit_quantity,
    make_p_grid,
    run_parameter_sweep,
    simulate_ensemble,
    weyl_defect,
)
from warnlab.cli import main as cli_main
from oracles import (
    finite_lyapunov_solve,
    jordan_stationary_covariance,
    resolvent_bound_check,
    stationary_covariance_entry,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MASTER_SEED = 20260813


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def single_mode(sigma=1.0, noise=1.0, omega=0.0, sigma_exponent=0.0):
    return SpectralModel(
        curves=[EigenvalueCurve(0, 1.0, 1j * omega)],
        noise_matrix=np.array([[noise]]),
        critical_index=0,
        sigma=sigma,
        sigma_exponent=sigma_exponent,
    )


def jordan_mode():
    return SpectralModel(
        curves=[EigenvalueCurve(0, 1.0)],
        noise_matrix=np.eye(2),
        critical_index=0,
        jordan_sizes={0: 2},
    )


def test_criterion_1_single_mode_scaling():
    with criterion(1, "critical diagonal fits exponent -1 and prefactor "
                      "sigma^2 b / 2, both within 1e-10"):
        for sigma, b in [(1.0, 1.0), (0.7, 2.0)]:
            model = single_mode(sigma=sigma, noise=b)
            p_star = bifurcation_parameter(model)
            assert abs(p_star) <= 1e-10
            grid = make_p_grid(p_star, p_star - 0.5, 10)
            sweep = run_parameter_sweep(model, grid, ["critical_diagonal"])
            fit = fit_quantity(sweep, "critical_diagonal", window="all")
            assert abs(fit.exponent - (-1.0)) <= 1e-10
            assert abs(np.exp(fit.log_prefactor) - sigma**2 * b / 2.0) <= 1e-10


def test_criterion_2_imaginary_parts_do_not_move_exponent():
    with criterion(2, "rotating eigenvalues (omega = 1, 10) shift the fitted "
                      "exponent by at most 1e-10"):
        grid = make_p_grid(0.0, -0.5, 10)
        base = fit_quantity(
            run_parameter_sweep(single_mode(), grid, ["critical_diagonal"]),
            "critical_diagonal", window="all",
        ).exponent
        for omega in (1.0, 10.0):
            model = single_mode(omega=omega)
            assert bifurcation_parameter(model) == 0.0
            rotated = fit_quantity(
                run_parameter_sweep(model, grid, ["critical_diagonal"]),
                "critical_diagonal", window="all",
            ).exponent
            assert abs(rotated - base) <= 1e-10


def test_criterion_3_jordan_block_entries_and_exponents():
    with criterion(3, "size-2 Jordan block matches the dense solve at lambda = -1 "
                      "and yields exponent multiset {-1, -2, -3} within 0.05"):
        frozen = np.array([[0.75, 0.25], [0.25, 0.5]])
        closed = jordan_stationary_covariance(-1.0, 2, np.eye(2), 1.0)
        assert_allclose(closed, frozen, atol=1e-10)
        a = -np.eye(2) + np.diag([1.0], 1)
        dense = finite_lyapunov_solve(a, np.eye(2), 1.0)
        assert_allclose(closed, dense, atol=1e-10)

        grid = make_p_grid(0.0, -1.0, 7)  # lambda in {-1, ..., -2^-6}
        sweep = run_parameter_sweep(
            jordan_mode(), grid,
            ["block_entry:1,1", "block_entry:1,2", "block_entry:2,2"],
        )
        exponents = sorted(
            fit_quantity(sweep, q).exponent
            for q in ("block_entry:1,1", "block_entry:1,2", "block_entry:2,2")
        )
        assert_allclose(exponents, [-3.0, -2.0, -1.0], atol=0.05)


def test_criterion_4_degenerate_noise_classifications():
    with criterion(4, "sigma^2 = |p| gives finite_limit with entry b/2 (1e-8) and "
                      "Xi = -0.5 (1e-10); sigma^2 = p^2 gives vanishing"):
        grid = make_p_grid(0.0, -0.5, 12)
        for b in (1.0, 2.0):
            balanced = single_mode(sigma_exponent=0.5, noise=b)
            sweep = run_parameter_sweep(balanced, grid, ["critical_diagonal"])
            xi = balanced.noise_limit_xi
            verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"), xi=xi)
            assert verdict.classification == "finite_limit", verdict.rationale
            assert abs(sweep.quantities["critical_diagonal"][-1] - b / 2.0) <= 1e-8
            assert abs(xi - (-0.5)) <= 1e-10

        fast = single_mode(sigma_exponent=1.0)
        sweep = run_parameter_sweep(fast, grid, ["critical_diagonal"])
        verdict = classify_warning_sign(fit_quantity(sweep, "critical_diagonal"))
        assert verdict.classification == "vanishing", verdict.rationale


def test_criterion_5_continuum_norm_and_gaussian_pairing():
    with criterion(5, "f = -x^2: norm surrogate exponent -1 within 1e-6, Gaussian "
                      "pairing exponent -1.5 within 0.05 on p in [-1e-1, -1e-4]"):
        model = MultiplicationSymbolModel.from_function(
            lambda x: -np.square(x), lo=-10.0, hi=10.0, spacing=1e-3
        )
        p_star = bifurcation_parameter(model)
        assert p_star == 0.0
        grid = make_p_grid(p_star, -1e-1, 10, stop=-1e-4)
        sweep = run_parameter_sweep(model, grid, ["norm", "gaussian_pairing"])
        norm_fit = fit_quantity(sweep, "norm", window="all")
        assert abs(norm_fit.exponent - (-1.0)) <= 1e-6
        gauss_fit = fit_quantity(sweep, "gaussian_pairing")
        assert abs(gauss_fit.exponent - (-1.5)) <= 0.05


def test_criterion_6_weyl_probe_divergence():
    with criterion(6, "Weyl vectors k = 2, 5, 10: diverging pairing with exponent "
                      "-1 +/- 0.05 on points inside |p| < 1/(4 k^2), defect <= 1/k^2"):
        model = MultiplicationSymbolModel.from_function(
            lambda x: -np.square(x), lo=-10.0, hi=10.0, spacing=1e-3
        )
        grid = make_p_grid(0.0, -(2.0**-4), 26)
        ks = (2, 5, 10)
        probe = run_parameter_sweep(model, grid, [f"weyl_pairing:{k}" for k in ks])
        for k in ks:
            name = f"weyl_pairing:{k}"
            fit = fit_quantity(probe, name)
            fitted_p = probe.p_values[list(fit.window)]
            assert np.all(np.abs(fitted_p) < 1.0 / (4.0 * k**2))
            assert abs(fit.exponent - (-1.0)) <= 0.05
            verdict = classify_warning_sign(fit)
            assert verdict.classification == "diverging", verdict.rationale
            vector = build_weyl_sequence(model, k, float(model.argmax_points[0]))
            assert weyl_defect(model, vector, model.esssup) <= 1.0 / k**2


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "empirical engine (N = 1e4, T = 50, exact steps) matches "
                      "closed forms within 3 standard errors on >= 95% of entries"):
        start = time.perf_counter()
        config = EnsembleConfig(
            dt=0.05, horizon=50.0, n_trajectories=10_000, master_seed=MASTER_SEED
        )
        # mixing-feasible points: T * |p| >= 6 relaxation times
        p_points = [-1.0, -0.5, -0.25, -0.125]
        hits = total = 0

        model = single_mode()
        for p in p_points:
            est = simulate_ensemble(model, p, config)
            assert not est.mixing_warning
            exact = 1.0 / (2.0 * abs(p))
            total += 1
            hits += abs(est.matrix[0, 0] - exact) <= 3.0 * est.standard_error[0, 0]

        jmodel = jordan_mode()
        for p in p_points:
            est = simulate_ensemble(jmodel, p, config)
            exact = jordan_stationary_covariance(p, 2, np.eye(2), 1.0)
            err = np.abs(est.matrix - exact)
            gate = err <= 3.0 * est.standard_error
            total += gate.size
            hits += int(np.count_nonzero(gate))

        elapsed = time.perf_counter() - start
        fraction = hits / total
        print(f"    consistency {hits}/{total} entries within 3 SE "
              f"({fraction:.1%}), {elapsed:.1f} s")
        assert fraction >= 0.95
        assert elapsed <= 300.0


def test_criterion_8_oracle_suite_random_models():
    with criterion(8, "200 random stable models: closed forms match the dense "
                      "solve to 1e-10 with Lyapunov residual < 1e-9"):
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(100):  # diagonalizable models
            n = int(rng.integers(1, 6))
            lams = rng.uniform(-2.0, -0.2, n) + 1j * rng.uniform(-3.0, 3.0, n)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            noise = g @ g.conj().T / n
            sigma = rng.uniform(0.5, 1.5)
            closed = np.array(
                [[stationary_covariance_entry(lams[k], lams[j], noise[k, j], sigma)
                  for j in range(n)] for k in range(n)]
            )
            a = np.diag(lams)
            dense = finite_lyapunov_solve(a, noise, sigma)
            assert np.max(np.abs(closed - dense)) < 1e-10
            residual = a @ closed + closed @ a.conj().T + sigma**2 * noise
            assert np.max(np.abs(residual)) < 1e-9

        for _ in range(100):  # Jordan blocks, m <= 4
            m = int(rng.integers(2, 5))
            lam = complex(rng.uniform(-2.0, -0.5), rng.uniform(-2.0, 2.0))
            g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            noise = g @ g.conj().T / m
            sigma = rng.uniform(0.5, 1.5)
            closed = jordan_stationary_covariance(lam, m, noise, sigma)
            a = lam * np.eye(m) + np.diag(np.ones(m - 1), 1)
            dense = finite_lyapunov_solve(a, noise, sigma)
            assert np.max(np.abs(closed - dense)) < 1e-10
            residual = a @ closed + closed @ a.conj().T + sigma**2 * noise
            assert np.max(np.abs(residual)) < 1e-9


def test_criterion_9_resolvent_bound_property():
    with criterion(9, "1000 random stable matrices with imaginary-axis points: "
                      "resolvent bound check always true"):
        rng = np.random.default_rng(MASTER_SEED + 1)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            shift = np.max(np.linalg.eigvals(g).real) + rng.uniform(0.05, 2.0)
            a = g - shift * np.eye(n)
            z = 1j * rng.uniform(-10.0, 10.0)
            assert resolvent_bound_check(a, z) is True


def test_criterion_10_deterministic_cli_runs(tmp_path):
    with criterion(10, "same master seed gives byte-identical CSVs; thread counts "
                       "1 and 4 agree numerically"):
        cfg = CONFIG_DIR / "single_mode_mc.json"
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out, threads in zip(outs, (1, 1, 4)):
            rc = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                           "--threads", str(threads)])
            assert rc == 0
        csv_name = "sweep_critical_diagonal.csv"
        run_a = (outs[0] / csv_name).read_bytes()
        assert run_a == (outs[1] / csv_name).read_bytes()
        assert run_a == (outs[2] / csv_name).read_bytes()
        rep_a = json.loads((outs[0] / "report.json").read_text())
        rep_c = json.loads((outs[2] / "report.json").read_text())
        assert rep_a["results"] == rep_c["results"]
