import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose

from warnlab import (
    EigenvalueCurve,
    MultiplicationSymbolModel,
    NumericalError,
    SpectralModel,
    model_covariance,
    run_parameter_sweep,
)
from oracles import (
    assemble_drift_matrix,
    finite_lyapunov_solve,
    jordan_stationary_covariance,
    stationary_covariance_entry,
)


def random_hermitian_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n


def dense_oracle(a, c, sigma):
    """Independent route: Bartels-Stewart solve of A V + V A^H = -sigma^2 C."""
    return scipy.linalg.solve_continuous_lyapunov(a, -sigma**2 * np.asarray(c, complex))


class TestEntryFormula:
    def test_frozen_equal_pair(self):
        v = stationary_covariance_entry(-0.5 + 2j, -0.5 + 2j, 1.0, 1.0)
        assert_allclose(v, 1.0, atol=1e-14)

    def test_frozen_cross_pair(self):
        v = stationary_covariance_entry(-1 + 1j, -2 - 3j, 1.0, 1.0)
        assert_allclose(v, 0.12 + 0.16j, atol=1e-14)

    def test_quadrature_oracle(self):
        # V_kj = sigma^2 b int_0^inf exp(lam_k t) conj(exp(lam_j t)) dt
        rng = np.random.default_rng(3)
        for _ in range(20):
            lk = complex(rng.uniform(-2, -0.2), rng.uniform(-3, 3))
            lj = complex(rng.uniform(-2, -0.2), rng.uniform(-3, 3))
            b = complex(rng.normal(), rng.normal())
            sigma = rng.uniform(0.3, 1.5)

            def kernel(t):
                return np.exp(lk * t) * np.conj(np.exp(lj * t))

            re, _ = scipy.integrate.quad(lambda t: kernel(t).real, 0, np.inf)
            im, _ = scipy.integrate.quad(lambda t: kernel(t).imag, 0, np.inf)
            expected = sigma**2 * b * complex(re, im)
            got = stationary_covariance_entry(lk, lj, b, sigma)
            assert_allclose(got, expected, atol=1e-10)

    def test_zero_noise_entry_is_zero(self):
        assert stationary_covariance_entry(-1 + 1j, -2 - 3j, 0.0, 1.0) == 0.0

    def test_unstable_mode_signals(self):
        with pytest.raises(NumericalError):
            stationary_covariance_entry(0.1, -1.0, 1.0, 1.0)


class TestJordanCovariance:
    def test_frozen_size_one_is_scalar_ou(self):
        v = jordan_stationary_covariance(-1.0, 1, np.array([[1.0]]), 1.0)
        assert_allclose(v, [[0.5]], atol=1e-15)

    def test_frozen_size_two(self):
        v = jordan_stationary_covariance(-1.0, 2, np.eye(2), 1.0)
        assert_allclose(v, [[0.75, 0.25], [0.25, 0.5]], atol=1e-14)

    def test_time_integral_oracle_size_two(self):
        j = np.array([[-1.0, 1.0], [0.0, -1.0]])

        def integrand(t):
            e = scipy.linalg.expm(j * t)
            return e @ e.conj().T

        v_num, _ = scipy.integrate.quad_vec(integrand, 0.0, 40.0)
        v = jordan_stationary_covariance(-1.0, 2, np.eye(2), 1.0)
        assert_allclose(v, v_num, atol=1e-9)

    def test_dense_oracle_random_blocks(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            lam = complex(rng.uniform(-2, -0.5), rng.uniform(-2, 2))
            c = random_hermitian_psd(rng, m)
            sigma = rng.uniform(0.5, 1.5)
            a = lam * np.eye(m) + np.diag(np.ones(m - 1), 1)
            v = jordan_stationary_covariance(lam, m, c, sigma)
            assert_allclose(v, dense_oracle(a, c, sigma), atol=1e-10)
            residual = a @ v + v @ a.conj().T + sigma**2 * c
            assert np.max(np.abs(residual)) < 1e-9

    def test_diagonal_growth_orders(self):
        # at lam = -1/s the three distinct entries grow like s, s^2, s^3
        for s in (8.0, 32.0):
            v = jordan_stationary_covariance(-1.0 / s, 2, np.eye(2), 1.0)
            assert_allclose(v[1, 1], s / 2.0, rtol=1e-12)
            assert_allclose(v[0, 1], s**2 / 4.0, rtol=1e-12)
            assert_allclose(v[0, 0], s / 2.0 + s**3 / 4.0, rtol=1e-12)

    def test_unstable_signals(self):
        with pytest.raises(NumericalError):
            jordan_stationary_covariance(0.0, 2, np.eye(2), 1.0)


class TestFiniteSolve:
    def test_frozen_scalar_and_diagonal(self):
        v1 = finite_lyapunov_solve(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
        assert_allclose(v1, [[0.5]], atol=1e-14)
        v2 = finite_lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2), 1.0)
        assert_allclose(v2, np.diag([0.5, 0.25]), atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = g - (np.max(np.linalg.eigvals(g).real) + 1.0) * np.eye(n)
            c = random_hermitian_psd(rng, n)
            sigma = rng.uniform(0.5, 1.5)
            v = finite_lyapunov_solve(a, c, sigma)
            assert_allclose(v, dense_oracle(a, c, sigma), atol=1e-10)
            residual = a @ v + v @ a.conj().T + sigma**2 * c
            assert np.max(np.abs(residual)) < 1e-9

    def test_unstable_drift_signals(self):
        with pytest.raises(NumericalError, match="stab"):
            finite_lyapunov_solve(np.array([[0.5]]), np.array([[1.0]]), 1.0)


class TestMultiplicationForms:
    """The multiplication model's closed forms, read through the analytic
    sweep at a single grid point."""

    def setup_method(self):
        self.model = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))

    @staticmethod
    def at(model, p, quantity, **kwargs):
        return run_parameter_sweep(model, [p], [quantity], **kwargs).quantities[quantity][0]

    def test_norm_exact_value(self):
        assert self.at(self.model, -0.01, "norm") == pytest.approx(50.0, abs=1e-12)
        assert self.at(self.model, -0.1, "norm") == pytest.approx(5.0, abs=1e-13)

    def test_norm_flat_symbol_frozen(self):
        flat = MultiplicationSymbolModel.from_function(
            lambda x: np.zeros_like(np.asarray(x, float)), lo=-1.0, hi=1.0, spacing=1e-2
        )
        assert self.at(flat, -0.25, "norm") == pytest.approx(2.0, abs=1e-14)

    def test_norm_ratio_law_is_exact(self):
        # esssup attained at a grid point, so the norm is exactly 1/(2|p|)
        ratio = self.at(self.model, -0.01, "norm") / self.at(self.model, -0.1, "norm")
        assert ratio == pytest.approx(10.0, rel=1e-12)

    def test_norm_unstable_signals(self):
        # p = -0.5 lies above p* = -1: the sweep, which reads p* from the
        # model, refuses the grid before its first point
        bumped = MultiplicationSymbolModel.from_function(lambda x: 1.0 - np.square(x))
        with pytest.raises(NumericalError, match="reaches p\\* = -1.0"):
            self.at(bumped, -0.5, "norm")

    def test_gaussian_pairing_quadrature_oracle(self):
        p = -0.1
        got = self.at(self.model, p, "gaussian_pairing")
        num, _ = scipy.integrate.quad(lambda x: np.exp(-x * x) / (4.0 * (p - x * x) ** 2), -10, 10)
        den, _ = scipy.integrate.quad(lambda x: np.exp(-x * x), -10, 10)
        assert_allclose(got, num / den, rtol=1e-5)

    def test_gaussian_pairing_oracle_away_from_threshold(self):
        p = -1.0
        got = self.at(self.model, p, "gaussian_pairing")
        num, _ = scipy.integrate.quad(lambda x: np.exp(-x * x) / (4.0 * (1.0 + x * x) ** 2), -10, 10)
        den, _ = scipy.integrate.quad(lambda x: np.exp(-x * x), -10, 10)
        assert_allclose(got, num / den, rtol=1e-6)

    def test_pairing_flat_symbol_unit_profile(self):
        flat = MultiplicationSymbolModel.from_function(
            lambda x: np.zeros_like(np.asarray(x, float)), lo=-3.0, hi=3.0, spacing=1e-3
        )
        assert_allclose(self.at(flat, -0.5, "gaussian_pairing"), 1.0, rtol=1e-12)

    def test_pairing_monotone_toward_threshold(self):
        # h charges the argmax of f, so the form must climb as p increases to p*
        ps = [-2.0, -1.0, -0.5, -0.25, -0.125, -0.0625, -0.03125]
        vals = [self.at(self.model, p, "gaussian_pairing") for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_stationary_pairing_flat_symbol_is_exact(self):
        flat = MultiplicationSymbolModel.from_function(
            lambda x: np.zeros_like(np.asarray(x, float)), lo=-2.0, hi=2.0, spacing=1e-3
        )
        for p in (-0.5, -0.03125, -1e-4):
            assert_allclose(self.at(flat, p, "weyl_pairing:3"), 1.0 / (2.0 * abs(p)),
                            rtol=1e-12)


class TestAnalyticReport:
    def test_simple_modes_match_dense_solve(self):
        rng = np.random.default_rng(21)
        noise = random_hermitian_psd(rng, 2)
        model = SpectralModel(
            curves=[
                EigenvalueCurve(0, 1.0),
                EigenvalueCurve(1, 0.0, -1.0 + 2.0j),
            ],
            noise_matrix=noise,
            sigma=0.8,
        )
        p = -0.3
        got = model_covariance(model, p, math.inf)
        a = assemble_drift_matrix(model, p)
        dense = finite_lyapunov_solve(a, noise, 0.8)
        assert_allclose(got, dense, atol=1e-12)

    def test_jordan_model_report(self):
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=np.eye(2),
            jordan_sizes={0: 2},
        )
        got = model_covariance(model, -1.0, math.inf)
        assert_allclose(got, [[0.75, 0.25], [0.25, 0.5]], atol=1e-12)
        assert float(np.max(got.diagonal().real)) == pytest.approx(0.75)

    def test_jordan_block_coupled_by_dense_noise_matches_dense_solve(self):
        rng = np.random.default_rng(34)
        noise = random_hermitian_psd(rng, 7)
        model = SpectralModel(
            curves=[
                EigenvalueCurve(0, 1.0, 0.5j),
                EigenvalueCurve(1, 0.0, -1.0 + 2.0j),
                EigenvalueCurve(2, 1.0, -0.3),
                EigenvalueCurve(3, 0.0, -2.0 - 1.0j),
            ],
            noise_matrix=noise,
            jordan_sizes={0: 3, 2: 2},
            sigma=0.7,
        )
        off = model.block_offset(2)
        for p in (-0.5, -0.05):
            got = model_covariance(model, p, math.inf)
            dense = finite_lyapunov_solve(assemble_drift_matrix(model, p), noise, 0.7)
            assert np.linalg.norm(got - dense) <= 1e-10 * np.linalg.norm(dense)
            assert_allclose(got[off : off + 2, off : off + 2], dense[4:6, 4:6], rtol=1e-10)

    def test_underflowing_power_signals_overflow(self):
        # (-z)^3 underflows to 0 at z = -2^-398, so 2! / (-z)^3 overflows
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=np.eye(2),
            jordan_sizes={0: 2},
        )
        with pytest.raises(NumericalError, match=r"1 / \(-z\) \*\* 3 overflows"):
            model_covariance(model, -2.0 ** -399, math.inf)

    def test_unstable_point_signals(self):
        model = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0)],
            noise_matrix=np.array([[1.0]]),
        )
        with pytest.raises(NumericalError):
            model_covariance(model, 0.5, math.inf)
