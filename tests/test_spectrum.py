import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from warnlab import (
    EigenvalueCurve,
    MultiplicationSymbolModel,
    NumericalError,
    SpectralModel,
    bifurcation_parameter,
    build_weyl_sequence,
    curve_continuity_violations,
    resolvent_bound_check,
    spectral_abscissa,
    weyl_defect,
)


def single_mode(slope=1.0, offset=0.0):
    return SpectralModel(
        curves=[EigenvalueCurve(0, lambda p: offset + slope * p)],
        noise_matrix=np.array([[1.0]]),
        critical_index=0,
    )


class TestModelValidation:
    def test_curve_rejects_negative_id(self):
        with pytest.raises(ValueError):
            EigenvalueCurve(-1, lambda p: p)

    def test_curve_rejects_non_callable(self):
        with pytest.raises(ValueError):
            EigenvalueCurve(0, 3.0)

    def test_duplicate_curve_ids(self):
        with pytest.raises(ValueError, match="id"):
            SpectralModel(
                curves=[EigenvalueCurve(0, lambda p: p), EigenvalueCurve(0, lambda p: p - 1)],
                noise_matrix=np.eye(2),
                critical_index=0,
            )

    def test_missing_critical_index(self):
        with pytest.raises(ValueError, match="critical"):
            SpectralModel(
                curves=[EigenvalueCurve(0, lambda p: p)],
                noise_matrix=np.eye(1),
                critical_index=3,
            )

    def test_noise_dimension_must_match_blocks(self):
        with pytest.raises(ValueError):
            SpectralModel(
                curves=[EigenvalueCurve(0, lambda p: p)],
                noise_matrix=np.eye(3),
                critical_index=0,
                jordan_sizes={0: 2},
            )

    def test_noise_must_be_hermitian(self):
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            SpectralModel(
                curves=[EigenvalueCurve(0, lambda p: p), EigenvalueCurve(1, lambda p: p - 1)],
                noise_matrix=np.array([[1.0, 1.0], [0.0, 1.0]]),
                critical_index=0,
            )

    def test_noise_must_be_psd(self):
        with pytest.raises(ValueError):
            SpectralModel(
                curves=[EigenvalueCurve(0, lambda p: p), EigenvalueCurve(1, lambda p: p - 1)],
                noise_matrix=np.array([[1.0, 2.0], [2.0, 1.0]]),
                critical_index=0,
            )

    def test_noise_matrix_read_only(self):
        m = single_mode()
        with pytest.raises(ValueError):
            m.noise_matrix[0, 0] = 5.0

    def test_multiplication_grid_must_increase(self):
        with pytest.raises(ValueError):
            MultiplicationSymbolModel.from_table([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_from_function_hits_exact_zero(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        i0 = np.searchsorted(m.grid, 0.0)
        assert m.grid[i0] == 0.0
        assert m.esssup == 0.0
        assert_allclose(m.values, -np.square(m.grid))

    @pytest.mark.parametrize("symbol", [
        math.cos,                                # TypeError on arrays
        lambda x: -x * x if x > 0 else 0.0,      # ValueError: ambiguous truth value
        lambda x: -1.0,                          # scalar for the whole grid
    ])
    def test_from_function_falls_back_to_scalar_symbols(self, symbol):
        m = MultiplicationSymbolModel.from_function(symbol, lo=-1.0, hi=1.0, spacing=0.25)
        assert_allclose(m.values, [symbol(float(x)) for x in m.grid])

    def test_from_function_propagates_symbol_bugs(self):
        calls = []

        def symbol(x):
            calls.append(x)
            if isinstance(x, np.ndarray):
                raise RuntimeError("bug in vectorized symbol")
            return -x * x

        with pytest.raises(RuntimeError, match="bug in vectorized symbol"):
            MultiplicationSymbolModel.from_function(symbol, lo=-1.0, hi=1.0, spacing=0.25)
        assert len(calls) == 1

    def test_esssup_is_grid_max(self):
        m = MultiplicationSymbolModel.from_function(np.sin, lo=-3.0, hi=3.0, spacing=1e-3)
        assert m.esssup == np.max(m.values)
        assert m.argmax_points.size >= 1


class TestAbscissaAndBifurcation:
    def test_abscissa_takes_max_real_part(self):
        m = SpectralModel(
            curves=[
                EigenvalueCurve(0, lambda p: p),
                EigenvalueCurve(1, lambda p: -1.0 + 2.0j),
            ],
            noise_matrix=np.eye(2),
            critical_index=0,
        )
        assert spectral_abscissa(m, -0.3) == -0.3
        assert spectral_abscissa(m, -2.0) == -1.0

    def test_abscissa_multiplication_model(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        assert spectral_abscissa(m, -0.3) == -0.3
        shifted = MultiplicationSymbolModel.from_function(
            lambda x: 1.0 - np.square(x), lo=-2.0, hi=2.0, spacing=1e-2
        )
        assert spectral_abscissa(shifted, -0.25) == 0.75

    def test_identity_curve_root_is_exact_zero(self):
        assert bifurcation_parameter(single_mode()) == 0.0

    def test_shifted_curve_root(self):
        p_star = bifurcation_parameter(single_mode(offset=2.0))
        assert abs(p_star - (-2.0)) < 1e-12

    def test_nonlinear_curve_root(self):
        m = SpectralModel(
            curves=[EigenvalueCurve(0, lambda p: p**3 - 1.0)],
            noise_matrix=np.array([[1.0]]),
            critical_index=0,
        )
        p_star = bifurcation_parameter(m)
        assert abs(p_star - 1.0) < 1e-12

    def test_imaginary_offset_does_not_move_root(self):
        m = SpectralModel(
            curves=[EigenvalueCurve(0, lambda p: p + 10.0j)],
            noise_matrix=np.array([[1.0]]),
            critical_index=0,
        )
        assert bifurcation_parameter(m) == 0.0

    def test_no_sign_change_signals(self):
        m = SpectralModel(
            curves=[EigenvalueCurve(0, lambda p: -1.0)],
            noise_matrix=np.array([[1.0]]),
            critical_index=0,
        )
        with pytest.raises(NumericalError, match="sign change"):
            bifurcation_parameter(m)

    def test_multiplication_threshold_is_negated_esssup(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        assert bifurcation_parameter(m) == 0.0
        shifted = MultiplicationSymbolModel.from_function(lambda x: 3.0 - np.square(x))
        assert bifurcation_parameter(shifted) == -3.0

    def test_constant_symbol_threshold(self):
        m = MultiplicationSymbolModel.from_function(
            lambda x: np.full_like(np.asarray(x, float), -3.0), lo=-1.0, hi=1.0, spacing=1e-2
        )
        assert bifurcation_parameter(m) == 3.0

    def test_random_affine_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(-5.0, 5.0)
            m = single_mode(slope=a, offset=b)
            p_star = bifurcation_parameter(m)
            assert abs(a * p_star + b) < 1e-10


class TestWeylVectors:
    def test_normalization(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        for k in (2, 5, 10):
            u = build_weyl_sequence(m, k, 0.0)
            assert_allclose(np.sum(m.weights * u.coefficients**2), 1.0, rtol=1e-12)
            assert u.width_index == k

    def test_support_shrinks_with_k(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        s2 = np.count_nonzero(build_weyl_sequence(m, 2, 0.0).coefficients)
        s10 = np.count_nonzero(build_weyl_sequence(m, 10, 0.0).coefficients)
        assert s10 < s2

    def test_too_narrow_support_signals(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        with pytest.raises(NumericalError, match="support"):
            build_weyl_sequence(m, 10**6, 0.0)

    def test_constant_symbol_defect_is_zero(self):
        m = MultiplicationSymbolModel.from_function(
            lambda x: np.full_like(np.asarray(x, float), 1.5), lo=-1.0, hi=1.0, spacing=1e-2
        )
        u = build_weyl_sequence(m, 3, 0.0)
        assert weyl_defect(m, u, m.esssup) == 0.0

    def test_defect_bounded_and_decreasing(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        defects = []
        for k in (2, 5, 10):
            u = build_weyl_sequence(m, k, 0.0)
            d = weyl_defect(m, u, m.esssup)
            assert d <= 1.0 / k**2
            defects.append(d)
        assert defects[0] > defects[1] > defects[2]

    def test_coefficients_read_only(self):
        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        u = build_weyl_sequence(m, 2, 0.0)
        with pytest.raises(ValueError):
            u.coefficients[0] = 1.0


class TestResolventBound:
    def test_normal_matrix_attains_bound(self):
        a = np.diag([-1.0, -2.0])
        assert resolvent_bound_check(a, 0.0) is True

    def test_jordan_block_exceeds_bound(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        assert resolvent_bound_check(a, -1.0 + 1e-3j) is True
        # smallest singular value of (A - z) is far below dist for a defective pair
        dist = 1e-3
        smin = np.linalg.svd(a - (-1.0 + 1e-3j) * np.eye(2), compute_uv=False)[-1]
        assert 1.0 / smin > 10.0 / dist

    def test_eigenvalue_input_signals(self):
        with pytest.raises(NumericalError, match="eigenvalue"):
            resolvent_bound_check(np.diag([-1.0, -2.0]), -1.0)

    def test_random_stable_matrices_satisfy_bound(self):
        # stable spectrum, probe points in the closed right half plane
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = rng.integers(1, 6)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            shift = np.max(np.linalg.eigvals(g).real) + rng.uniform(0.1, 2.0)
            a = g - shift * np.eye(n)
            z = complex(rng.uniform(0.0, 3.0), rng.normal(scale=3.0))
            assert resolvent_bound_check(a, z) is True


class TestCurveContinuity:
    def test_smooth_curves_pass(self):
        m = SpectralModel(
            curves=[EigenvalueCurve(0, lambda p: p), EigenvalueCurve(1, lambda p: -1 + 2j * p)],
            noise_matrix=np.eye(2),
            critical_index=0,
        )
        grid = np.linspace(-2.0, -0.1, 50)
        assert curve_continuity_violations(m, grid) == []

    def test_jump_is_reported_with_curve_id(self):
        m = SpectralModel(
            curves=[
                EigenvalueCurve(0, lambda p: p),
                EigenvalueCurve(1, lambda p: -1.0 if p < -1.0 else -50.0),
            ],
            noise_matrix=np.eye(2),
            critical_index=0,
        )
        grid = np.linspace(-2.0, -0.5, 16)
        violations = curve_continuity_violations(m, grid, lipschitz_budget=10.0)
        assert violations
        assert all(v[0] == 1 for v in violations)


def two_curve_model(second=lambda p: -1.0 + 0.5j * p):
    # a size-2 Jordan block on curve 3, then simple curve 1: ids out of order
    return SpectralModel(
        curves=[EigenvalueCurve(3, lambda p: complex(p, 0.25)), EigenvalueCurve(1, second)],
        noise_matrix=np.eye(3),
        critical_index=3,
        jordan_sizes={3: 2},
    )


class TestModes:
    def test_entries_match_the_per_curve_accessors(self):
        m = two_curve_model()
        modes = m.modes(-0.3)
        assert [k for k, _, _, _ in modes] == [3, 1]
        for k, lam, size, rows in modes:
            assert lam == m.lambda_at(k, -0.3)
            assert size == m.block_size(k)
            assert rows == slice(m.block_offset(k), m.block_offset(k) + size)
        assert modes[-1][3].stop == m.total_dim

    def test_failing_curve_raises_the_same_error_everywhere(self):
        from warnlab.lyapunov import model_covariance

        def undefined(p):
            raise ArithmeticError("no value")

        m = two_curve_model(undefined)
        messages = set()
        for evaluate in (m.modes, lambda p: spectral_abscissa(m, p),
                         lambda p: model_covariance(m, p, math.inf)):
            with pytest.raises(NumericalError) as info:
                evaluate(-0.3)
            messages.add(str(info.value))
        assert messages == {"curve 1 undefined at p=-0.3: no value"}

    def test_continuity_violations_stay_curve_major(self):
        # both curves jump between the same grid points; curve 3 is reported first
        m = SpectralModel(
            curves=[EigenvalueCurve(3, lambda p: p if p < -1.0 else p + 40.0),
                    EigenvalueCurve(1, lambda p: -1.0 if p < -1.0 else -50.0)],
            noise_matrix=np.eye(3), critical_index=3, jordan_sizes={3: 2},
        )
        grid = np.array([-2.0, -1.5, -0.5, -0.25])
        assert curve_continuity_violations(m, grid, lipschitz_budget=10.0) == [
            (3, -1.5, -0.5, 41.0), (1, -1.5, -0.5, 49.0)]

    def test_unknown_curve_id(self):
        with pytest.raises(ValueError, match="no curve with id 2"):
            two_curve_model().curve(2)


class TestWeylSupport:
    @pytest.mark.parametrize("grid", ["uniform", "table"])
    def test_vector_matches_the_whole_grid_formula(self, grid):
        # the bump evaluated on a window is bit-identical to the bump evaluated
        # on every grid point, at grid points, between them and near the rim
        if grid == "uniform":
            m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x), lo=-2.0,
                                                        hi=2.0, spacing=1e-3)
        else:
            x = np.cumsum(np.random.default_rng(5).uniform(1e-3, 5e-3, 2000)) - 5.0
            m = MultiplicationSymbolModel.from_table(x, -np.square(x))
        for k in (1, 3, 7, 100):
            for center in (0.0, 0.0123, float(m.grid[1]), float(m.grid[-2])):
                profile = 1.0 - k * np.abs(m.grid - center)
                u = np.where(profile > 0.0, profile, 0.0)
                u = u / np.sqrt(float(np.sum(m.weights * u * u)))
                got = build_weyl_sequence(m, k, center).coefficients
                assert got.tobytes() == u.tobytes(), (k, center)

    def test_window_is_the_support_plus_one_point_a_side(self):
        from warnlab.spectrum import _weyl_support

        m = MultiplicationSymbolModel.from_function(lambda x: -np.square(x))
        window, bump = _weyl_support(m, 10, 0.0)
        # x = -0.1 and 0.1, where the bump is 0, are grid points 9900 and 10100
        assert (window.start, window.stop) == (9899, 10102)
        assert bump.size == 203 and np.count_nonzero(bump) == 199
