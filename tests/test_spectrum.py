import cmath
import math

import mpmath
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
    spectral_abscissa,
    weyl_defect,
)
from oracles import resolvent_bound_check


def single_mode(slope=1.0, offset=0.0):
    return SpectralModel(
        curves=[EigenvalueCurve(0, slope, offset)],
        noise_matrix=np.array([[1.0]]),
        critical_index=0,
    )


class TestModelValidation:
    def test_curve_rejects_negative_id(self):
        with pytest.raises(ValueError):
            EigenvalueCurve(-1, 1.0)

    @pytest.mark.parametrize("slope, offset, field", [
        (math.nan, 0.0, "slope"),
        (1.0, complex(math.inf, 0.0), "offset"),
        (lambda p: p, 0.0, "slope"),
    ], ids=["nan-slope", "inf-offset", "callable-slope"])
    def test_curve_rejects_non_finite_or_callable_data(self, slope, offset, field):
        with pytest.raises(ValueError, match=field):
            EigenvalueCurve(0, slope, offset)

    def test_duplicate_curve_ids(self):
        with pytest.raises(ValueError, match="id"):
            SpectralModel(
                curves=[EigenvalueCurve(0, 1.0), EigenvalueCurve(0, 1.0, -1.0)],
                noise_matrix=np.eye(2),
                critical_index=0,
            )

    def test_missing_critical_index(self):
        with pytest.raises(ValueError, match="critical"):
            SpectralModel(
                curves=[EigenvalueCurve(0, 1.0)],
                noise_matrix=np.eye(1),
                critical_index=3,
            )

    def test_noise_dimension_must_match_blocks(self):
        with pytest.raises(ValueError):
            SpectralModel(
                curves=[EigenvalueCurve(0, 1.0)],
                noise_matrix=np.eye(3),
                critical_index=0,
                jordan_sizes={0: 2},
            )

    def test_noise_must_be_hermitian(self):
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            SpectralModel(
                curves=[EigenvalueCurve(0, 1.0), EigenvalueCurve(1, 1.0, -1.0)],
                noise_matrix=np.array([[1.0, 1.0], [0.0, 1.0]]),
                critical_index=0,
            )

    def test_noise_must_be_psd(self):
        with pytest.raises(ValueError):
            SpectralModel(
                curves=[EigenvalueCurve(0, 1.0), EigenvalueCurve(1, 1.0, -1.0)],
                noise_matrix=np.array([[1.0, 2.0], [2.0, 1.0]]),
                critical_index=0,
            )

    def test_noise_matrix_read_only(self):
        m = single_mode()
        with pytest.raises(ValueError):
            m.noise_matrix[0, 0] = 5.0

    def test_missing_noise_matrix_is_the_identity_of_the_basis(self):
        curves = [EigenvalueCurve(0, 1.0), EigenvalueCurve(1, 1.0, -1.0)]
        for m in (SpectralModel(curves=curves, critical_index=0, jordan_sizes={0: 2}),
                  SpectralModel(curves=curves, critical_index=0, jordan_sizes={0: 2},
                                noise_matrix=None)):
            assert m.total_dim == 3
            assert m.noise_matrix.dtype == complex
            assert np.array_equal(m.noise_matrix, np.eye(3))
            assert not m.noise_matrix.flags.writeable

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

    def test_symbol_model_derives_esssup_and_every_argmax(self):
        # a plateau on [-0.25, 0.25] of a grid given node by node
        x = np.linspace(-1.0, 1.0, 9)
        w = np.full(9, 0.25)
        v = -np.square(np.maximum(np.abs(x) - 0.25, 0.0))
        m = MultiplicationSymbolModel(x, w, v)
        assert m.esssup == 0.0
        assert m.argmax_points.tolist() == [-0.25, 0.0, 0.25]
        assert not m.argmax_points.flags.writeable
        for derived in ({"esssup": 0.0}, {"argmax_points": x[3:6]}):
            with pytest.raises(TypeError):
                MultiplicationSymbolModel(x, w, v, **derived)

    def test_esssup_is_grid_max(self):
        m = MultiplicationSymbolModel.from_function(np.sin, lo=-3.0, hi=3.0, spacing=1e-3)
        assert m.esssup == np.max(m.values)
        assert m.argmax_points.size >= 1

    def test_weyl_center_is_the_leftmost_argmax(self):
        # a plateau on [-0.5, 0.5]: every node of it is an argmax
        m = MultiplicationSymbolModel.from_function(
            lambda x: -np.square(np.maximum(np.abs(x) - 0.5, 0.0)), lo=-2.0, hi=2.0,
            spacing=0.25)
        assert m.argmax_points.tolist() == [-0.5, -0.25, 0.0, 0.25, 0.5]
        assert m.weyl_center == -0.5


class TestNoiseLaw:
    """sigma(p) = sigma * |p - p*| ** sigma_exponent is data anchored at the
    closed-form p*."""

    @pytest.mark.parametrize("sigma, exponent, field", [
        (lambda p: abs(p), 0.0, "sigma"),
        (-0.5, 0.0, "sigma"),
        (1.0, math.nan, "sigma_exponent"),
    ], ids=["callable-sigma", "negative-sigma", "nan-exponent"])
    def test_rejects_non_data_laws(self, sigma, exponent, field):
        with pytest.raises(ValueError, match=field):
            SpectralModel(curves=[EigenvalueCurve(0, 1.0)], noise_matrix=np.eye(1),
                          critical_index=0, sigma=sigma, sigma_exponent=exponent)

    def test_law_is_anchored_at_computed_p_star(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            slope, offset = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
            scale, exponent = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            model = SpectralModel(curves=[EigenvalueCurve(0, slope, offset)],
                                  noise_matrix=np.eye(1), critical_index=0,
                                  sigma=scale, sigma_exponent=exponent)
            p_star = bifurcation_parameter(model)
            assert p_star != 0.0
            p = p_star - rng.uniform(1e-6, 1.0)
            assert model.sigma_at(p) == scale * abs(p - p_star) ** exponent

    def test_exponent_zero_is_the_constant_law(self):
        model = SpectralModel(curves=[EigenvalueCurve(0, -1.0)], noise_matrix=np.eye(1),
                              critical_index=0, sigma=0.7)
        assert not model.sigma_depends_on_p
        assert model.sigma_at(3.0) == 0.7  # no p* exists, none is needed

    def test_overflowing_law_signals(self):
        model = SpectralModel(curves=[EigenvalueCurve(0, 1.0)], noise_matrix=np.eye(1),
                              critical_index=0, sigma=1.0, sigma_exponent=1000.0)
        with pytest.raises(NumericalError, match="sigma"):
            model.sigma_at(-10.0)


def xi_kind(xi: complex) -> str:
    return "diverging" if not cmath.isfinite(xi) else "zero" if xi == 0 else "finite"


class TestNoiseLimitXi:
    """SpectralModel.noise_limit_xi against sigma^2 / (2 lambda) in mpmath at
    |p - p*| = 1e-40, with sigma = s |p - p*|^e and lambda = slope (p - p*) + i b."""

    @staticmethod
    def model(s, e, slope, b):
        # Re(offset) = -0.3 keeps p* = 0.3 / slope off zero
        return SpectralModel(curves=[EigenvalueCurve(0, slope, complex(-0.3, b))],
                             critical_index=0, sigma=s, sigma_exponent=e)

    @pytest.mark.parametrize("s, e, slope, b, kind", [
        (1.0, 0.0, 1.0, 0.0, "diverging"),
        (1.5, 0.25, 0.8, 0.0, "diverging"),
        (1.5, 0.5, 0.8, 0.0, "finite"),
        (1.5, 0.75, 0.8, 0.0, "zero"),
        (1.5, 1.0, 0.8, 0.0, "zero"),
        (1.5, -0.5, 0.8, 0.7, "diverging"),
        (1.5, 0.0, 0.8, 0.7, "finite"),
        (1.5, 0.5, 0.8, -0.7, "zero"),
        (0.0, -0.5, 0.8, 0.0, "zero"),
    ])
    def test_matches_mpmath_limit(self, s, e, slope, b, kind):
        xi = self.model(s, e, slope, b).noise_limit_xi
        assert xi_kind(xi) == kind
        with mpmath.workdps(60):
            d = mpmath.mpf("1e-40")
            near = complex((s * s * d ** (2 * e)) / (2 * mpmath.mpc(-slope * d, b)))
        if kind == "finite":
            assert abs(xi - near) <= 1e-10 * abs(near)
        elif kind == "zero":
            assert abs(near) < 1e-15
        else:
            assert xi == complex(math.inf, 0.0) and abs(near) > 1e15

    @pytest.mark.parametrize("e, kind", [(0.5 + 1e-9, "zero"), (0.5 - 1e-9, "diverging")])
    def test_exponent_next_to_the_balance_reads_its_kind(self, e, kind):
        # d^(+-2e-9) is still 1 +- 2e-7 at d = 1e-40, so no sample reaches these limits
        assert xi_kind(self.model(1.0, e, 1.0, 0.0).noise_limit_xi) == kind

    def test_model_without_p_star_signals(self):
        with pytest.raises(NumericalError, match="slope"):
            self.model(1.0, 0.5, 0.0, 0.0).noise_limit_xi


class TestAbscissaAndBifurcation:
    def test_abscissa_takes_max_real_part(self):
        m = SpectralModel(
            curves=[
                EigenvalueCurve(0, 1.0),
                EigenvalueCurve(1, 0.0, -1.0 + 2.0j),
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

    def test_root_is_the_correctly_rounded_quotient(self):
        rng = np.random.default_rng(20)
        for a, b in zip(rng.uniform(0.1, 10.0, 25), rng.uniform(-50.0, 50.0, 25)):
            assert bifurcation_parameter(single_mode(a, complex(b, a))) == -b / a + 0.0

    def test_imaginary_offset_does_not_move_root(self):
        m = SpectralModel(
            curves=[EigenvalueCurve(0, 1.0, 10.0j)],
            noise_matrix=np.array([[1.0]]),
            critical_index=0,
        )
        assert bifurcation_parameter(m) == 0.0

    def test_no_sign_change_signals(self):
        m = SpectralModel(
            curves=[EigenvalueCurve(0, 0.0, -1.0)],
            noise_matrix=np.array([[1.0]]),
            critical_index=0,
        )
        with pytest.raises(NumericalError, match="sign change"):
            bifurcation_parameter(m)

    def test_overflowing_root_signals(self):
        with pytest.raises(NumericalError, match="overflows"):
            bifurcation_parameter(single_mode(1e-310, -1.0))

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


def two_curve_model(second=(0.5, -1.0)):
    # a size-2 Jordan block on curve 3, then simple curve 1 (slope, offset):
    # ids out of order
    return SpectralModel(
        curves=[EigenvalueCurve(3, 1.0, 0.25j), EigenvalueCurve(1, *second)],
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

        m = two_curve_model((1e308, 0.0))  # overflows at p = -30
        messages = set()
        for evaluate in (m.modes, lambda p: spectral_abscissa(m, p),
                         lambda p: model_covariance(m, p, math.inf)):
            with pytest.raises(NumericalError) as info:
                evaluate(-30.0)
            messages.add(str(info.value))
        assert messages == {"curve 1 is not finite at p=-30.0"}

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
