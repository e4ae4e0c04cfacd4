"""Oracle tests of the block-pair covariance kernel.

The oracles are independent of the kernel's series and recurrences:
- |lambda| t <= 20: Van Loan's block exponential evaluated by mpmath at 50
  digits; double-precision Van Loan is only good to about 1e-11 here.
- |lambda| t >= 30 with Re(lambda) t <= -15: the identity
  V(t) = V - e^{t J_k} V e^{t J_j^H}, with the stationary V from scipy's
  Sylvester solver; e^{tJ} is small there, so nothing cancels.
- t = inf: the Sylvester equation J_k V + V J_j^H = -C solved by mpmath at
  50 digits.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from warnlab import NumericalError
from warnlab.lyapunov import block_pair_covariance

RTOL = 1e-12
DPS = 50

sizes = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


def jordan(lam, m):
    return lam * np.eye(m) + np.diag(np.ones(m - 1), 1)


def mp_jordan(lam, m):
    j = mpmath.zeros(m, m)
    for i in range(m):
        j[i, i] = mpmath.mpc(lam)
        if i + 1 < m:
            j[i, i + 1] = 1
    return j


def to_numpy(mat, rows, cols):
    return np.array([[complex(mat[i, j]) for j in range(cols)] for i in range(rows)])


def van_loan_mp(lam_k, m_k, lam_j, m_j, c, t):
    """int_0^t e^{sJ_k} C e^{sJ_j^H} ds = e^{tJ_k} G, where G is the upper
    right block of exp(t [[-J_k, C], [0, J_j^H]])."""
    with mpmath.workdps(DPS):
        n = m_k + m_j
        jk = mp_jordan(lam_k, m_k)
        jj_h = mp_jordan(lam_j, m_j).H
        big = mpmath.zeros(n, n)
        for a in range(m_k):
            for b in range(m_k):
                big[a, b] = -jk[a, b]
            for b in range(m_j):
                big[a, m_k + b] = mpmath.mpc(complex(c[a, b]))
        for a in range(m_j):
            for b in range(m_j):
                big[m_k + a, m_k + b] = jj_h[a, b]
        t = mpmath.mpf(t)
        g = mpmath.expm(big * t)[0:m_k, m_k:n]
        return to_numpy(mpmath.expm(jk * t) * g, m_k, m_j)


def sylvester_mp(lam_k, m_k, lam_j, m_j, c):
    """Stationary V of J_k V + V J_j^H = -C through the Kronecker system."""
    with mpmath.workdps(DPS):
        jk = mp_jordan(lam_k, m_k)
        jj_h = mp_jordan(lam_j, m_j).H
        n = m_k * m_j
        kron = mpmath.zeros(n, n)
        rhs = mpmath.zeros(n, 1)
        for p in range(m_k):
            for q in range(m_j):
                row = p * m_j + q
                rhs[row] = -mpmath.mpc(complex(c[p, q]))
                for r in range(m_k):
                    kron[row, r * m_j + q] += jk[p, r]
                for s in range(m_j):
                    kron[row, p * m_j + s] += jj_h[s, q]
        vec = mpmath.lu_solve(kron, rhs)
        return np.array([[complex(vec[p * m_j + q]) for q in range(m_j)] for p in range(m_k)])


def stationary_identity(lam_k, m_k, lam_j, m_j, c, t):
    """V - e^{tJ_k} V e^{tJ_j^H} with V from scipy's Sylvester solver."""
    jk, jj = jordan(lam_k, m_k), jordan(lam_j, m_j)
    v = scipy.linalg.solve_sylvester(jk, jj.conj().T, -c)
    return v - scipy.linalg.expm(t * jk) @ v @ scipy.linalg.expm(t * jj).conj().T


def random_c(seed, m_k, m_j):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m_k, m_j)) + 1j * rng.normal(size=(m_k, m_j))


def rel_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def polar(radius, angle):
    return complex(radius * math.cos(angle), radius * math.sin(angle))


# eigenvalues in the closed left half-plane, given as |lambda| t and angle
left_angles = st.floats(math.pi / 2, 3 * math.pi / 2)
# the stiff regime keeps Re(lambda) <= -|lambda| / 2
stiff_angles = st.floats(2 * math.pi / 3, 4 * math.pi / 3)
times = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("lam, m, dt", [(-20.0, 2, 1.0), (-100.0, 3, 1.0), (-1000.0, 1, 0.05)])
def test_stiff_step_covariances(lam, m, dt):
    # 16-node Gauss-Legendre quadrature misses these by 1e-9 to 4e-2
    c = np.eye(m)
    want = (van_loan_mp(lam, m, lam, m, c, dt) if abs(lam) * dt <= 20
            else stationary_identity(lam, m, lam, m, c, dt))
    assert rel_error(block_pair_covariance(lam, m, lam, m, c, dt), want) <= RTOL


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sizes, sizes, st.floats(-6.0, math.log10(20.0)), st.floats(-6.0, math.log10(20.0)),
       left_angles, left_angles, times, seeds)
def test_finite_t_matches_mpmath_van_loan(m_k, m_j, log_rk, log_rj, ang_k, ang_j, t, seed):
    lam_k = polar(10.0**log_rk / t, ang_k)
    lam_j = polar(10.0**log_rj / t, ang_j)
    c = random_c(seed, m_k, m_j)
    got = block_pair_covariance(lam_k, m_k, lam_j, m_j, c, t)
    assert rel_error(got, van_loan_mp(lam_k, m_k, lam_j, m_j, c, t)) <= RTOL


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes, sizes, st.floats(math.log10(30.0), 3.0), st.floats(math.log10(30.0), 3.0),
       stiff_angles, stiff_angles, times, seeds)
def test_finite_t_matches_stationary_identity(m_k, m_j, log_rk, log_rj, ang_k, ang_j, t, seed):
    lam_k = polar(10.0**log_rk / t, ang_k)
    lam_j = polar(10.0**log_rj / t, ang_j)
    c = random_c(seed, m_k, m_j)
    got = block_pair_covariance(lam_k, m_k, lam_j, m_j, c, t)
    assert rel_error(got, stationary_identity(lam_k, m_k, lam_j, m_j, c, t)) <= RTOL


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sizes, sizes, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), seeds)
def test_stationary_matches_mpmath_sylvester(m_k, m_j, log_ak, log_aj, im_k, im_j, seed):
    lam_k = complex(-(10.0**log_ak), im_k)
    lam_j = complex(-(10.0**log_aj), im_j)
    c = random_c(seed, m_k, m_j)
    got = block_pair_covariance(lam_k, m_k, lam_j, m_j, c, math.inf)
    assert rel_error(got, sylvester_mp(lam_k, m_k, lam_j, m_j, c)) <= RTOL


def test_near_critical_jordan_law():
    # top entry of a size-m block grows like |lambda|^{-(2m-1)}
    for m in (1, 2, 3, 4):
        v = block_pair_covariance(-1e-3, m, -1e-3, m, np.eye(m), math.inf)
        want = sylvester_mp(-1e-3, m, -1e-3, m, np.eye(m))
        assert rel_error(v, want) <= RTOL
        assert v[0, 0].real == pytest.approx(
            math.comb(2 * m - 2, m - 1) / 2.0 ** (2 * m - 1) * 1e3 ** (2 * m - 1), rel=1e-2)


@pytest.mark.parametrize("zt", [-1.95 + 0.3j, -2.05 + 0.3j])
@pytest.mark.parametrize("m", [8, 12])
def test_large_jordan_step_covariance_at_series_radius(m, zt):
    # z t = lam_k + conj(lam_j) sits just inside and just outside the series
    # radius 2, where the upward recurrence of the time moments starts; at
    # m = 12 it climbs to the moment of order 22
    lam_k, lam_j = complex(zt.real / 2, zt.imag), zt.real / 2
    g = random_c(m, m, m)
    c = g @ g.conj().T
    got = block_pair_covariance(lam_k, m, lam_j, m, c, 1.0)
    want = van_loan_mp(lam_k, m, lam_j, m, c, 1.0)
    assert np.max(np.abs(got - want) / np.abs(want)) <= RTOL


def test_stationary_needs_stable_pair():
    with pytest.raises(NumericalError, match="Re\\(lambda\\) < 0"):
        block_pair_covariance(-1.0, 2, 0.0 + 1j, 1, np.ones((2, 1)), math.inf)
    # a finite horizon has no such restriction
    assert block_pair_covariance(0.5, 1, 0.5, 1, [[1.0]], 1.0)[0, 0] == pytest.approx(
        math.expm1(1.0))


@pytest.mark.parametrize("lam, message", [
    (0.5, r"e\^\(z t\) overflows"),  # Re(z) t = 1e200
    (1j, r"I_1 over \[0, 1e\+200\] is not finite"),  # z = 0: I_1 = t^2 / 2
    (-1e-200, r"I_1 over \[0, 1e\+200\] is not finite"),  # z t = -2, I_1 ~ 0.2 t^2
])
def test_step_moment_beyond_the_floats_signals(lam, message):
    with pytest.raises(NumericalError, match=message):
        block_pair_covariance(lam, 2, lam, 2, np.eye(2), 1e200)
