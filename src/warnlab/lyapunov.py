"""Stationary and finite-time covariances of linear SDE systems.

In the (generalized) eigenbasis the drift of dX = A X dt + sigma B dW_Q is a
direct sum of Jordan blocks J_k = lambda_k I + N, so every covariance the
package needs is a sum of block-pair integrals

    V_kj(t) = int_0^t e^{s J_k} C_kj e^{s J_j^H} ds,    C = sigma^2 BQB*,

evaluated by ``block_pair_covariance`` and assembled only by
``model_covariance``. t = inf gives the stationary covariance: the
simple-mode law -sigma^2 b / (lambda_k + conj(lambda_j)) and the
|p - p*|^{-(2m-1)} growth of a size-m Jordan block; the analytic sweep reads
every spectral quantity from that matrix. A finite t = dt gives the exact
step covariance of the Monte Carlo engine, at any dt the floats can hold.

The multiplication drift p + T_f with unit noise has the diagonal stationary
covariance 1 / (2 |p + f|) on the grid, so its norm is 1 / (2 |p + esssup f|)
and its pairings are sums over the grid. ``_StableShift``, which the analytic
sweep builds once from its quantities, evaluates them all at the points the
sweep has checked lie below p*: the norm in O(1) per point, and each
pairing's terms only on the window where its vector is nonzero (a Weyl
vector's support, the whole grid for the Gaussian), each pairing still
summed over the whole grid so that numpy's pairwise sum groups its terms as
it would without the window.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericalError
from .spectrum import MultiplicationSymbolModel, SpectralModel, build_weyl_sequence

# |z t| up to which the time moments come from their Taylor series; above it
# the upward recurrence amplifies rounding by n / |z t| per step, a bounded
# factor for the moment orders n <= 2m - 2 of small blocks
_SERIES_RADIUS = 2.0
_SERIES_TERMS = 30  # 2^30 / 30! < 1e-23
_NORMAL_MIN = 2.0 ** -1022  # the least normal float


def _finite_moments(z: complex, t: float, n_max: int) -> list:
    """I_n = int_0^t e^{zs} s^n ds = t^{n+1} J_n(zt) for n = 0..n_max, with
    J_n(x) = int_0^1 e^{xu} u^n du from its Taylor series sum_k x^k / (k! (n+k+1))
    for |x| <= 2 and from J_0 = expm1(x) / x, J_n = (e^x - n J_{n-1}) / x above.
    Where that product is not finite (t^{n+1} overflows) or J_n falls below
    the normal floats (it is never 0), I_n comes from ``_moment_past_overflow``."""
    x = z * t
    if abs(x) <= _SERIES_RADIUS:
        k = np.arange(_SERIES_TERMS)
        terms = np.cumprod(np.concatenate(([1.0], x / k[1:])))
        moments = [np.sum(terms / (n + k + 1)) for n in range(n_max + 1)]
    else:
        try:
            ex = cmath.exp(x)
        except OverflowError:  # Re(zt) > 709: so is every I_n
            raise NumericalError(f"e^(z t) overflows for z = {z}, t = {t!r}") from None
        moments = [np.expm1(x) / x]
        for n in range(1, n_max + 1):
            moments.append((ex - n * moments[-1]) / x)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n, jn in enumerate(moments):
            try:
                moment = t ** (n + 1) * jn
            except OverflowError:  # float ** raises, it never gives inf
                moment = math.inf
            ok = abs(jn) >= _NORMAL_MIN and cmath.isfinite(moment)
            out.append(moment if ok else _moment_past_overflow(z, t, n))
    return out


def _moment_past_overflow(z: complex, t: float, n: int) -> complex:
    """I_n as n! / (-z)^{n+1} (1 - e^{zt} sum_{i<=n} (-zt)^i / i!), the moment
    over [0, inf) less its tail over [t, inf). Each tail term is one
    exponential, exp(zt + i log(-zt) - log i!), so it reads 0 where it
    underflows, however large (zt)^i alone would be.

    Raises:
        NumericalError: if the moment is not finite.
    """
    x = z * t
    try:
        log_x = cmath.log(-x)
        tail = sum(cmath.exp(x + i * log_x - math.lgamma(i + 1)) for i in range(n + 1))
        moment = math.factorial(n) / (-z) ** (n + 1) * (1.0 - tail)
    except (OverflowError, ZeroDivisionError, ValueError):  # log(0) is the ValueError
        moment = complex(math.inf)
    if not cmath.isfinite(moment):
        raise NumericalError(f"time moment I_{n} over [0, {t!r}] is not finite for z = {z}")
    return moment


def block_pair_covariance(lam_k: complex, m_k: int, lam_j: complex, m_j: int, c_kj,
                          t: float) -> np.ndarray:
    """int_0^t e^{s J_k} C e^{s J_j^H} ds for Jordan blocks J = lam I + N.

    With z = lam_k + conj(lam_j) and I_n = int_0^t e^{zs} s^n ds, entry (p, q)
    is sum_{a,b} C[p+a, q+b] / (a! b!) I_{a+b} (indices past the block rim
    read as zero). t = inf uses I_n = n! / (-z)^{n+1} and divides by the
    power, as the closed form -sigma^2 b / (lambda_k + conj(lambda_j)) does;
    finite t uses the stable series and recurrence of the time moments.
    The noise amplitude is folded into ``c_kj`` by the caller. Near p* the
    t = inf form can overflow; it then returns inf or nan without a numpy
    warning, and the sweep's non-finite check reports it.

    Raises:
        NumericalError: for t = inf unless both eigenvalues satisfy Re < 0; on overflow.
    """
    lam_k, lam_j = complex(lam_k), complex(lam_j)
    z = lam_k + lam_j.conjugate()
    if not cmath.isfinite(z):
        raise NumericalError(f"lambda_k + conj(lambda_j) overflows for ({lam_k}, {lam_j})")
    n_max = m_k + m_j - 2
    if t == math.inf:
        if lam_k.real >= 0.0 or lam_j.real >= 0.0:
            raise NumericalError(
                f"stationary covariance needs Re(lambda) < 0, got ({lam_k}, {lam_j})"
            )
        num = [float(math.factorial(n)) for n in range(n_max + 1)]
        try:
            den = [(-z) ** (n + 1) for n in range(n_max + 1)]
        except OverflowError:  # complex ** raises, it never gives inf
            raise NumericalError(f"(-z) ** {n_max + 1} overflows for z = {z}") from None
        if max(abs(den[-1].real), abs(den[-1].imag)) <= 2.0 ** -1024:  # numpy's quotients go nan
            raise NumericalError(f"1 / (-z) ** {n_max + 1} overflows for z = {z}")
    else:
        num = _finite_moments(z, float(t), n_max)
        den = [1.0] * (n_max + 1)
    c = np.asarray(c_kj, dtype=complex)
    v = np.zeros((m_k, m_j), dtype=complex)
    with np.errstate(all="ignore"):
        for a in range(m_k):
            for b in range(m_j):
                w = num[a + b] / (math.factorial(a) * math.factorial(b))
                v[: m_k - a, : m_j - b] += c[a:, b:] * w / den[a + b]
    return v


class _Pairing:
    """sum(mu |h|^2 / den) over the grid for one real vector h, den =
    4 (p + f)^2 ("quadratic") or 2 |p + f| ("stationary"). The numerator,
    the shift p + f and the denominator live on ``window``, the slice of the
    grid off which h vanishes. The quotient goes into ``quotient``, a
    grid-sized array of zeros that the pairings of a sweep share: each
    writes its window, sums the whole array and zeroes its window again.
    Its arrays are made once and rewritten in place at every point."""

    def __init__(self, model: MultiplicationSymbolModel, h: np.ndarray, window: slice,
                 quadratic: bool, quotient: np.ndarray):
        """``h`` holds the vector on ``window`` and becomes the numerator."""
        num = np.multiply(model.weights[window], np.square(h, out=h), out=h)
        self._num, self._quadratic = num, quadratic
        self._values = model.values[window]
        self._shift, self._den = np.empty_like(num), np.empty_like(num)
        self._quotient = quotient
        self._window_quotient = quotient[window]

    def at(self, p: float) -> float:
        s = np.add(p, self._values, out=self._shift)
        den = self._den
        if self._quadratic:  # 4 (p + f)^2
            np.multiply(np.multiply(4.0, s, out=den), s, out=den)
        else:  # 2 |p + f|
            np.multiply(2.0, np.negative(s, out=den), out=den)
        np.divide(self._num, den, out=self._window_quotient)
        total = float(np.sum(self._quotient))
        self._window_quotient.fill(0.0)
        return total


class _StableShift:
    """The multiplication drift with unit noise at the points of one sweep,
    for its quantities (parsed specs). ``at(p)`` takes a p the sweep has
    checked lies below p* = -esssup f + 0.0, which holds exactly when p +
    esssup f < 0 in IEEE arithmetic (a sum of floats is 0 only for opposite
    terms), and returns the quantities: the norm 1 / (2 |p + esssup f|) in
    O(1), and each pairing from its ``_Pairing``, with h the unit Gaussian
    (over 4 (p + f)^2, on the whole grid) or the Weyl vector at the model's
    ``weyl_center`` (over 2 |p + f|, on the vector's window).
    Rounding is monotone, so max(p + f) over the grid is exactly p + esssup
    f. Each pairing is one sum over the whole grid (a sum over the window
    alone, or a multiply by the reciprocal, would change the last bits).
    Arrays are made once per sweep and rewritten in place, and the pairings
    share one zero-padded quotient: glibc returns freed grid-sized arrays to
    the system, and the next allocation's page faults cost more than the
    arithmetic."""

    def __init__(self, model: MultiplicationSymbolModel, specs):
        self._model = model
        self.weyl_vectors = {}  # k -> the Weyl vector of a weyl_pairing:k
        self._quotient = np.zeros(model.values.shape)
        self._pairings = [None if s.kind == "norm" else self._pairing(s) for s in specs]

    def _pairing(self, spec) -> _Pairing:
        model = self._model
        if spec.kind == "gaussian_pairing":
            return _Pairing(model, unit_gaussian_profile(model), slice(None), True,
                            self._quotient)
        vector = build_weyl_sequence(model, spec.k, model.weyl_center)
        self.weyl_vectors[spec.k] = vector
        return _Pairing(model, vector.coefficients[vector.window].copy(), vector.window, False,
                        self._quotient)

    def at(self, p: float) -> list[float]:
        top = p + self._model.esssup
        with np.errstate(all="ignore"):  # an inf or nan quotient: the sweep reports it
            return [1.0 / (2.0 * -top) if r is None else r.at(p) for r in self._pairings]


def unit_gaussian_profile(model: MultiplicationSymbolModel) -> np.ndarray:
    """Gaussian exp(-x^2/2) on the grid, normalized in the weighted l2 norm;
    computed in place, with one grid-sized temporary for the norm."""
    h = np.square(model.grid)
    np.exp(np.multiply(-0.5, h, out=h), out=h)
    terms = np.multiply(model.weights, h)
    nrm2 = float(np.sum(np.multiply(terms, h, out=terms)))
    return np.divide(h, np.sqrt(nrm2), out=h)


def model_covariance(model: SpectralModel, p: float, t: float) -> np.ndarray:
    """Full Hermitian covariance int_0^t e^{sA} sigma^2 BQB* e^{sA*} ds at p:
    the one assembly of ``block_pair_covariance`` over all mode pairs, in
    basis order (``model.modes(p)``), so a Jordan block of mode k occupies
    rows ``model.block_offset(k)`` onward. sigma(p) and each lambda_k(p) are
    evaluated once per matrix. t = inf gives the stationary covariance.

    Raises:
        NumericalError: for t = inf unless the drift is strictly stable at p.
    """
    sigma = model.sigma_at(p)
    c = (sigma * sigma) * model.noise_matrix
    modes = model.modes(p)
    v = np.block([[block_pair_covariance(lam_k, m_k, lam_j, m_j, c[rows_k, rows_j], t)
                   for _, lam_j, m_j, rows_j in modes]
                  for _, lam_k, m_k, rows_k in modes])
    with np.errstate(all="ignore"):
        return 0.5 * (v + v.conj().T)
