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
step covariance of the Monte Carlo engine.

The multiplication drift p + T_f with unit noise has the diagonal stationary
covariance 1 / (2 |p + f|) on the grid, so its norm and pairings are sums over
the grid. ``_StableShift``, which the analytic sweep builds once from its
quantities, evaluates them all: numerators once, denominators once per point.

``finite_lyapunov_solve`` and ``assemble_drift_matrix`` are the brute-force
dense route, kept independent of the kernel so the two can cross-check each
other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectrum import MultiplicationSymbolModel, SpectralModel, build_weyl_sequence

_HERMITIAN_TOL = 1e-10
_XI_TOL = 1e-8
# |z t| up to which the time moments come from their Taylor series; above it
# the upward recurrence amplifies rounding by n / |z t| per step, a bounded
# factor for the moment orders n <= 2m - 2 of small blocks
_SERIES_RADIUS = 2.0
_SERIES_TERMS = 30  # 2^30 / 30! < 1e-23


@dataclass(frozen=True)
class XiEstimate:
    """Limit estimate of sigma(p)^2 / (2 lambda_{k*}(p)) as p increases to p*:
    the last sample's value, every (p, value) sample, and whether the last
    two samples agree within ``_XI_TOL``."""

    value: complex
    samples: tuple
    converged: bool


def _finite_moments(z: complex, t: float, n_max: int) -> list:
    """I_n = int_0^t e^{zs} s^n ds = t^{n+1} J_n(zt) for n = 0..n_max, with
    J_n(x) = int_0^1 e^{xu} u^n du from its Taylor series sum_k x^k / (k! (n+k+1))
    for |x| <= 2 and from J_0 = expm1(x) / x, J_n = (e^x - n J_{n-1}) / x above."""
    x = z * t
    if abs(x) <= _SERIES_RADIUS:
        k = np.arange(_SERIES_TERMS)
        terms = np.cumprod(np.concatenate(([1.0], x / k[1:])))
        moments = [np.sum(terms / (n + k + 1)) for n in range(n_max + 1)]
    else:
        ex = cmath.exp(x)
        moments = [np.expm1(x) / x]
        for n in range(1, n_max + 1):
            moments.append((ex - n * moments[-1]) / x)
    return [t ** (n + 1) * jn for n, jn in enumerate(moments)]


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
        NumericalError: for t = inf unless both eigenvalues satisfy Re < 0.
    """
    lam_k, lam_j = complex(lam_k), complex(lam_j)
    z = lam_k + lam_j.conjugate()
    n_max = m_k + m_j - 2
    if t == math.inf:
        if lam_k.real >= 0.0 or lam_j.real >= 0.0:
            raise NumericalError(
                f"stationary covariance needs Re(lambda) < 0, got ({lam_k}, {lam_j})"
            )
        num = [float(math.factorial(n)) for n in range(n_max + 1)]
        den = [(-z) ** (n + 1) for n in range(n_max + 1)]
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


def stationary_covariance_entry(lambda_k: complex, lambda_j: complex, b_kj: complex, sigma: float) -> complex:
    """Closed-form covariance pairing -sigma^2 b_kj / (lambda_k + conj(lambda_j)).

    No command calls it; ``tests/test_acceptance.py`` imports it for the
    simple-mode oracle.

    Raises:
        NumericalError: on a degenerate on-axis pair (denominator zero) or if
            either eigenvalue fails strict stability.
    """
    lk = complex(lambda_k)
    lj = complex(lambda_j)
    denom = lk + lj.conjugate()
    if denom == 0:
        raise NumericalError(
            f"degenerate pair: lambda_k + conj(lambda_j) = 0 for ({lk}, {lj})"
        )
    sigma = float(sigma)
    if sigma < 0.0:
        raise ValueError("sigma: must be >= 0")
    return complex(block_pair_covariance(lk, 1, lj, 1, [[(sigma * sigma) * complex(b_kj)]],
                                         math.inf)[0, 0])


def jordan_stationary_covariance(lam: complex, m: int, noise_block, sigma: float) -> np.ndarray:
    """Stationary coordinate covariance of a single Jordan block: the solution
    of J V + V J^H = -sigma^2 C for J = lam I + N (superdiagonal ones).

    No command calls it; ``tests/test_acceptance.py`` imports it for the
    Jordan-block oracles."""
    lam = complex(lam)
    if lam.real >= 0.0:
        raise NumericalError(f"Jordan block eigenvalue must satisfy Re(lambda) < 0, got {lam}")
    if int(m) != m or m < 1:
        raise ValueError("m: block size must be a positive integer")
    m = int(m)
    c = np.asarray(noise_block, dtype=complex)
    if c.shape != (m, m):
        raise ValueError(f"noise_block: expected shape ({m}, {m}), got {c.shape}")
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.max(np.abs(c - c.conj().T)) > _HERMITIAN_TOL * scale:
        raise ValueError("noise_block: must be Hermitian")
    sigma = float(sigma)
    if sigma < 0.0:
        raise ValueError("sigma: must be >= 0")
    v = block_pair_covariance(lam, m, lam, m, (sigma * sigma) * c, math.inf)
    return 0.5 * (v + v.conj().T)


def finite_lyapunov_solve(a, c, sigma: float) -> np.ndarray:
    """Dense Kronecker solve of A V + V A^H = -sigma^2 C.

    Brute-force oracle: vectorizes the identity row-major and solves the
    n^2 x n^2 system directly. No structure of A is exploited. No command
    calls it; ``tests/test_acceptance.py`` imports it as the dense oracle.
    """
    a = np.asarray(a, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or c.shape != a.shape:
        raise ValueError("finite_lyapunov_solve: A and C must be square with equal shapes")
    eigs = np.linalg.eigvals(a)
    if float(np.max(eigs.real)) >= 0.0:
        raise NumericalError(
            f"finite_lyapunov_solve: spectrum not strictly stable (max Re = {np.max(eigs.real)})"
        )
    n = a.shape[0]
    eye = np.eye(n)
    kron = np.kron(a, eye) + np.kron(eye, a.conj())
    try:
        vec = np.linalg.solve(kron, -(float(sigma) ** 2) * c.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("finite_lyapunov_solve: Kronecker system is singular") from exc
    if not np.all(np.isfinite(vec)):
        raise NumericalError("finite_lyapunov_solve: non-finite solution")
    v = vec.reshape(n, n)
    return 0.5 * (v + v.conj().T)


def noise_limit_xi(model: SpectralModel, p_sequence) -> XiEstimate:
    """Evaluate sigma(p)^2 / (2 lambda_{k*}(p)) along an increasing sequence.

    The returned estimate carries the whole sample path; ``converged`` records
    whether the last two values differ by less than ``_XI_TOL``.
    """
    p_seq = np.asarray(p_sequence, dtype=float)
    if p_seq.ndim != 1 or p_seq.size < 2:
        raise ValueError("p_sequence: need at least two parameter values")
    if np.any(np.diff(p_seq) <= 0):
        raise ValueError("p_sequence: must be strictly increasing toward p*")
    samples = []
    for p in p_seq:
        lam = model.lambda_at(model.critical_index, float(p))
        if lam == 0:
            raise NumericalError(f"critical eigenvalue vanishes at p={p}")
        s = model.sigma_at(float(p))
        samples.append((float(p), (s * s) / (2.0 * lam)))
    value = samples[-1][1]
    converged = abs(samples[-1][1] - samples[-2][1]) < _XI_TOL
    return XiEstimate(value=value, samples=tuple(samples), converged=converged)


class _StableShift:
    """The multiplication drift with unit noise at the points of one sweep,
    for its quantities (parsed specs). A pairing's numerator mu |h|^2 is made
    once, h the unit Gaussian ("quadratic", over 4 (p + f)^2) or the Weyl
    vector at the leftmost argmax ("stationary", over 2 |p + f|). ``at(p)``
    checks strict stability (p + f < 0 on the grid), computes each denominator
    once and returns the quantities. Each pairing is one sum over the whole
    grid (a sum over the support of h, or a multiply by the reciprocal, would
    change the last bits). Grid-sized arrays are made once per sweep and
    rewritten in place: glibc returns freed arrays of this size to the system,
    and the next allocation's page faults cost more than the arithmetic."""

    def __init__(self, model: MultiplicationSymbolModel, specs):
        self._model = model
        self.weyl_vectors = {}  # k -> the Weyl vector of a weyl_pairing:k
        self._pairings = [None if s.kind == "norm" else self._numerator(s) for s in specs]
        self.shifted, self._quotient = np.empty_like(model.values), np.empty_like(model.values)
        self._den = {kind: np.empty_like(model.values) for _, kind in filter(None, self._pairings)}

    def _numerator(self, spec) -> tuple[np.ndarray, str]:
        """mu |h|^2 of a pairing with h, and the kind of its denominator."""
        model = self._model
        if spec.kind == "gaussian_pairing":
            return model.weights * np.abs(unit_gaussian_profile(model)) ** 2, "quadratic"
        vector = build_weyl_sequence(model, spec.k, float(model.argmax_points[0]))
        self.weyl_vectors[spec.k] = vector
        return model.weights * np.abs(vector.coefficients) ** 2, "stationary"

    def at(self, p: float) -> list[float]:
        s = np.add(float(p), self._model.values, out=self.shifted)
        if np.any(s >= 0.0):
            raise NumericalError(f"p + f >= 0 on the grid at p={p}: drift not strictly "
                                 f"stable (p* = {-self._model.esssup})")
        den = self._den
        if "quadratic" in den:  # 4 (p + f)^2
            np.multiply(np.multiply(4.0, s, out=den["quadratic"]), s, out=den["quadratic"])
        if "stationary" in den:  # 2 |p + f|
            np.multiply(2.0, np.negative(s, out=den["stationary"]), out=den["stationary"])
        return [float(1.0 / (2.0 * -np.max(s))) if r is None else
                float(np.sum(np.divide(r[0], den[r[1]], out=self._quotient)))
                for r in self._pairings]


def unit_gaussian_profile(model: MultiplicationSymbolModel) -> np.ndarray:
    """Gaussian exp(-x^2/2) on the grid, normalized in the weighted l2 norm."""
    h = np.exp(-0.5 * model.grid**2)
    nrm2 = float(np.sum(model.weights * h * h))
    return h / np.sqrt(nrm2)


def assemble_drift_matrix(model: SpectralModel, p: float) -> np.ndarray:
    """Block-diagonal matrix of the drift at p in the (generalized) eigenbasis:
    one Jordan block lam_k I + N per mode.

    No command calls it; ``tests/test_lyapunov.py`` builds the dense oracle's
    drift with it (``tests/test_acceptance.py`` writes its matrices out)."""
    dim = model.total_dim
    a = np.zeros((dim, dim), dtype=complex)
    for _, lam, _, rows in model.modes(p):
        i = np.arange(rows.start, rows.stop)
        a[i, i] = lam
        a[i[:-1], i[1:]] = 1.0
    return a


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
