"""Exact-transition Monte Carlo for the mode SDEs.

Sampling uses the exact Gaussian transition of the linear system: over one
step the state maps to e^{A dt} x plus a Gaussian increment whose covariance
is the integral of e^{sA} C e^{sA*} over [0, dt]. For diagonal drift this is
the classical Ornstein-Uhlenbeck update with variance
noise_var * (e^{2 Re(lambda) dt} - 1) / (2 Re(lambda)); for Jordan blocks the
matrix exponential is closed-form and the step covariance comes from the
block-pair kernel ``lyapunov.block_pair_covariance`` at t = dt, which stays
exact for stiff modes and near-critical blocks, so no discretization bias
enters at any dt.

Randomness is reproducible by construction: trajectory i draws from a
dedicated generator seeded with splitmix64(master_seed, i), and reductions
over trajectories run in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .lyapunov import block_pair_covariance, model_covariance
from .spectrum import SpectralModel, spectral_abscissa

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_CHUNK = 2048
_MIXING_THRESHOLD = 5.0


def splitmix64(seed: int, index: int = 0) -> int:
    """Derive a 64-bit substream seed from (seed, index) with the splitmix64
    finalizer. Deterministic across platforms and sessions."""
    z = (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class EnsembleConfig:
    """Monte Carlo run parameters.

    ``burn_in`` is the fraction of each trajectory discarded before time
    averaging; trajectories always start from zero initial data.
    """

    dt: float
    horizon: float
    n_trajectories: int
    master_seed: int
    burn_in: float = 0.5

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt: must be > 0")
        if not (self.horizon > self.dt):
            raise ValueError("horizon: must exceed dt")
        if not (0.0 <= self.burn_in < 1.0):
            raise ValueError("burn_in: must lie in [0, 1)")
        if int(self.n_trajectories) != self.n_trajectories or self.n_trajectories < 2:
            raise ValueError("n_trajectories: need an integer >= 2")
        object.__setattr__(self, "n_trajectories", int(self.n_trajectories))
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)


@dataclass
class ModeState:
    """Mode-coefficient state of one trajectory."""

    coefficients: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients: expected a 1-d vector")
        if self.time < 0.0:
            raise ValueError("time: must be >= 0")

    @classmethod
    def zero(cls, dim: int) -> "ModeState":
        return cls(np.zeros(int(dim), dtype=complex), 0.0)


@dataclass(frozen=True, eq=False)
class EmpiricalCovariance:
    """Hermitian covariance estimate with per-entry standard errors."""

    matrix: np.ndarray
    n_samples: int
    standard_error: np.ndarray
    mixing_warning: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise ValueError("matrix: must be Hermitian (symmetrize before constructing)")
        diag = m.diagonal()
        if np.any(diag.real < -1e-12 * scale):
            raise ValueError("matrix: diagonal must be nonnegative")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        se = np.asarray(self.standard_error, dtype=float)
        se.flags.writeable = False
        object.__setattr__(self, "standard_error", se)


def sample_q_wiener_increment(rho, dt: float, rng: np.random.Generator, complex_modes=True) -> np.ndarray:
    """Sample one increment of the truncated Q-Wiener process.

    Mode j receives total variance rho_j * dt; complex modes draw circularly
    symmetric increments (real and imaginary parts carry rho_j * dt / 2 each),
    real modes draw real increments.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho < 0.0) or not np.all(np.isfinite(rho)):
        raise ValueError("rho: covariance eigenvalues must be finite and >= 0")
    if not (dt > 0.0):
        raise ValueError("dt: must be > 0")
    mask = np.broadcast_to(np.asarray(complex_modes, dtype=bool), rho.shape)
    draws = rng.standard_normal((rho.size, 2))
    scale = np.sqrt(rho * dt)
    cplx = (draws[:, 0] + 1j * draws[:, 1]) * (scale * _INV_SQRT2)
    real = draws[:, 0] * scale + 0j
    return np.where(mask, cplx, real)


def ou_exact_step(x, lam: complex, noise_var: float, dt: float, rng: np.random.Generator,
                  complex_noise: bool = True) -> complex:
    """One exact Ornstein-Uhlenbeck transition.

    Returns e^{lam dt} x + xi with xi mean-zero Gaussian of variance
    noise_var * (e^{2 Re(lam) dt} - 1) / (2 Re(lam)).
    """
    lam = complex(lam)
    if lam.real >= 0.0:
        raise NumericalError(f"ou_exact_step: need Re(lambda) < 0, got {lam}")
    if noise_var < 0.0:
        raise ValueError("noise_var: must be >= 0")
    if not (dt > 0.0):
        raise ValueError("dt: must be > 0")
    var = noise_var * np.expm1(2.0 * lam.real * dt) / (2.0 * lam.real)
    d = rng.standard_normal(2)
    if complex_noise:
        xi = (d[0] + 1j * d[1]) * _INV_SQRT2 * np.sqrt(var)
    else:
        xi = d[0] * np.sqrt(var)
    return np.exp(lam * dt) * complex(x) + xi


def _jordan_expm(lam: complex, m: int, t: float) -> np.ndarray:
    """Closed-form e^{tJ} for J = lam I + N: e^{t lam} times the truncated
    exponential series of the nilpotent part."""
    e = np.zeros((m, m), dtype=complex)
    base = np.exp(lam * t)
    coeff = 1.0
    for d in range(m):
        if d > 0:
            coeff = coeff * t / d
        val = base * coeff
        for i in range(m - d):
            e[i, i + d] = val
    return e


def _psd_factor(s: np.ndarray) -> np.ndarray:
    """Factor a Hermitian PSD matrix as L L^H via eigendecomposition, clipping
    eigenvalues in [-1e-12, 0) to zero and rejecting anything lower."""
    s = 0.5 * (s + s.conj().T)
    w, u = np.linalg.eigh(s)
    scale = max(1.0, float(w[-1]) if w.size else 1.0)
    if float(w[0]) < -1e-12 * scale:
        raise NumericalError(f"step covariance not positive semidefinite (min eig {w[0]})")
    w = np.clip(w, 0.0, None)
    return u * np.sqrt(w)


def jordan_block_step(state, lam: complex, m: int, noise_block, dt: float,
                      rng: np.random.Generator):
    """One exact transition of a Jordan-block mode.

    The increment covariance integral of e^{sJ} C e^{sJ^H} over [0, dt] comes
    from the block-pair kernel and is factorized with PSD clipping; a size-1
    block reduces exactly to ``ou_exact_step``.
    """
    lam = complex(lam)
    if lam.real >= 0.0:
        raise NumericalError(f"jordan_block_step: need Re(lambda) < 0, got {lam}")
    if int(m) != m or m < 1:
        raise ValueError("m: block size must be a positive integer")
    m = int(m)
    c = np.asarray(noise_block, dtype=complex)
    if c.shape != (m, m):
        raise ValueError(f"noise_block: expected shape ({m}, {m})")
    if not (dt > 0.0):
        raise ValueError("dt: must be > 0")
    is_state = isinstance(state, ModeState)
    x = np.asarray(state.coefficients if is_state else state, dtype=complex)
    if x.shape != (m,):
        raise ValueError(f"state: expected {m} coefficients")
    e = _jordan_expm(lam, m, dt)
    l = _psd_factor(block_pair_covariance(lam, m, lam, m, c, dt))
    d = rng.standard_normal((m, 2))
    z = (d[:, 0] + 1j * d[:, 1]) * _INV_SQRT2
    out = e @ x + l @ z
    if is_state:
        return ModeState(out, state.time + dt)
    return out


def _drift_expm(model: SpectralModel, p: float, t: float) -> np.ndarray:
    dim = model.total_dim
    e = np.zeros((dim, dim), dtype=complex)
    for c in model.curves:
        m = model.block_size(c.id)
        off = model.block_offset(c.id)
        e[off : off + m, off : off + m] = _jordan_expm(model.lambda_at(c.id, p), m, t)
    return e


def simulate_ensemble(model: SpectralModel, p: float, config: EnsembleConfig) -> EmpiricalCovariance:
    """Estimate the stationary mode covariance by time-and-ensemble averaging.

    Runs ``config.n_trajectories`` independent trajectories from zero initial
    data with exact transitions, discards the burn-in fraction of each, and
    averages outer products of the mode coefficients. Standard errors come
    from the spread of per-trajectory time averages. Fully deterministic for a
    fixed master seed; a ``mixing_warning`` flags horizons shorter than five
    relaxation times of the slowest mode.
    """
    absc = spectral_abscissa(model, p)
    if absc >= 0.0:
        raise NumericalError(f"simulate_ensemble: drift not strictly stable at p={p}")
    mixing_warning = config.horizon * abs(absc) < _MIXING_THRESHOLD
    dim = model.total_dim
    n_steps = max(1, int(round(config.horizon / config.dt)))
    burn = int(np.floor(config.burn_in * n_steps))
    keep = n_steps - burn
    trans = _drift_expm(model, p, config.dt).T.copy()
    noise_factor = _psd_factor(model_covariance(model, p, config.dt)).T.copy()
    n = config.n_trajectories
    stats = np.empty((n, dim, dim), dtype=complex)
    for c0 in range(0, n, _CHUNK):
        c1 = min(n, c0 + _CHUNK)
        nc = c1 - c0
        z = np.empty((nc, n_steps, dim), dtype=complex)
        for i in range(c0, c1):
            g = _generator(splitmix64(config.master_seed, i))
            d = g.standard_normal((n_steps, dim, 2))
            z[i - c0] = (d[..., 0] + 1j * d[..., 1]) * _INV_SQRT2
        x = np.zeros((nc, dim), dtype=complex)
        acc = np.zeros((nc, dim, dim), dtype=complex)
        for t in range(n_steps):
            x = x @ trans + z[:, t, :] @ noise_factor
            if t >= burn:
                acc += x[:, :, None] * x[:, None, :].conj()
        stats[c0:c1] = acc / keep
    mean = stats.mean(axis=0)
    mat = 0.5 * (mean + mean.conj().T)
    dev = stats - mean
    se = np.sqrt(np.sum(np.abs(dev) ** 2, axis=0) / (n * (n - 1)))
    return EmpiricalCovariance(matrix=mat, n_samples=n, standard_error=se,
                               mixing_warning=mixing_warning)


def empirical_covariance(samples) -> EmpiricalCovariance:
    """Sample covariance about the sample mean (divisor n - 1), symmetrized,
    with jackknife standard errors.

    Jackknife errors need at least 3 samples; with exactly 2 the standard
    error entries are NaN.
    """
    try:
        arr = np.asarray(samples)
    except ValueError as exc:
        raise NumericalError(f"samples: not a rectangular array ({exc})") from exc
    if arr.dtype == object or arr.ndim != 2:
        raise NumericalError("samples: expected a rectangular (n_samples, dim) array")
    arr = arr.astype(complex)
    n, d = arr.shape
    if n < 2:
        raise NumericalError("samples: need at least two samples")
    mean = arr.mean(axis=0)
    dev = arr - mean
    cov = np.einsum("ni,nj->ij", dev, dev.conj()) / (n - 1)
    cov = 0.5 * (cov + cov.conj().T)
    if n >= 3:
        s_tot = np.einsum("ni,nj->ij", arr, arr.conj())
        m_tot = arr.sum(axis=0)
        m_loo = (m_tot - arr) / (n - 1)
        outer_x = arr[:, :, None] * arr[:, None, :].conj()
        outer_m = m_loo[:, :, None] * m_loo[:, None, :].conj()
        theta = (s_tot - outer_x - (n - 1) * outer_m) / (n - 2)
        tbar = theta.mean(axis=0)
        se = np.sqrt((n - 1) / n * np.sum(np.abs(theta - tbar) ** 2, axis=0))
    else:
        se = np.full((d, d), np.nan)
    return EmpiricalCovariance(matrix=cov, n_samples=n, standard_error=se)
