"""Spectral models for linear drift operators.

Two model families are supported. ``SpectralModel`` describes a drift with a
discrete set of eigenvalue curves ``p -> lambda_k(p)`` (optionally with Jordan
blocks) together with the noise quadratic form expressed in the chosen
(generalized) eigenbasis. ``MultiplicationSymbolModel`` describes a real
multiplication operator ``(T_f h)(x) = f(x) h(x)`` discretized on a finite
grid with quadrature weights, which is the standing example of purely
continuous spectrum. ``SpectralModel.modes(p)`` is the one walk over the
curves: every reader of the basis layout at p gets it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericalError

DEFAULT_HALF_WIDTH = 10.0
DEFAULT_SPACING = 1e-3

_BISECTION_TOL = 1e-12
_RESOLVENT_SLACK = 1e-9


@dataclass(frozen=True)
class EigenvalueCurve:
    """One eigenvalue branch of the drift, parameterized by p."""

    id: int
    value_at: Callable[[float], complex]
    description: str = ""

    def __post_init__(self):
        if int(self.id) != self.id or self.id < 0:
            raise ValueError("curve id must be a non-negative integer")
        if not callable(self.value_at):
            raise ValueError("value_at must be callable")


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Discrete-spectrum drift plus noise data in the eigenbasis.

    ``noise_matrix`` holds the pairings <BQB* u_k, u_j> over the full list of
    basis vectors; for a mode carrying a Jordan block of size m the block
    occupies m consecutive rows/columns. ``sigma`` is either a constant noise
    amplitude or a map ``p -> sigma(p)`` for parameter-dependent noise.
    ``modes(p)`` evaluates every curve at p once and lays the basis out.
    """

    curves: Sequence[EigenvalueCurve]
    noise_matrix: np.ndarray
    critical_index: int
    jordan_sizes: Mapping[int, int] = field(default_factory=dict)
    sigma: float | Callable[[float], float] = 1.0

    def __post_init__(self):
        curves = tuple(self.curves)
        if not curves:
            raise ValueError("curves: at least one eigenvalue curve is required")
        by_id = {c.id: c for c in curves}
        if len(by_id) != len(curves):
            raise ValueError("curves: duplicate mode ids")
        if self.critical_index not in by_id:
            raise ValueError("critical_index: no curve with this id")
        sizes = {}
        for k, m in dict(self.jordan_sizes).items():
            if int(k) not in by_id:
                raise ValueError(f"jordan_sizes: unknown mode id {k}")
            if int(m) != m or m < 1:
                raise ValueError(f"jordan_sizes[{k}]: size must be a positive integer")
            sizes[int(k)] = int(m)
        rows = {}  # each curve's block of basis rows, in basis order
        pos = 0
        for c in curves:
            rows[c.id] = slice(pos, pos + sizes.get(c.id, 1))
            pos = rows[c.id].stop
        b = np.array(self.noise_matrix, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("noise_matrix: must be a square matrix")
        if b.shape[0] != pos:
            raise ValueError(
                f"noise_matrix: dimension {b.shape[0]} does not match the "
                f"{pos} basis vectors implied by curves and jordan_sizes"
            )
        scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        if np.max(np.abs(b - b.conj().T)) > 1e-10 * scale:
            raise ValueError("noise_matrix: must be Hermitian")
        b = 0.5 * (b + b.conj().T)
        if np.min(np.linalg.eigvalsh(b)) < -1e-10 * scale:
            raise ValueError("noise_matrix: must be positive semidefinite")
        b.flags.writeable = False
        if not callable(self.sigma):
            s = float(self.sigma)
            if s < 0.0:
                raise ValueError("sigma: constant amplitude must be >= 0")
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "noise_matrix", b)
        object.__setattr__(self, "jordan_sizes", sizes)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_dim", pos)

    @property
    def total_dim(self) -> int:
        return self._dim

    @property
    def sigma_depends_on_p(self) -> bool:
        return callable(self.sigma)

    def curve(self, k: int) -> EigenvalueCurve:
        if k not in self._by_id:
            raise ValueError(f"no curve with id {k}")
        return self._by_id[k]

    def block_size(self, k: int) -> int:
        return self.jordan_sizes.get(k, 1)

    def block_offset(self, k: int) -> int:
        return self._rows[k].start

    def lambda_at(self, k: int, p: float) -> complex:
        """Evaluate curve k at p, signalling if it is undefined there."""
        try:
            lam = complex(self.curve(k).value_at(p))
        except Exception as exc:  # noqa: BLE001 - user-supplied callable
            raise NumericalError(f"curve {k} undefined at p={p!r}: {exc}") from exc
        if not (np.isfinite(lam.real) and np.isfinite(lam.imag)):
            raise NumericalError(f"curve {k} is not finite at p={p!r}")
        return lam

    def modes(self, p: float) -> list[tuple[int, complex, int, slice]]:
        """(curve id, lambda_k(p), block size, rows of the block) for every
        curve, in basis order; each curve is evaluated once, by ``lambda_at``."""
        return [(k, self.lambda_at(k, p), r.stop - r.start, r) for k, r in self._rows.items()]

    def sigma_at(self, p: float) -> float:
        s = float(self.sigma(p)) if callable(self.sigma) else float(self.sigma)
        if not np.isfinite(s) or s < 0.0:
            raise NumericalError(f"sigma(p) must be finite and >= 0, got {s} at p={p!r}")
        return s


@dataclass(frozen=True, eq=False)
class MultiplicationSymbolModel:
    """Real multiplication operator sampled on a quadrature grid.

    The spectrum of T_f is the essential range of f; on the truncated grid the
    essential supremum is the grid maximum by construction and the instability
    threshold of A = p + T_f sits at ``p* = -esssup(f)``.
    """

    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    esssup: float
    argmax_points: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.grid, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("grid: need a 1-d grid with at least 2 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("grid: must be strictly increasing")
        if w.shape != x.shape or v.shape != x.shape:
            raise ValueError("weights/values: shape mismatch with grid")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights: must be finite and nonnegative")
        if not np.all(np.isfinite(v)):
            raise ValueError("values: symbol must be finite on the grid")
        if float(np.max(v)) != self.esssup:
            raise ValueError("esssup: must equal the grid maximum of the symbol")
        for arr in (x, w, v):
            arr.flags.writeable = False
        object.__setattr__(self, "grid", x)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)
        am = np.asarray(self.argmax_points, dtype=float)
        am.flags.writeable = False
        object.__setattr__(self, "argmax_points", am)

    @classmethod
    def from_function(
        cls,
        symbol: Callable[[np.ndarray], np.ndarray],
        lo: float = -DEFAULT_HALF_WIDTH,
        hi: float = DEFAULT_HALF_WIDTH,
        spacing: float = DEFAULT_SPACING,
    ) -> "MultiplicationSymbolModel":
        """Sample ``symbol`` on the uniform grid of integer multiples of
        ``spacing`` covering [lo, hi], with trapezoid quadrature weights."""
        if not (hi > lo) or not (spacing > 0):
            raise ValueError("domain: need hi > lo and spacing > 0")
        i0 = int(round(lo / spacing))
        i1 = int(round(hi / spacing))
        if i1 - i0 < 1:
            raise ValueError("domain: grid would contain fewer than 2 points")
        x = np.arange(i0, i1 + 1, dtype=float) * spacing
        # a scalar-only symbol rejects the array with ValueError or TypeError,
        # or returns the wrong shape; any other error is a bug and propagates
        try:
            v = np.asarray(symbol(x), dtype=float)
            if v.shape != x.shape:
                raise ValueError
        except (ValueError, TypeError):
            v = np.array([float(symbol(xi)) for xi in x])
        w = np.full(x.shape, spacing)
        w[0] = w[-1] = 0.5 * spacing
        return cls.from_samples(x, v, w)

    @classmethod
    def from_table(cls, x, fx) -> "MultiplicationSymbolModel":
        """Build from tabulated (x, f(x)) pairs; weights are the trapezoid
        weights of the (possibly nonuniform) grid."""
        x = np.asarray(x, dtype=float)
        fx = np.asarray(fx, dtype=float)
        if x.ndim != 1 or x.size < 2 or fx.shape != x.shape:
            raise ValueError("table: need matching 1-d x and f(x) columns")
        w = np.empty_like(x)
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
        w[0] = 0.5 * (x[1] - x[0])
        w[-1] = 0.5 * (x[-1] - x[-2])
        return cls.from_samples(x, fx, w)

    @classmethod
    def from_samples(cls, x, values, weights) -> "MultiplicationSymbolModel":
        values = np.asarray(values, dtype=float)
        m = float(np.max(values))
        argmax = np.asarray(x, dtype=float)[values == m]
        return cls(grid=x, weights=weights, values=values, esssup=m, argmax_points=argmax)


@dataclass(frozen=True, eq=False)
class WeylVector:
    """Normalized near-eigenvector of a multiplication operator."""

    coefficients: np.ndarray
    width_index: int
    center: float

    def __post_init__(self):
        u = np.asarray(self.coefficients, dtype=float)
        u.flags.writeable = False
        object.__setattr__(self, "coefficients", u)


def spectral_abscissa(model: SpectralModel | MultiplicationSymbolModel, p: float) -> float:
    """Largest real part of the spectrum of the drift at parameter p.

    For a spectral model this is the max over the eigenvalue curves; for a
    multiplication model the drift is p + T_f, so it equals p + esssup(f).
    """
    if isinstance(model, MultiplicationSymbolModel):
        return float(p + model.esssup)
    return max(lam.real for _, lam, _, _ in model.modes(p))


def _critical_real_part(model: SpectralModel, p: float) -> float:
    return model.lambda_at(model.critical_index, p).real


def bifurcation_parameter(
    model: SpectralModel | MultiplicationSymbolModel,
    bracket: tuple[float, float] = (-100.0, 100.0),
) -> float:
    """Parameter value where the drift loses stability.

    For a multiplication model this is exactly ``-esssup(f)``. For a spectral
    model the root of Re(lambda_{k*}(p)) is bracketed in ``bracket`` and
    resolved by bisection to 1e-12, then polished by a few secant steps.

    Raises:
        NumericalError: if no sign change of the critical real part is
            bracketed.
    """
    if isinstance(model, MultiplicationSymbolModel):
        return float(-model.esssup + 0.0)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket: need lo < hi")
    glo = _critical_real_part(model, lo)
    ghi = _critical_real_part(model, hi)
    if not (glo < 0.0 < ghi):
        raise NumericalError(
            f"no sign change of Re(lambda_{model.critical_index}) bracketed in "
            f"[{lo}, {hi}]: endpoints ({glo}, {ghi})"
        )
    a, ga, b, gb = lo, glo, hi, ghi
    root = None
    for _ in range(200):
        if b - a <= _BISECTION_TOL:
            break
        mid = 0.5 * (a + b)
        gm = _critical_real_part(model, mid)
        if gm == 0.0:
            root = mid
            break
        if gm < 0.0:
            a, ga = mid, gm
        else:
            b, gb = mid, gm
    if root is None:
        root = 0.5 * (a + b)
        best, gbest = root, abs(_critical_real_part(model, root))
        xa, fa, xb, fb = a, ga, b, gb
        for _ in range(8):
            if fb == fa:
                break
            xc = xb - fb * (xb - xa) / (fb - fa)
            if not (lo <= xc <= hi) or not np.isfinite(xc):
                break
            fc = _critical_real_part(model, xc)
            if abs(fc) < gbest:
                best, gbest = xc, abs(fc)
            if fc == 0.0:
                break
            xa, fa, xb, fb = xb, fb, xc, fc
        root = best
    return float(root)


def _weyl_support(model: MultiplicationSymbolModel, k: int,
                  center: float) -> tuple[slice, np.ndarray]:
    """Grid window [center - 1/k, center + 1/k], found by bisection and widened
    by a point a side, and the bump 1 - k|x - center| clipped at 0 on it.

    Raises:
        NumericalError: if fewer than 3 grid points fall inside the support.
    """
    x = model.grid
    lo = max(int(np.searchsorted(x, center - 1.0 / k)) - 1, 0)
    hi = min(int(np.searchsorted(x, center + 1.0 / k, side="right")) + 1, x.size)
    profile = 1.0 - k * np.abs(x[lo:hi] - center)
    bump = np.where(profile > 0.0, profile, 0.0)
    support = int(np.count_nonzero(bump))
    if support < 3:
        raise NumericalError(
            f"weyl vector k={k} at center={center}: support contains {support} "
            "grid points, need at least 3 (refine the grid or lower k)"
        )
    return slice(lo, hi), bump


def build_weyl_sequence(model: MultiplicationSymbolModel, k: int, center: float) -> WeylVector:
    """Triangular bump of half-width 1/k at ``center`` (``_weyl_support``),
    unit-normalized in the weighted l2 norm of the grid.

    Raises:
        NumericalError: if fewer than 3 grid points fall inside the support.
    """
    if int(k) != k or k < 1:
        raise ValueError("k: width index must be a positive integer")
    k = int(k)
    window, bump = _weyl_support(model, k, center)
    u = np.zeros_like(model.grid)
    u[window] = bump
    nrm2 = float(np.sum(model.weights * u * u))
    u = u / np.sqrt(nrm2)
    return WeylVector(coefficients=u, width_index=k, center=float(center))


def weyl_defect(model: MultiplicationSymbolModel, vector: WeylVector, lambda_star: float) -> float:
    """Weighted l2 norm of (f - lambda*) u; bounded by sup |f - lambda*| over
    the support of u."""
    u = vector.coefficients
    d2 = np.sum(model.weights * (model.values - lambda_star) ** 2 * u * u)
    return float(np.sqrt(d2))


def resolvent_bound_check(matrix, z: complex) -> bool:
    """Check ||(A - z)^-1||_2 >= 1/dist(z, spec(A)) - 1e-9.

    Raises:
        NumericalError: if z is an eigenvalue of A or A - z Id is numerically
            singular.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix: must be square")
    eigs = np.linalg.eigvals(a)
    dist = float(np.min(np.abs(eigs - z)))
    if dist == 0.0:
        raise NumericalError(f"z={z!r} is an eigenvalue of the matrix")
    shifted = a - z * np.eye(a.shape[0])
    svals = np.linalg.svd(shifted, compute_uv=False)
    smin = float(svals[-1])
    if smin <= 1e-14 * max(1.0, float(svals[0])):
        raise NumericalError(f"matrix - z*Id numerically singular at z={z!r}")
    norm_inv = 1.0 / smin
    return norm_inv >= 1.0 / dist - _RESOLVENT_SLACK


def curve_continuity_violations(
    model: SpectralModel, p_grid, lipschitz_budget: float = 1e3
) -> list[tuple[int, float, float, float]]:
    """Sample every curve on ``p_grid`` and flag jumps exceeding
    ``lipschitz_budget * |dp|`` between adjacent points.

    Returns a list of (curve id, p_left, p_right, jump) tuples; empty when all
    curves look continuous at this resolution.
    """
    p = np.asarray(p_grid, dtype=float)
    ids = [c.id for c in model.curves]
    vals = np.array([[lam for _, lam, _, _ in model.modes(pi)] for pi in p],
                    dtype=complex).reshape(p.size, len(ids))
    jumps = np.abs(np.diff(vals, axis=0))
    allowed = lipschitz_budget * np.abs(np.diff(p))
    return [(cid, float(p[i]), float(p[i + 1]), float(jumps[i, col]))
            for col, cid in enumerate(ids) for i in np.nonzero(jumps[:, col] > allowed)[0]]
