"""Spectral models for linear drift operators.

``SpectralModel`` describes a drift with affine eigenvalue curves
``lambda_k(p) = offset + slope * p`` (optionally with Jordan blocks) and the
noise quadratic form in that (generalized) eigenbasis, the identity if none
is given; ``modes(p)`` is the one walk over its basis layout at p.
``MultiplicationSymbolModel`` is the real multiplication operator
``(T_f h)(x) = f(x) h(x)`` sampled on a grid with quadrature weights, the
standing example of purely continuous spectrum; it derives its esssup and
argmax set. Constructors state their rules; a message starts with its field.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericalError

DEFAULT_HALF_WIDTH = 10.0
DEFAULT_SPACING = 1e-3


def _finite_real(name: str, value) -> float:
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name}: expected a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class EigenvalueCurve:
    """One eigenvalue branch of the drift, affine in p: ``offset + slope * p``
    with a finite real slope and a finite complex offset."""

    id: int
    slope: float
    offset: complex = 0j

    def __post_init__(self):
        if int(self.id) != self.id or self.id < 0:
            raise ValueError("id: must be a non-negative integer")
        object.__setattr__(self, "slope", _finite_real("slope", self.slope))
        if not (isinstance(self.offset, numbers.Complex) and cmath.isfinite(self.offset)):
            raise ValueError(f"offset: expected a finite complex number, got {self.offset!r}")
        object.__setattr__(self, "offset", complex(self.offset))


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Discrete-spectrum drift plus noise data in the eigenbasis.

    ``noise_matrix`` holds the pairings <BQB* u_k, u_j> over the full list of
    basis vectors, the identity when it is None; for a mode carrying a Jordan
    block of size m the block occupies m consecutive rows/columns. The noise
    law ``sigma(p) = sigma * |p - p*| ** sigma_exponent`` is anchored at
    ``bifurcation_parameter``; exponent 0 is a constant amplitude. ``modes(p)``
    evaluates every curve at p once and lays the basis out. ``critical_index``
    is derived: the id of the first curve to cross the axis, None if none rises.
    """

    curves: Sequence[EigenvalueCurve]
    noise_matrix: np.ndarray | None = None
    jordan_sizes: Mapping[int, int] = field(default_factory=dict)
    sigma: float = 1.0
    sigma_exponent: float = 0.0
    critical_index: int | None = field(init=False)

    def __post_init__(self):
        curves = tuple(self.curves)
        if not curves:
            raise ValueError("curves: at least one eigenvalue curve is required")
        by_id = {c.id: c for c in curves}
        if len(by_id) != len(curves):
            raise ValueError("curves: duplicate mode ids")
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
        b = np.eye(pos, dtype=complex) if self.noise_matrix is None \
            else np.array(self.noise_matrix, dtype=complex)
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
        for name in ("sigma", "sigma_exponent"):
            object.__setattr__(self, name, _finite_real(name, getattr(self, name)))
        if self.sigma < 0.0:
            raise ValueError("sigma: noise scale must be >= 0")

        def crossing(c):  # least root, then largest Re(lambda) there, then model order
            root = -c.offset.real / c.slope
            return root, -(c.offset.real + c.slope * root)
        critical = min((c for c in curves if c.slope > 0.0), key=crossing, default=None)
        object.__setattr__(self, "critical_index", None if critical is None else critical.id)
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
        return self.sigma_exponent != 0.0

    def curve(self, k: int) -> EigenvalueCurve:
        if k not in self._by_id:
            raise ValueError(f"no curve with id {k}")
        return self._by_id[k]

    def block_size(self, k: int) -> int:
        return self.jordan_sizes.get(k, 1)

    def block_offset(self, k: int) -> int:
        return self._rows[k].start

    def lambda_at(self, k: int, p: float) -> complex:
        """Evaluate curve k at p, signalling if the value overflows."""
        c = self.curve(k)
        lam = c.offset + c.slope * p
        if not cmath.isfinite(lam):
            raise NumericalError(f"curve {k} is not finite at p={p!r}")
        return lam

    def modes(self, p: float) -> list[tuple[int, complex, int, slice]]:
        """(curve id, lambda_k(p), block size, rows of the block) for every
        curve, in basis order; each curve is evaluated once, by ``lambda_at``."""
        return [(k, self.lambda_at(k, p), r.stop - r.start, r) for k, r in self._rows.items()]

    def sigma_at(self, p: float) -> float:
        """The noise law at p, the scale itself for exponent 0 or scale 0;
        NumericalError if p* does not exist or sigma(p) is not finite."""
        if not self.sigma_depends_on_p or self.sigma == 0.0:
            return self.sigma
        try:
            s = self.sigma * abs(p - bifurcation_parameter(self)) ** self.sigma_exponent
        except (OverflowError, ZeroDivisionError):  # float ** raises, it never gives inf
            s = math.inf
        if not math.isfinite(s):
            raise NumericalError(f"sigma(p) is not finite at p={p!r}")
        return s

    @property
    def noise_limit_xi(self) -> complex:
        """Xi, the limit of sigma(p)^2 / (2 lambda_{k*}(p)) as p rises to p*.

        With d = p* - p, sigma^2 = s^2 d^(2e) and lambda_{k*} = -slope d + i b,
        so Xi is 0 for s = 0; for b = 0 it is 0 for e > 1/2, -s^2 / (2 slope)
        at e = 1/2 and diverges for e < 1/2; for b != 0 it is 0 for e > 0,
        s^2 / (2 i b) at e = 0 and diverges for e < 0. A diverging limit
        reads complex(inf, 0). NumericalError if p* does not exist.
        """
        bifurcation_parameter(self)
        curve = self.curve(self.critical_index)
        s, e, b = self.sigma, self.sigma_exponent, curve.offset.imag
        balance = 0.5 if b == 0.0 else 0.0  # the e at which sigma^2 and |lambda| match
        if s == 0.0 or e > balance:
            return 0j
        if e < balance:
            return complex(math.inf, 0.0)
        return complex(-s * s / (2.0 * curve.slope)) if b == 0.0 else s * s / (2j * b)


@dataclass(frozen=True, eq=False)
class MultiplicationSymbolModel:
    """Real multiplication operator sampled on a quadrature grid.

    The spectrum of T_f is the essential range of f; on the truncated grid the
    essential supremum is the grid maximum, and the instability threshold of
    A = p + T_f sits at ``p* = -esssup(f)``. ``esssup`` and ``argmax_points``
    (every node where f attains it, read-only) are derived, never given.
    """

    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    esssup: float = field(init=False)
    argmax_points: np.ndarray = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.grid, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("grid: need a 1-d grid with at least 2 points")
        if np.any(x[1:] <= x[:-1]):
            raise ValueError("grid: must be strictly increasing")
        if w.shape != x.shape or v.shape != x.shape:
            raise ValueError("weights/values: shape mismatch with grid")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights: must be finite and nonnegative")
        if not np.all(np.isfinite(v)):
            raise ValueError("values: symbol must be finite on the grid")
        esssup = float(np.max(v))
        argmax = x[v == esssup]
        for arr in (x, w, v, argmax):
            arr.flags.writeable = False
        object.__setattr__(self, "grid", x)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "esssup", esssup)
        object.__setattr__(self, "argmax_points", argmax)

    @property
    def weyl_center(self) -> float:
        """Where every Weyl vector of the model is centred: the leftmost
        argmax of the symbol."""
        return float(self.argmax_points[0])

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
        x = np.arange(i0, i1 + 1, dtype=float)
        x *= spacing
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
        return cls(x, w, v)

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
        return cls(x, w, fx)


@dataclass(frozen=True, eq=False)
class WeylVector:
    """Normalized near-eigenvector of a multiplication operator. Its
    coefficients vanish outside ``window``, the grid slice that elementwise
    work on the vector is restricted to (by default the whole grid)."""

    coefficients: np.ndarray
    width_index: int
    center: float
    window: slice = field(default_factory=lambda: slice(None))

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


def bifurcation_parameter(model: SpectralModel | MultiplicationSymbolModel) -> float:
    """Parameter value where the drift loses stability, in closed form.

    For a multiplication model this is ``-esssup(f)``. For a spectral model
    it is the root of Re(lambda_{k*}(p)) = Re(offset) + slope * p, k* its
    ``critical_index``, the correctly rounded quotient ``-Re(offset) / slope``;
    ``+ 0.0`` turns a root of -0.0 into 0.0.

    Raises:
        NumericalError: if no curve has slope > 0, so no real part changes
            sign from negative to positive, or if the quotient overflows.
    """
    if isinstance(model, MultiplicationSymbolModel):
        return float(-model.esssup + 0.0)
    k = model.critical_index
    if k is None:
        raise NumericalError("no sign change of Re(lambda): no curve has slope > 0")
    curve = model.curve(k)
    p_star = -curve.offset.real / curve.slope + 0.0
    if not math.isfinite(p_star):
        raise NumericalError(f"p* = -Re(offset) / slope of curve {k} overflows")
    return p_star


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
    unit-normalized in the weighted l2 norm of the grid; the vector carries
    the window of ``_weyl_support``.

    The squared norm is computed on the window only, into a grid-sized array
    of zeros that is then summed in full: numpy's pairwise sum groups terms
    by their position in the array, so a sum over the window alone would
    change the last bits. That array then holds the coefficients.

    Raises:
        NumericalError: if fewer than 3 grid points fall inside the support.
    """
    if int(k) != k or k < 1:
        raise ValueError("k: width index must be a positive integer")
    k = int(k)
    window, bump = _weyl_support(model, k, center)
    u = np.zeros(model.grid.shape)
    part = u[window]
    np.multiply(np.multiply(model.weights[window], bump, out=part), bump, out=part)
    nrm2 = float(np.sum(u))
    np.divide(bump, np.sqrt(nrm2), out=part)
    return WeylVector(coefficients=u, width_index=k, center=float(center), window=window)


def weyl_defect(model: MultiplicationSymbolModel, vector: WeylVector, lambda_star: float) -> float:
    """Weighted l2 norm of (f - lambda*) u; bounded by sup |f - lambda*| over
    the support of u. The terms are computed on the vector's window and
    summed over the whole grid, zeros included, as ``build_weyl_sequence``
    sums its norm."""
    window = vector.window
    u = vector.coefficients[window]
    terms = np.zeros(model.values.shape)
    part = terms[window]
    np.multiply(model.weights[window], (model.values[window] - lambda_star) ** 2, out=part)
    np.multiply(np.multiply(part, u, out=part), u, out=part)
    return float(np.sqrt(np.sum(terms)))
