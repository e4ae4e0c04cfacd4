"""Parameter sweeps toward the bifurcation point and power-law diagnostics.

A sweep evaluates named covariance quantities along an increasing grid of
parameter values below p*: from the closed forms (the analytic engine) when
it is given no ``EnsembleConfig``, and from ensemble simulation (the
empirical engine) when it is given one. For a spectral model both engines
produce one covariance matrix per point, ``model_covariance`` at t = inf
or the ensemble estimate, and read every quantity out of it through the same
index map, ``_entry_index``, which a sweep consults once per quantity before
its first point; a multiplication model's quantities come from the one
``lyapunov._StableShift`` the sweep builds. Scaling exponents are read off
by ordinary least squares in log-log coordinates; by default fits use the
last decade of distances |p - p*|, where the asymptotic laws dominate.
``classify_warning_sign`` turns a fit the caller already holds into a
warning-sign verdict. The module does no I/O: ``cli`` writes every output.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import NumericalError
from .lyapunov import _StableShift, model_covariance
from .sde import EnsembleConfig, simulate_ensemble, splitmix64
from .spectrum import SpectralModel, WeylVector, bifurcation_parameter

_MULTIPLICATION_KINDS = ("norm", "gaussian_pairing", "weyl_pairing")


@dataclass(frozen=True)
class QuantitySpec:
    """Parsed sweep quantity. ``name`` is the canonical string form used as
    series key and in CSV output."""

    kind: str
    k: int | None = None
    j: int | None = None
    l: int | None = None
    m: int | None = None

    @property
    def name(self) -> str:
        if self.kind == "entry":
            return f"entry:{self.k},{self.j}"
        if self.kind == "block_entry":
            return f"block_entry:{self.l},{self.m}"
        if self.kind == "weyl_pairing":
            return f"weyl_pairing:{self.k}"
        return self.kind


def parse_quantity(q) -> QuantitySpec:
    """Parse a quantity description such as ``critical_diagonal``,
    ``entry:0,1``, ``block_entry:1,2``, ``norm``, ``gaussian_pairing`` or
    ``weyl_pairing:5``."""
    if not isinstance(q, str):
        raise ValueError(f"quantity: expected a string, got {type(q).__name__}")
    head, _, tail = q.partition(":")
    head = head.strip()
    try:
        if head in ("critical_diagonal", "norm", "gaussian_pairing"):
            if tail:
                raise ValueError
            return QuantitySpec(kind=head)
        if head == "entry":
            k_s, j_s = tail.split(",")
            return QuantitySpec(kind="entry", k=int(k_s), j=int(j_s))
        if head == "block_entry":
            l_s, m_s = tail.split(",")
            l, m = int(l_s), int(m_s)
            if l < 1 or m < 1:
                raise ValueError
            return QuantitySpec(kind="block_entry", l=l, m=m)
        if head == "weyl_pairing":
            k = int(tail)
            if k < 1:
                raise ValueError
            return QuantitySpec(kind="weyl_pairing", k=k)
    except ValueError:
        pass
    raise ValueError(f"quantity: cannot parse {q!r}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Quantity series along a parameter grid below p*.

    ``engine`` names what produced every series, "analytic" or "empirical".
    ``point_seconds`` holds the wall seconds each grid point's evaluation
    took, in grid order (empty when the sweep was not timed).
    ``weyl_vectors`` maps each ``weyl_pairing:k`` quantity's k to the Weyl
    vector the sweep paired (empty for every other sweep). ``point_seeds``
    holds the master seed each grid point's ensemble ran with, in grid order
    (empty for the closed forms)."""

    p_values: np.ndarray
    quantities: Mapping[str, np.ndarray]
    p_star: float
    engine: str
    stderrs: Mapping[str, np.ndarray | None] = field(default_factory=dict)
    point_seconds: tuple[float, ...] = ()
    weyl_vectors: Mapping[int, WeylVector] = field(default_factory=dict)
    point_seeds: tuple[int, ...] = ()

    def __post_init__(self):
        p = np.asarray(self.p_values, dtype=float)
        object.__setattr__(self, "p_values", p)
        qs = {}
        for name, vals in dict(self.quantities).items():
            arr = np.asarray(vals, dtype=float)
            if arr.shape != p.shape:
                raise ValueError(f"quantities[{name!r}]: length mismatch with p_values")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"quantities[{name!r}]: non-finite values")
            qs[name] = arr
        object.__setattr__(self, "quantities", qs)

    def distances(self) -> np.ndarray:
        return self.p_star - self.p_values


@dataclass(frozen=True)
class ScalingFit:
    """OLS power-law fit value ~ exp(log_prefactor) * distance^exponent."""

    exponent: float
    log_prefactor: float
    r_squared: float
    window: tuple
    residual_std: float


@dataclass(frozen=True)
class WarningSignVerdict:
    classification: str
    fitted_exponent: float
    rationale: str


def make_p_grid(p_star: float, start: float, count: int, factor: float = 0.5,
                stop: float | None = None, spacing: str = "geometric") -> np.ndarray:
    """Build an increasing parameter grid approaching p* from below.

    Geometric spacing (the default) contracts the distance to p* by ``factor``
    per step, or interpolates geometrically between start and stop when a stop
    value is given; linear spacing requires a stop value. The one statement
    of the sweep rules: each ValueError message starts with its argument.
    """
    if count < 1:
        raise ValueError("count: must be >= 1")
    if spacing == "linear":
        if stop is None:
            raise ValueError("stop: required for linear spacing")
        if abs(stop - start) == math.inf:
            raise ValueError("stop: its distance to start overflows")
        grid = np.linspace(start, stop, count)
    elif spacing == "geometric":
        if stop is None and not 0.0 < factor < 1.0:
            raise ValueError("factor: must lie in (0, 1)")
        d0 = p_star - start
        if not 0 < d0 < math.inf:
            raise ValueError("start: must lie strictly below p*, a finite distance away")
        if stop is None:
            dists = d0 * factor ** np.arange(count)
        else:
            d1 = p_star - stop
            if not 0 < d1 < math.inf:
                raise ValueError("stop: must lie strictly below p*, a finite distance away")
            dists = np.geomspace(d0, d1, count)
        grid = p_star - dists
    else:
        raise ValueError("spacing: expected 'geometric' or 'linear'")
    if np.any(np.diff(grid) <= 0) or np.any(grid >= p_star):
        raise ValueError("grid: must be strictly increasing and stay below p*")
    return grid


def _entry_index(model, spec: QuantitySpec) -> tuple[int, int] | None:
    """Row and column of a spectral quantity in the covariance matrix, for
    both engines; None for a multiplication-model quantity. ValueError if the
    model does not define it, NumericalError for a critical one without p*."""
    if not isinstance(model, SpectralModel):
        if spec.kind not in _MULTIPLICATION_KINDS:
            raise ValueError(f"quantity {spec.name!r} is not defined for multiplication models")
        return None
    if spec.kind == "entry":
        for idx in (spec.k, spec.j):
            model.curve(idx)
            if model.block_size(idx) != 1:
                raise ValueError(f"quantity {spec.name!r}: mode {idx} carries a Jordan "
                                 "block, use block_entry:l,m instead")
        return model.block_offset(spec.k), model.block_offset(spec.j)
    if spec.kind not in ("critical_diagonal", "block_entry"):
        raise ValueError(f"quantity {spec.name!r} is not defined for spectral models")
    bifurcation_parameter(model)  # a model without p* has no critical block
    off = model.block_offset(model.critical_index)
    if spec.kind == "critical_diagonal":
        return off, off
    size = model.block_size(model.critical_index)
    if max(spec.l, spec.m) > size:
        raise ValueError(f"quantity {spec.name!r}: critical block has size {size}")
    return off + spec.l - 1, off + spec.m - 1


def _eval_point_empirical(model, p, indices, config, point_seed, threads):
    # accumulate only the block of rows the quantities read; it holds each
    # (k, j) with its (j, k), which the estimate's symmetrization pairs
    rows = [i for index in indices for i in index]
    lo = min(rows)
    cfg = replace(config, master_seed=point_seed)
    emp = simulate_ensemble(model, p, cfg, threads, range(lo, max(rows) + 1))
    local = [(k - lo, j - lo) for k, j in indices]
    return ([abs(emp.matrix[index]) for index in local],
            [float(emp.standard_error[index]) for index in local])


def run_parameter_sweep(model, p_grid, quantities, config: EnsembleConfig | None = None,
                        threads: int | None = None) -> SweepResult:
    """Evaluate quantity series along ``p_grid``.

    Without ``config`` every point comes from the closed forms; with one it
    comes from an ensemble simulation, which only spectral models have
    (ValueError otherwise). Points are evaluated one after another in grid
    order. The empirical engine derives one seed per grid point from the
    ensemble master seed, making the whole sweep reproducible (the result
    keeps them in ``point_seeds``), and runs each point's trajectory chunks
    on up to ``threads`` worker processes (``simulate_ensemble``; None means
    all cores), accumulating second moments only on the rows from the first
    to the last that the quantities read; the closed forms ignore
    ``threads``. The wall time of each point's evaluation is kept in
    ``point_seconds``. A grid that reaches the model's own p*
    (``bifurcation_parameter``) is a NumericalError before the first point,
    and a quantity named twice is a ValueError.
    """
    p = np.asarray(p_grid, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p_grid: need a 1-d grid with at least one point")
    if np.any(np.diff(p) <= 0):
        raise ValueError("p_grid: must be strictly increasing")
    specs = [parse_quantity(q) for q in quantities]
    if not specs:
        raise ValueError("quantities: need at least one quantity")
    names = [s.name for s in specs]
    if len(set(names)) < len(names):
        raise ValueError(f"quantities: a quantity is named twice in {names}")
    indices = [_entry_index(model, s) for s in specs]
    shift = None if isinstance(model, SpectralModel) else _StableShift(model, specs)
    p_star = bifurcation_parameter(model)
    if np.any(p >= p_star):
        raise NumericalError(
            f"sweep grid reaches p* = {p_star}: all points must lie strictly below"
        )
    if config is not None and not isinstance(model, SpectralModel):
        raise ValueError("an ensemble config is only available for spectral models")
    seeds = () if config is None else tuple(splitmix64(config.master_seed, i)
                                            for i in range(p.size))
    values = {name: np.empty(p.size) for name in names}
    errors = {name: (None if config is None else np.empty(p.size)) for name in names}
    seconds = []
    for i, pi in enumerate(p.tolist()):
        start = time.perf_counter()
        try:
            if shift is not None:  # one set of denominators
                vals, errs = shift.at(pi), None
            elif config is None:
                v = model_covariance(model, pi, math.inf)
                vals, errs = [abs(v[index]) for index in indices], None
            else:
                vals, errs = _eval_point_empirical(model, pi, indices, config, seeds[i],
                                                   threads)
            for spec, v in zip(specs, vals):
                if not math.isfinite(v):
                    raise NumericalError(f"{spec.name} evaluates to {v}")
        except NumericalError as exc:
            raise NumericalError(f"sweep failed at p={pi}: {exc}") from exc
        seconds.append(time.perf_counter() - start)
        for name, v in zip(names, vals):
            values[name][i] = v
        for name, e in zip(names, errs or ()):
            errors[name][i] = e
    return SweepResult(
        p_values=p,
        quantities=values,
        p_star=p_star,
        engine="analytic" if config is None else "empirical",
        stderrs=errors,
        point_seconds=tuple(seconds),
        weyl_vectors={} if shift is None else shift.weyl_vectors,
        point_seeds=seeds,
    )


def fit_power_law(distances, values) -> ScalingFit:
    """Least-squares fit of log(value) against log(distance).

    Raises:
        NumericalError: on fewer than 3 points, nonpositive inputs or
            distances that agree to rounding.
    """
    d = np.asarray(distances, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.ndim != 1 or d.shape != v.shape:
        raise ValueError("distances/values: need matching 1-d arrays")
    if d.size < 3:
        raise NumericalError(f"fit_power_law: need at least 3 points, got {d.size}")
    if np.any(d <= 0) or np.any(v <= 0) or not (np.all(np.isfinite(d)) and np.all(np.isfinite(v))):
        raise NumericalError("fit_power_law: distances and values must be positive and finite")
    x = np.log(d)
    y = np.log(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            slope, intercept = np.polyfit(x, y, 1)
        except np.exceptions.RankWarning:
            raise NumericalError("fit_power_law: distances agree to rounding") from None
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a flat series leaves only rounding noise in ss_tot, which cannot be
    # explained; treat it like an exactly constant series
    if ss_tot > (d.size * np.finfo(float).eps * float(np.max(np.abs(y)))) ** 2:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-24 * d.size else 0.0
    return ScalingFit(
        exponent=float(slope),
        log_prefactor=float(intercept),
        r_squared=float(r2),
        window=tuple(range(d.size)),
        residual_std=float(np.sqrt(ss_res / (d.size - 2))),
    )


def parse_window(window):
    """The one statement of the fit-window forms: ``"last_decade"``,
    ``"all"`` or a pair (lo, hi) of distances with hi > lo. Returns the
    window as ``select_window`` reads it, a pair as two floats; any other
    window is a ValueError."""
    if isinstance(window, str):
        if window not in ("last_decade", "all"):
            raise ValueError(f"unknown window {window!r}")
        return window
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ValueError("expected a window name or [lo, hi]")
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValueError("hi must exceed lo")
    return lo, hi


def select_window(distances, window="last_decade") -> np.ndarray:
    """Resolve a fit window (``parse_window``) to grid indices.

    ``"last_decade"`` keeps points within a factor 10 of the smallest
    distance (at least 3 points); ``"all"`` keeps everything; a pair
    (lo, hi) keeps distances inside the closed interval.
    """
    d = np.asarray(distances, dtype=float)
    window = parse_window(window)
    if window == "all":
        return np.arange(d.size)
    if window == "last_decade":
        dmin = float(np.min(d))
        idx = np.nonzero(d <= 10.0 * dmin * (1.0 + 1e-9))[0]
        if idx.size < 3:
            idx = np.argsort(d)[:3]
            idx.sort()
        return idx
    lo, hi = window
    idx = np.nonzero((d >= lo) & (d <= hi))[0]
    if idx.size < 3:
        raise NumericalError(f"window [{lo}, {hi}]: fewer than 3 sweep points inside")
    return idx


def fit_quantity(sweep: SweepResult, quantity: str, window="last_decade") -> ScalingFit:
    """Power-law fit of one sweep series over the selected distance window."""
    if quantity not in sweep.quantities:
        raise ValueError(f"quantity {quantity!r} not present in sweep")
    d = sweep.distances()
    idx = select_window(d, window)
    fit = fit_power_law(d[idx], sweep.quantities[quantity][idx])
    return replace(fit, window=tuple(int(i) for i in idx))


def classify_warning_sign(fit: ScalingFit, xi: complex | None = None) -> WarningSignVerdict:
    """Warning-sign verdict of one power-law fit, such as ``fit_quantity`` returns.

    diverging: fitted exponent < -0.5 with r_squared > 0.99. vanishing:
    exponent > 0.5. finite_limit: |exponent| <= 0.1, with a finite noise
    limit Xi (``SpectralModel.noise_limit_xi``, given when the noise
    amplitude depends on p). Ambiguous fits fall back to finite_limit with
    the reservation spelled out in the rationale.
    """
    exp = fit.exponent
    base = (
        f"exponent {exp:.6g} with r^2 {fit.r_squared:.6g} over "
        f"{len(fit.window)} points nearest p*"
    )
    if exp < -0.5 and fit.r_squared > 0.99:
        cls, note = "diverging", "clean divergence"
    elif exp > 0.5:
        cls, note = "vanishing", "decay toward p*"
    elif abs(exp) <= 0.1 and (xi is None or cmath.isfinite(xi)):
        cls, note = "finite_limit", "flat series"
        if xi is not None:
            note += f"; noise limit Xi = {xi:.6g}"
    else:
        cls, note = "finite_limit", "inconclusive fit, defaulting to finite_limit"
        if xi is not None and not cmath.isfinite(xi):
            note += "; noise limit Xi diverges"
    return WarningSignVerdict(
        classification=cls, fitted_exponent=float(exp), rationale=f"{base}; {note}"
    )
