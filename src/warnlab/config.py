"""Experiment configuration: JSON in, validated model and run settings out.

Validation errors name the offending field by dotted path (for example
``model.curves[1].slope``) so a config can be fixed without reading code.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError
from .scaling import _validate_specs, parse_quantity
from .sde import EnsembleConfig
from .spectrum import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_SPACING,
    EigenvalueCurve,
    MultiplicationSymbolModel,
    SpectralModel,
)

_FORMATS = ("csv", "json")
_SIGMA_P_STAR = 0.0  # default threshold of a power_of_p noise law
# relative slack between a declared and the computed p*, far above the 1e-12
# bisection tolerance of the root find
_P_STAR_TOL = 1e-9


@dataclass(frozen=True)
class SweepSettings:
    """Grid shape; the grid itself is materialized once p* is known."""

    start: float
    count: int
    factor: float = 0.5
    stop: float | None = None
    spacing: str = "geometric"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    model: Any
    sweep: SweepSettings
    quantities: tuple
    ensemble: EnsembleConfig | None  # None: the closed forms (engine kind "analytic")
    weyl_k_values: tuple
    fit_windows: dict
    output_directory: str
    output_formats: tuple
    p_star_bracket: tuple
    lipschitz_budget: float
    spectral_gap: float
    echo: dict


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _as_number(value, path: str) -> float:
    """A JSON number as a finite float; json accepts NaN and Infinity, which
    every range check below would let through, and integers beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not abs(value) <= sys.float_info.max:  # false for NaN
        raise ConfigError(f"{path}: expected a finite number")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _as_complex(value, path: str) -> complex:
    """Accept a bare number or a [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re = _as_number(value[0], f"{path}[0]")
        im = _as_number(value[1], f"{path}[1]")
        return complex(re, im)
    raise ConfigError(f"{path}: expected a number or a [re, im] pair")


def _affine_curve(slope: float, offset: complex):
    def value_at(p: float) -> complex:
        return offset + slope * p

    return value_at


def _build_curves(raw, path: str):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty list of curves")
    curves = []
    for i, item in enumerate(raw):
        cpath = f"{path}[{i}]"
        item = _as_mapping(item, cpath)
        kind = _require(item, "kind", cpath)
        if kind != "affine":
            raise ConfigError(f"{cpath}.kind: unknown curve kind {kind!r}")
        cid = _as_int(_require(item, "id", cpath), f"{cpath}.id")
        slope = _as_number(item.get("slope", 0.0), f"{cpath}.slope")
        offset = _as_complex(item.get("offset", 0.0), f"{cpath}.offset")
        desc = item.get("description", "")
        try:
            curves.append(EigenvalueCurve(cid, _affine_curve(slope, offset), desc))
        except ValueError as exc:
            raise ConfigError(f"{cpath}: {exc}") from exc
    return curves


def _build_sigma(raw, path: str):
    if raw is None:
        return 1.0
    raw = _as_mapping(raw, path)
    kind = _require(raw, "kind", path)
    if kind == "constant":
        value = _as_number(_require(raw, "value", path), f"{path}.value")
        if value < 0:
            raise ConfigError(f"{path}.value: noise amplitude must be >= 0")
        return value
    if kind == "power_of_p":
        scale = _as_number(raw.get("scale", 1.0), f"{path}.scale")
        exponent = _as_number(_require(raw, "exponent", path), f"{path}.exponent")
        p_star = _as_number(raw.get("p_star", _SIGMA_P_STAR), f"{path}.p_star")
        if scale <= 0:
            raise ConfigError(f"{path}.scale: must be > 0")

        def sigma_at(p: float) -> float:
            return scale * abs(p - p_star) ** exponent

        return sigma_at
    raise ConfigError(f"{path}.kind: unknown noise kind {kind!r}")


def _build_noise_matrix(raw, dim: int, path: str) -> np.ndarray:
    if raw is None:
        return np.eye(dim)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a matrix as a list of rows")
    mat = np.zeros((len(raw), len(raw)), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise ConfigError(f"{path}[{i}]: expected a row of length {len(raw)}")
        for j, entry in enumerate(row):
            mat[i, j] = _as_complex(entry, f"{path}[{i}][{j}]")
    return mat


def _build_spectral_model(raw: dict, path: str) -> SpectralModel:
    curves = _build_curves(_require(raw, "curves", path), f"{path}.curves")
    critical = _as_int(_require(raw, "critical_index", path), f"{path}.critical_index")
    jordan_raw = raw.get("jordan_sizes", {})
    jordan_raw = _as_mapping(jordan_raw, f"{path}.jordan_sizes")
    jordan = {}
    for key, val in jordan_raw.items():
        try:
            cid = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.jordan_sizes: key {key!r} is not a curve id") from None
        size = _as_int(val, f"{path}.jordan_sizes[{key}]")
        if size < 1:
            raise ConfigError(f"{path}.jordan_sizes[{key}]: block size must be >= 1")
        jordan[cid] = size
    dim = sum(jordan.get(c.id, 1) for c in curves)
    noise = _build_noise_matrix(raw.get("noise_matrix"), dim, f"{path}.noise_matrix")
    sigma = _build_sigma(raw.get("sigma"), f"{path}.sigma")
    try:
        return SpectralModel(
            curves=curves,
            noise_matrix=noise,
            critical_index=critical,
            jordan_sizes=jordan,
            sigma=sigma,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _symbol_function(raw: dict, path: str):
    kind = _require(raw, "kind", path)
    if kind == "neg_square":
        return lambda x: -np.square(x)
    if kind == "constant":
        value = _as_number(_require(raw, "value", path), f"{path}.value")
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if kind == "piecewise":
        pieces = _require(raw, "pieces", path)
        if not isinstance(pieces, list) or not pieces:
            raise ConfigError(f"{path}.pieces: expected a non-empty list")
        default = _as_number(raw.get("default", 0.0), f"{path}.default")
        parsed = []
        for i, piece in enumerate(pieces):
            ppath = f"{path}.pieces[{i}]"
            piece = _as_mapping(piece, ppath)
            lo = _as_number(_require(piece, "lo", ppath), f"{ppath}.lo")
            hi = _as_number(_require(piece, "hi", ppath), f"{ppath}.hi")
            val = _as_number(_require(piece, "value", ppath), f"{ppath}.value")
            if hi <= lo:
                raise ConfigError(f"{ppath}: hi must exceed lo")
            parsed.append((lo, hi, val))

        def f(x):
            arr = np.asarray(x, dtype=float)
            out = np.full_like(arr, default)
            for lo, hi, val in parsed:
                out = np.where((arr >= lo) & (arr <= hi), val, out)
            return out

        return f
    raise ConfigError(f"{path}.kind: unknown symbol kind {kind!r}")


def _build_multiplication_model(raw: dict, path: str) -> MultiplicationSymbolModel:
    symbol_raw = _as_mapping(_require(raw, "symbol", path), f"{path}.symbol")
    if symbol_raw.get("kind") == "table":
        x = symbol_raw.get("x")
        fx = symbol_raw.get("fx")
        if not isinstance(x, list) or not isinstance(fx, list):
            raise ConfigError(f"{path}.symbol: table kind requires x and fx lists")
        try:
            return MultiplicationSymbolModel.from_table(x, fx)
        except ValueError as exc:
            raise ConfigError(f"{path}.symbol: {exc}") from exc
    f = _symbol_function(symbol_raw, f"{path}.symbol")
    grid_raw = _as_mapping(raw.get("grid", {}), f"{path}.grid")
    lo = _as_number(grid_raw.get("lo", -DEFAULT_HALF_WIDTH), f"{path}.grid.lo")
    hi = _as_number(grid_raw.get("hi", DEFAULT_HALF_WIDTH), f"{path}.grid.hi")
    spacing = _as_number(grid_raw.get("spacing", DEFAULT_SPACING), f"{path}.grid.spacing")
    try:
        return MultiplicationSymbolModel.from_function(f, lo=lo, hi=hi, spacing=spacing)
    except ValueError as exc:
        raise ConfigError(f"{path}.grid: {exc}") from exc


def _build_sweep(raw, path: str) -> SweepSettings:
    raw = _as_mapping(raw, path)
    start = _as_number(_require(raw, "start", path), f"{path}.start")
    count = _as_int(_require(raw, "count", path), f"{path}.count")
    if count < 1:
        raise ConfigError(f"{path}.count: must be >= 1")
    factor = _as_number(raw.get("factor", 0.5), f"{path}.factor")
    stop = raw.get("stop")
    if stop is not None:
        stop = _as_number(stop, f"{path}.stop")
    spacing = raw.get("spacing", "geometric")
    if spacing not in ("geometric", "linear"):
        raise ConfigError(f"{path}.spacing: expected 'geometric' or 'linear'")
    if spacing == "linear" and stop is None:
        raise ConfigError(f"{path}.stop: required for linear spacing")
    if spacing == "geometric" and not (0.0 < factor < 1.0):
        raise ConfigError(f"{path}.factor: must lie in (0, 1)")
    return SweepSettings(start=start, count=count, factor=factor, stop=stop, spacing=spacing)


def _build_engine(raw, path: str) -> EnsembleConfig | None:
    if raw is None:
        return None
    raw = _as_mapping(raw, path)
    kind = _require(raw, "kind", path)
    if kind == "analytic":
        return None
    if kind != "empirical":
        raise ConfigError(f"{path}.kind: unknown engine kind {kind!r}")
    dt = _as_number(_require(raw, "dt", path), f"{path}.dt")
    horizon = _as_number(_require(raw, "horizon", path), f"{path}.horizon")
    n_traj = _as_int(_require(raw, "n_trajectories", path), f"{path}.n_trajectories")
    seed = _as_int(_require(raw, "master_seed", path), f"{path}.master_seed")
    burn = _as_number(raw.get("burn_in", 0.5), f"{path}.burn_in")
    try:
        cfg = EnsembleConfig(
            dt=dt, horizon=horizon, n_trajectories=n_traj, master_seed=seed, burn_in=burn
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the model it describes."""
    raw = _as_mapping(raw, "config")
    name = raw.get("name", "experiment")
    if not isinstance(name, str):
        raise ConfigError("name: expected a string")

    model_raw = _as_mapping(_require(raw, "model", "config"), "model")
    kind = _require(model_raw, "kind", "model")
    if kind == "spectral":
        model = _build_spectral_model(model_raw, "model")
    elif kind == "multiplication":
        model = _build_multiplication_model(model_raw, "model")
    else:
        raise ConfigError(f"model.kind: unknown model kind {kind!r}")

    sweep = _build_sweep(_require(raw, "sweep", "config"), "sweep")
    ensemble = _build_engine(raw.get("engine"), "engine")
    if ensemble is not None and kind != "spectral":
        raise ConfigError("engine.kind: 'empirical' requires a spectral model")

    quantities_raw = _require(raw, "quantities", "config")
    if not isinstance(quantities_raw, list) or not quantities_raw:
        raise ConfigError("quantities: expected a non-empty list")
    quantities = []
    for i, q in enumerate(quantities_raw):
        try:
            spec = parse_quantity(q)
            _validate_specs(model, [spec])
            quantities.append(spec.name)
        except ValueError as exc:
            raise ConfigError(f"quantities[{i}]: {exc}") from exc

    weyl_raw = _as_mapping(raw.get("weyl", {}), "weyl")
    k_values = []
    if "k_values" in weyl_raw:
        if not isinstance(weyl_raw["k_values"], list):
            raise ConfigError("weyl.k_values: expected a list of integers")
        for i, k in enumerate(weyl_raw["k_values"]):
            k = _as_int(k, f"weyl.k_values[{i}]")
            if k < 1:
                raise ConfigError(f"weyl.k_values[{i}]: must be >= 1")
            k_values.append(k)

    windows_raw = _as_mapping(raw.get("fit_windows", {}), "fit_windows")
    swept = set(quantities) | {f"weyl_pairing:{k}" for k in k_values}
    fit_windows = {}
    for raw_key, win in windows_raw.items():
        try:
            key = parse_quantity(raw_key).name
        except ValueError as exc:
            raise ConfigError(f"fit_windows.{raw_key}: {exc}") from exc
        if key not in swept:
            raise ConfigError(f"fit_windows.{raw_key}: {key!r} is neither a configured "
                              "quantity nor a weyl_pairing of weyl.k_values")
        if key in fit_windows:
            raise ConfigError(f"fit_windows.{raw_key}: a second window for {key!r}")
        if isinstance(win, str):
            if win not in ("last_decade", "all"):
                raise ConfigError(f"fit_windows.{raw_key}: unknown window {win!r}")
            fit_windows[key] = win
        elif isinstance(win, list) and len(win) == 2:
            lo = _as_number(win[0], f"fit_windows.{raw_key}[0]")
            hi = _as_number(win[1], f"fit_windows.{raw_key}[1]")
            fit_windows[key] = (lo, hi)
        else:
            raise ConfigError(f"fit_windows.{raw_key}: expected a window name or [lo, hi]")

    output_raw = _as_mapping(raw.get("output", {}), "output")
    directory = output_raw.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory: expected a string")
    formats_raw = output_raw.get("formats", list(_FORMATS))
    if not isinstance(formats_raw, list) or not formats_raw:
        raise ConfigError("output.formats: expected a non-empty list")
    for i, fmt in enumerate(formats_raw):
        if fmt not in _FORMATS:
            raise ConfigError(f"output.formats[{i}]: expected 'csv' or 'json'")

    bracket_raw = raw.get("p_star_bracket", [-100.0, 100.0])
    if not isinstance(bracket_raw, list) or len(bracket_raw) != 2:
        raise ConfigError("p_star_bracket: expected [lo, hi]")
    b_lo = _as_number(bracket_raw[0], "p_star_bracket[0]")
    b_hi = _as_number(bracket_raw[1], "p_star_bracket[1]")
    if b_hi <= b_lo:
        raise ConfigError("p_star_bracket: hi must exceed lo")

    validation_raw = _as_mapping(raw.get("validation", {}), "validation")
    budget = _as_number(validation_raw.get("lipschitz_budget", 1e3), "validation.lipschitz_budget")
    if budget <= 0:
        raise ConfigError("validation.lipschitz_budget: must be > 0")
    gap = _as_number(validation_raw.get("spectral_gap", 1e-6), "validation.spectral_gap")
    if gap <= 0:
        raise ConfigError("validation.spectral_gap: must be > 0")

    return ExperimentConfig(
        name=name,
        model=model,
        sweep=sweep,
        quantities=tuple(quantities),
        ensemble=ensemble,
        weyl_k_values=tuple(k_values),
        fit_windows=fit_windows,
        output_directory=directory,
        output_formats=tuple(dict.fromkeys(formats_raw)),
        p_star_bracket=(b_lo, b_hi),
        lipschitz_budget=budget,
        spectral_gap=gap,
        echo=raw,
    )


def check_noise_threshold(cfg: ExperimentConfig, p_star: float) -> None:
    """Reject a power_of_p noise law whose p_star is not the computed p*.

    Such a law is meant to vanish at the threshold; a mismatch leaves
    sigma(p*) > 0 and silently changes the finite-limit or vanishing verdict.
    """
    sigma = cfg.echo["model"].get("sigma")
    if not isinstance(sigma, dict) or sigma.get("kind") != "power_of_p":
        return
    declared = float(sigma.get("p_star", _SIGMA_P_STAR))
    if abs(declared - p_star) > _P_STAR_TOL * max(1.0, abs(p_star)):
        raise ConfigError(
            f"model.sigma.p_star: {declared!r} differs from the computed p* = {p_star!r}"
        )


def load_config(path) -> ExperimentConfig:
    """Read and resolve a JSON config file.

    Raises:
        ConfigError: unreadable file, invalid JSON, or schema violations.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return resolve_config(raw)
