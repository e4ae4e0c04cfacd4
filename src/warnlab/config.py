"""Experiment configuration: JSON in, validated model and run settings out.

Validation errors name the offending field by dotted path (for example
``model.curves[1].slope``) so a config can be fixed without reading code.
This module types the JSON; the model, engine, sweep and fit-window rules
are their constructors', ``make_p_grid``'s and ``parse_window``'s, whose
messages it prefixes with a path.
Once every other field checks out, p* and the sweep grid are resolved, so
load_config raises NumericalError for a model without a p*. Then come the
two rules the warning-sign laws ask of a config: one curve alone enters the
spectral gap at p* (spectral models), and every Weyl vector, of
``weyl.k_values`` or a quantity, has 3 grid points in its support around the
model's ``weyl_center`` (multiplication models).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError, NumericalError
from .scaling import _entry_index, make_p_grid, parse_quantity, parse_window
from .sde import EnsembleConfig
from .spectrum import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_SPACING,
    EigenvalueCurve,
    MultiplicationSymbolModel,
    SpectralModel,
    _weyl_support,
    bifurcation_parameter,
)

_FORMATS = ("csv", "json")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    name: str
    model: Any
    p_star: float
    grid: np.ndarray  # read-only, increasing toward p*
    quantities: tuple
    ensemble: EnsembleConfig | None  # None: the closed forms (engine kind "analytic")
    weyl_k_values: tuple
    fit_windows: dict
    output_directory: str
    output_formats: tuple
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
        try:
            curves.append(EigenvalueCurve(cid, slope, offset))
        except ValueError as exc:
            raise ConfigError(f"{cpath}.{exc}") from exc
    return curves


def _build_sigma(raw, path: str) -> tuple[float, float]:
    """(scale, exponent) of the law sigma(p) = scale * |p - p*| ** exponent."""
    if raw is None:
        return 1.0, 0.0
    raw = _as_mapping(raw, path)
    kind = _require(raw, "kind", path)
    if kind == "constant":
        return _as_number(_require(raw, "value", path), f"{path}.value"), 0.0
    if kind == "power_of_p":
        scale = _as_number(raw.get("scale", 1.0), f"{path}.scale")
        exponent = _as_number(_require(raw, "exponent", path), f"{path}.exponent")
        return scale, exponent  # anchored at the computed p*: an old p_star key is ignored
    raise ConfigError(f"{path}.kind: unknown noise kind {kind!r}")


def _build_noise_matrix(raw, path: str) -> np.ndarray | None:
    if raw is None:
        return None  # the model's identity
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
    jordan_raw = _as_mapping(raw.get("jordan_sizes", {}), f"{path}.jordan_sizes")
    jordan = {}
    for key, val in jordan_raw.items():
        try:
            cid = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.jordan_sizes: key {key!r} is not a curve id") from None
        jordan[cid] = _as_int(val, f"{path}.jordan_sizes[{key}]")
    noise = _build_noise_matrix(raw.get("noise_matrix"), f"{path}.noise_matrix")
    sigma, exponent = _build_sigma(raw.get("sigma"), f"{path}.sigma")
    try:
        return SpectralModel(
            curves=curves,
            noise_matrix=noise,
            critical_index=critical,
            jordan_sizes=jordan,
            sigma=sigma,
            sigma_exponent=exponent,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc  # each message starts with its field


def _symbol_function(raw: dict, path: str):
    kind = _require(raw, "kind", path)
    if kind == "neg_square":
        def neg_square(x):  # negated in place: no second grid-sized array
            square = np.square(x)
            return np.negative(square, out=square)

        return neg_square
    if kind == "constant":
        value = _as_number(_require(raw, "value", path), f"{path}.value")
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
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


def _build_sweep(raw, path: str) -> dict:
    """The sweep block's given values, JSON-typed, as ``make_p_grid`` keywords."""
    raw = _as_mapping(raw, path)
    sweep = {
        "start": _as_number(_require(raw, "start", path), f"{path}.start"),
        "count": _as_int(_require(raw, "count", path), f"{path}.count"),
    }
    if "factor" in raw:
        sweep["factor"] = _as_number(raw["factor"], f"{path}.factor")
    if raw.get("stop") is not None:
        sweep["stop"] = _as_number(raw["stop"], f"{path}.stop")
    if "spacing" in raw:
        sweep["spacing"] = raw["spacing"]
    return sweep


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
        raise ConfigError(f"{path}.{exc}") from exc  # each message starts with its field
    return cfg


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON document; build its model, p* and sweep grid,
    and check the spectral gap or the Weyl supports on them."""
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
            _entry_index(model, spec)
        except ValueError as exc:
            raise ConfigError(f"quantities[{i}]: {exc}") from exc
        if spec.name in quantities:
            raise ConfigError(f"quantities[{i}]: repeats {spec.name!r}")
        quantities.append(spec.name)

    weyl_raw = _as_mapping(raw.get("weyl", {}), "weyl")
    k_values = []
    if "k_values" in weyl_raw:
        if not isinstance(weyl_raw["k_values"], list):
            raise ConfigError("weyl.k_values: expected a list of integers")
        for i, k in enumerate(weyl_raw["k_values"]):
            k = _as_int(k, f"weyl.k_values[{i}]")
            if k < 1:
                raise ConfigError(f"weyl.k_values[{i}]: must be >= 1")
            if k in k_values:
                raise ConfigError(f"weyl.k_values[{i}]: repeats {k}")
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
        if isinstance(win, list) and len(win) == 2:  # JSON-typed, as the sweep block is
            win = [_as_number(w, f"fit_windows.{raw_key}[{i}]") for i, w in enumerate(win)]
        try:
            fit_windows[key] = parse_window(win)
        except ValueError as exc:
            raise ConfigError(f"fit_windows.{raw_key}: {exc}") from exc

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

    validation_raw = _as_mapping(raw.get("validation", {}), "validation")
    gap = _as_number(validation_raw.get("spectral_gap", 1e-6), "validation.spectral_gap")
    if gap <= 0:
        raise ConfigError("validation.spectral_gap: must be > 0")

    p_star = bifurcation_parameter(model)
    try:
        grid = make_p_grid(p_star, **sweep)
    except ValueError as exc:
        raise ConfigError(f"sweep.{exc}") from exc  # each message starts with its field
    grid.flags.writeable = False
    if isinstance(model, SpectralModel):
        for k, lam, _, _ in model.modes(p_star):
            if k != model.critical_index and lam.real > -gap:
                raise ConfigError(
                    f"model.curves: curve {k} has Re(lambda) = {lam.real:.6g} at p* = "
                    f"{p_star!r}, inside the spectral gap {gap:g} reserved for the "
                    f"critical curve {model.critical_index}")
    else:
        weyl = [(f"weyl.k_values[{i}]", k) for i, k in enumerate(k_values)]
        weyl += [(f"quantities[{i}]", parse_quantity(q).k) for i, q in enumerate(quantities)
                 if q.startswith("weyl_pairing:")]
        for path, k in weyl:
            try:
                _weyl_support(model, k, model.weyl_center)
            except NumericalError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig(
        name=name,
        model=model,
        p_star=p_star,
        grid=grid,
        quantities=tuple(quantities),
        ensemble=ensemble,
        weyl_k_values=tuple(k_values),
        fit_windows=fit_windows,
        output_directory=directory,
        output_formats=tuple(dict.fromkeys(formats_raw)),
        echo=raw,
    )


def load_config(path) -> ExperimentConfig:
    """Read and resolve a JSON config file.

    Raises:
        ConfigError: unreadable file, invalid JSON, schema violations, a
            second curve inside the spectral gap at p* or a Weyl vector
            with fewer than 3 grid points in its support.
        NumericalError: the model has no p*.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return resolve_config(raw)
