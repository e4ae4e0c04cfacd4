"""Command line front end.

Subcommands:
    analytic   closed-form sweep of the configured quantities
    simulate   Monte Carlo sweep (config must declare an empirical engine)
    weyl       Weyl-vector pairing probe for multiplication models
    validate   run the pre-flight alone and summarize the config

Every command runs the same pre-flight before it sweeps (``_preflight``): p*,
the power_of_p noise threshold, the grid, curve continuity and the spectral
gap (spectral models) or every Weyl vector's support (multiplication models),
then strict stability of the drift at every grid point and the mixing
warning. Only a command's own requirements (simulate's empirical engine,
weyl's multiplication model and k_values) are checked before it, so a config
that ``validate`` rejects fails every command that accepts its kind with the
same exit code and message.

The three sweep commands report through one builder (``_sweep_report``):
each quantity's series, its power-law fit (fitted once) and the verdict
classified from that fit, with the command's and each grid point's wall
time. simulate adds its seed record and Monte Carlo diagnostics, weyl each
Weyl vector's defect.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written included), 3 numerical failure. The WARNLAB_LOG environment
variable (error, info, debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .config import ExperimentConfig, check_noise_threshold, load_config
from .errors import ConfigError, NumericalError
from .lyapunov import noise_limit_xi
from .scaling import (
    _classify,
    _write_file,
    fit_quantity,
    make_p_grid,
    parse_quantity,
    run_parameter_sweep,
    weyl_divergence_probe,
    write_sweep_csv,
)
from .sde import _mixing, splitmix64
from .spectrum import (
    MultiplicationSymbolModel,
    SpectralModel,
    _weyl_support,
    bifurcation_parameter,
    curve_continuity_violations,
    spectral_abscissa,
    weyl_defect,
)

_SCHEMA_VERSION = 1

log = logging.getLogger("warnlab")
_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
_log_handler = logging.StreamHandler()
_log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _setup_logging() -> None:
    """Send the warnlab logger to the current sys.stderr at the level
    WARNLAB_LOG names (error when unset or unknown). Every main() call
    applies both anew, so an in-process caller may change either between
    calls."""
    level_name = os.environ.get("WARNLAB_LOG", "error").lower()
    log.setLevel(_LOG_LEVELS.get(level_name, logging.ERROR))
    # assigned, not setStream(): that flushes the previous stream, which an
    # earlier caller may have closed since
    _log_handler.stream = sys.stderr
    if _log_handler not in log.handlers:
        log.addHandler(_log_handler)


def _sanitize(name: str) -> str:
    return re.sub(r"[:,]", "_", name)


def _resolve_formats(args, cfg: ExperimentConfig) -> tuple:
    if args.format is None:
        return cfg.output_formats
    if args.format == "both":
        return ("csv", "json")
    return (args.format,)


def _preflight(cfg: ExperimentConfig):
    """The checks every command runs before it sweeps; returns (p*, grid,
    spectral abscissa at each grid point, ``sde._mixing`` of an ensemble).

    For spectral models: the power_of_p noise law vanishes at p* and has the
    two grid points its limit Xi needs, the curves are continuous on the
    grid, and one curve alone enters the spectral gap at p*. For
    multiplication models: every Weyl vector, of ``weyl.k_values`` or a
    quantity, has 3 grid points in its support. For every model the drift is
    strictly stable at each grid point, and an empirical horizon too short to
    mix at some grid point is warned of.
    """
    model = cfg.model
    p_star = bifurcation_parameter(model, cfg.p_star_bracket)
    log.info("bifurcation parameter p* = %r", p_star)
    spectral = isinstance(model, SpectralModel)
    if spectral:
        check_noise_threshold(cfg, p_star)
    s = cfg.sweep
    try:
        grid = make_p_grid(p_star, s.start, s.count, factor=s.factor, stop=s.stop,
                           spacing=s.spacing)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if spectral:
        if model.sigma_depends_on_p and grid.size < 2:
            raise ConfigError("sweep.count: a power_of_p noise law needs at least 2 grid "
                              "points for its noise limit Xi")
        violations = curve_continuity_violations(model, grid, cfg.lipschitz_budget)
        if violations:
            for cid, p_lo, p_hi, jump in violations:
                print(f"curve {cid}: jump {jump:.3e} between p={p_lo!r} and p={p_hi!r}",
                      file=sys.stderr)
            raise NumericalError(
                f"{len(violations)} eigenvalue curve continuity violations on the sweep grid"
            )
        for k, lam, _, _ in model.modes(p_star):
            if k != model.critical_index and lam.real > -cfg.spectral_gap:
                raise ConfigError(
                    f"model.curves: curve {k} has Re(lambda) = {lam.real:.6g} at p* = "
                    f"{p_star!r}, inside the spectral gap {cfg.spectral_gap:g} "
                    f"reserved for the critical curve {model.critical_index}"
                )
    else:
        weyl = [(f"weyl.k_values[{i}]", k) for i, k in enumerate(cfg.weyl_k_values)]
        weyl += [(f"quantities[{i}]", parse_quantity(q).k) for i, q in enumerate(cfg.quantities)
                 if q.startswith("weyl_pairing:")]
        for path, k in weyl:
            try:
                _weyl_support(model, k, float(model.argmax_points[0]))
            except NumericalError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    abscissae = [spectral_abscissa(model, float(p)) for p in grid]
    for p, a in zip(grid, abscissae):
        if a >= 0.0:
            raise NumericalError(
                f"drift not strictly stable at p={float(p)!r}: spectral abscissa {a:.6g}"
            )
    mixing = None if cfg.ensemble is None else _mixing(cfg.ensemble.horizon, abscissae)
    if mixing is not None and mixing[1] is not None:
        print("warning: horizon is short against the slowest relaxation time "
              f"({mixing[1]} on the grid)", file=sys.stderr)
    return p_star, grid, abscissae, mixing


def _write_outputs(cfg, args, sweep, report: dict) -> None:
    """Write the sweep's CSVs and the report, each file in one write over its
    old bytes (``scaling._write_file``); an OSError on the way is a
    ConfigError naming the path."""
    outdir = path = Path(args.out) if args.out else Path(cfg.output_directory)
    formats = _resolve_formats(args, cfg)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if "csv" in formats:
            for name in sweep.quantities:
                path = outdir / f"sweep_{_sanitize(name)}.csv"
                write_sweep_csv(sweep, name, path)
                log.info("wrote %s", path)
        if "json" in formats:
            path = outdir / "report.json"
            _write_file(path, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
            log.info("wrote %s", path)
    except OSError as exc:
        raise ConfigError(f"output {path}: cannot write ({exc.strerror or exc})") from exc
    print(f"outputs in {outdir}")


def _quantity_result(cfg, sweep, name, xi) -> dict:
    """Series, fit and verdict of one quantity as a report entry, from one
    fit; prints the fit line, or, when the series admits no power-law fit,
    the reason, which the entry then carries as ``fit_error``."""
    errs = sweep.stderrs.get(name)
    result = {
        "p_values": [float(p) for p in sweep.p_values],
        "values": [float(v) for v in sweep.quantities[name]],
        "stderr": None if errs is None else [float(e) for e in errs],
        "provenance": sweep.engine,
        "fit": None,
        "verdict": None,
    }
    # a failed fit (zero noise, degenerate series) must not discard the data
    try:
        fit = fit_quantity(sweep, name, cfg.fit_windows.get(name, "last_decade"))
    except NumericalError as exc:
        result["fit_error"] = str(exc)
        print(f"{name}: no power-law fit ({exc})")
        return result
    verdict = _classify(fit, xi)
    result["fit"] = asdict(fit)
    result["verdict"] = asdict(verdict)
    print(f"{name}: exponent {fit.exponent:.6g} (r^2 {fit.r_squared:.6g}) "
          f"-> {verdict.classification}")
    return result


def _sweep_report(command, cfg, sweep, xi, elapsed) -> dict:
    """The report every sweep command writes: config echo, p*, timings (the
    whole command and each grid point), one result per quantity and, for a
    power_of_p noise law, the noise limit Xi (reported once per sweep)."""
    report = {
        "schema_version": _SCHEMA_VERSION,
        "command": command,
        "name": cfg.name,
        "config_echo": cfg.echo,
        "p_star": sweep.p_star,
        "timing": {
            "seconds": elapsed,
            "points": [{"p": float(p), "seconds": s}
                       for p, s in zip(sweep.p_values, sweep.point_seconds)],
        },
        "results": {name: _quantity_result(cfg, sweep, name, xi) for name in sweep.quantities},
    }
    if xi is not None:
        val = complex(xi.value)
        report["noise_limit_xi"] = {
            "value": [val.real, val.imag],
            "converged": xi.converged,
            "samples": [[float(p), complex(v).real, complex(v).imag]
                        for p, v in xi.samples],
        }
    return report


def _mc_diagnostics(cfg, sweep, p_star: float, ratios) -> dict:
    """Audit of a Monte Carlo sweep against the closed forms: for each point
    the mixing ratio horizon * |spectral abscissa| and, for each quantity,
    the closed-form |V| and the z-score (value - closed_form) / stderr (None
    at zero stderr), plus the share of estimates within 3 standard errors."""
    exact = run_parameter_sweep(cfg.model, sweep.p_values, cfg.quantities, p_star=p_star)
    points = []
    hits = total = 0
    for i, p in enumerate(sweep.p_values):
        quantities = {}
        for name, values in sweep.quantities.items():
            value, closed = float(values[i]), float(exact.quantities[name][i])
            se = float(sweep.stderrs[name][i])
            quantities[name] = {"closed_form": closed,
                                "z": (value - closed) / se if se > 0.0 else None}
            total += 1
            hits += abs(value - closed) <= 3.0 * se
        points.append({"p": float(p), "mixing_ratio": ratios[i], "quantities": quantities})
    return {"points": points, "within_3se_frac": hits / total}


def _maybe_xi(model, grid):
    if isinstance(model, SpectralModel) and model.sigma_depends_on_p:
        return noise_limit_xi(model, grid)
    return None


def cmd_analytic(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    p_star, grid, _, _ = _preflight(cfg)
    sweep = run_parameter_sweep(cfg.model, grid, cfg.quantities, p_star=p_star)
    xi = _maybe_xi(cfg.model, grid)
    elapsed = time.perf_counter() - start
    report = _sweep_report("analytic", cfg, sweep, xi, elapsed)
    _write_outputs(cfg, args, sweep, report)
    return 0


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    if cfg.ensemble is None:
        raise ConfigError("engine.kind: command 'simulate' requires an empirical engine")
    ensemble = cfg.ensemble
    if args.seed is not None:
        ensemble = replace(ensemble, master_seed=args.seed & 0xFFFFFFFFFFFFFFFF)
    p_star, grid, _, (ratios, short) = _preflight(cfg)
    log.info("simulating %d grid points, %d trajectories each",
             grid.size, ensemble.n_trajectories)
    sweep = run_parameter_sweep(cfg.model, grid, cfg.quantities, config=ensemble,
                                p_star=p_star, threads=args.threads)
    xi = _maybe_xi(cfg.model, grid)
    elapsed = time.perf_counter() - start
    report = _sweep_report("simulate", cfg, sweep, xi, elapsed)
    report["seed_record"] = {
        "master_seed": ensemble.master_seed,
        "point_seeds": [splitmix64(ensemble.master_seed, i) for i in range(grid.size)],
    }
    report["diagnostics"] = diagnostics = _mc_diagnostics(cfg, sweep, p_star, ratios)
    report["mixing_warning"] = short is not None
    if diagnostics["within_3se_frac"] < 0.95:
        print(f"warning: only {diagnostics['within_3se_frac']:.1%} of the estimates lie "
              "within 3 standard errors of the closed forms", file=sys.stderr)
    _write_outputs(cfg, args, sweep, report)
    return 0


def cmd_weyl(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    model = cfg.model
    if not isinstance(model, MultiplicationSymbolModel):
        raise ConfigError("model.kind: command 'weyl' requires a multiplication model")
    if not cfg.weyl_k_values:
        raise ConfigError("weyl.k_values: required for the weyl command")
    _, grid, _, _ = _preflight(cfg)
    sweep = weyl_divergence_probe(model, cfg.weyl_k_values, grid)
    defects = {k: weyl_defect(model, sweep.weyl_vectors[k], model.esssup)
               for k in cfg.weyl_k_values}
    elapsed = time.perf_counter() - start
    report = _sweep_report("weyl", cfg, sweep, None, elapsed)
    print(f"{'k':>6} {'defect':>14}")
    for k, defect in defects.items():
        report["results"][f"weyl_pairing:{k}"]["defect"] = defect
        print(f"{k:>6} {defect:>14.6e}")
    report["weyl"] = {
        "k_values": list(cfg.weyl_k_values),
        "center": float(model.argmax_points[0]),
        "defects": {str(k): v for k, v in defects.items()},
    }
    _write_outputs(cfg, args, sweep, report)
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model
    p_star, grid, abscissae, _ = _preflight(cfg)
    if isinstance(model, SpectralModel):
        kind, modes = "spectral", model.total_dim
    else:
        kind, modes = "multiplication", model.grid.size
    print(f"config OK: {kind} model with {modes} modes, {len(cfg.quantities)} "
          f"quantities, p* = {p_star!r}, grid of {grid.size} points in "
          f"[{float(grid[0])!r}, {float(grid[-1])!r}], spectral abscissa "
          f"{abscissae[0]:.6g} -> {abscissae[-1]:.6g} across the sweep")
    ens = cfg.ensemble
    if ens is not None:
        print(f"planned work: {ens.n_trajectories} trajectories x {ens.n_steps} steps x "
              f"{grid.size} points = {ens.n_trajectories * ens.n_steps * grid.size} "
              "trajectory-steps")
    return 0


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 thread, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no
    state in it, and every parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="warnlab",
        description="Covariance scaling diagnostics for stochastic linear systems "
                    "near bifurcation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("analytic", cmd_analytic, "closed-form covariance sweep"),
        ("simulate", cmd_simulate, "Monte Carlo covariance sweep"),
        ("weyl", cmd_weyl, "Weyl-vector pairing probe"),
        ("validate", cmd_validate, "check a config without running a sweep"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=_thread_count, default=None,
                       help="worker threads for Monte Carlo trajectory chunks, clamped to "
                            "the core count (default: all cores); other commands ignore it")
        p.add_argument("--seed", type=int, default=None,
                       help="override the ensemble master seed")
        p.add_argument("--format", choices=["csv", "json", "both"], default=None,
                       help="output formats (overrides config)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
