"""Command line front end.

Subcommands:
    analytic   closed-form sweep of the configured quantities
    simulate   Monte Carlo sweep (config must declare an empirical engine)
    weyl       Weyl-vector pairing probe for multiplication models
    validate   run the pre-flight alone and summarize the config

Every command loads its config, which resolves p* and the grid (NumericalError
for a model without a p*, one with no rising curve) and checks the spectral
gap around the model's own critical curve (spectral models) or every Weyl
vector's support (multiplication models); then it checks its own
requirements (simulate's empirical engine, weyl's multiplication model and
k_values) and runs the one pre-flight (``_preflight``): the closed form of
the quantities it reports over the whole grid, and the mixing warning. So a
config that ``validate`` rejects fails every command that accepts its kind
alike.

analytic reports the pre-flight's closed form and simulate audits its Monte
Carlo sweep against it; weyl's pre-flight sweeps the configured quantities
and the ``weyl_pairing:k`` quantities of ``weyl.k_values`` together, and it
reports the pairings. The three sweep commands report through one
builder (``_sweep_report``): each quantity's series, its power-law fit
(fitted once) and the verdict classified from that fit, with the command's
and each grid point's wall time. simulate adds its seed record and Monte
Carlo diagnostics, weyl each Weyl vector's defect. This module is the only
one that writes files. Every path a sweep command will write is checked
after the pre-flight (``_planned_outputs``), so an output that cannot be
written fails the run before any file changes; each file is then written
in one write over its old bytes (``_write_file``).

Exit codes: 0 success, 2 configuration error (an output that cannot be
written included), 3 numerical failure. The WARNLAB_LOG environment
variable (error, info, debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import logging
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import ConfigError, NumericalError
from .scaling import classify_warning_sign, fit_quantity, run_parameter_sweep
from .sde import _mixing
from .spectrum import MultiplicationSymbolModel, SpectralModel, spectral_abscissa, weyl_defect

_SCHEMA_VERSION = 1

log = logging.getLogger("warnlab")
_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class _StderrHandler(logging.StreamHandler):
    """Writes each record to sys.stderr as it is then; an assigned stream is ignored."""
    stream = property(lambda self: sys.stderr, lambda self, stream: None)


_log_handler = _StderrHandler()
_log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _setup_logging() -> None:
    """Set the warnlab logger's level from WARNLAB_LOG (error when unset or
    unknown), anew at every main() call, and log its records to sys.stderr."""
    level_name = os.environ.get("WARNLAB_LOG", "error").lower()
    log.setLevel(_LOG_LEVELS.get(level_name, logging.ERROR))
    log.addHandler(_log_handler)  # a no-op once added


def _sanitize(name: str) -> str:
    return re.sub(r"[:,]", "_", name)


def _resolve_formats(args, cfg: ExperimentConfig) -> tuple:
    if args.format is None:
        return cfg.output_formats
    if args.format == "both":
        return ("csv", "json")
    return (args.format,)


def _preflight(cfg: ExperimentConfig, names):
    """What every command runs first on its loaded config: the closed-form
    sweep of the quantities ``names`` over the whole grid, returned with
    ``sde._mixing`` (None without an ensemble). A noise law, a drift that is
    not strictly stable or a quantity that is not finite at a grid point
    fails with the sweep's own "sweep failed at p=..." line, and a horizon
    too short to mix warns.
    """
    log.info("bifurcation parameter p* = %r", cfg.p_star)
    exact = run_parameter_sweep(cfg.model, cfg.grid, names)
    mixing = None if cfg.ensemble is None else _mixing(
        cfg.ensemble.horizon, [spectral_abscissa(cfg.model, float(p)) for p in cfg.grid])
    if mixing is not None and mixing[1] is not None:
        print("warning: horizon is short against the slowest relaxation time "
              f"({mixing[1]} on the grid)", file=sys.stderr)
    return exact, mixing


def _planned_outputs(cfg, args, names) -> tuple[Path, dict, Path | None]:
    """The output directory, the CSV path of each quantity in ``names``
    (canonical, as the sweep keys its series) and the report path (None when
    no report is written). Checked before anything is written, so that a
    run that cannot write every output writes none: an existing output
    directory must be a directory and each output file absent or a regular
    file, else a ConfigError naming the path."""
    outdir = Path(args.out) if args.out else Path(cfg.output_directory)
    formats = _resolve_formats(args, cfg)
    csvs = {name: outdir / f"sweep_{_sanitize(name)}.csv" for name in names} \
        if "csv" in formats else {}
    report = outdir / "report.json" if "json" in formats else None
    path = outdir
    try:
        if outdir.exists() and not outdir.is_dir():
            raise ConfigError(f"output {outdir}: cannot write (not a directory)")
        for path in filter(None, [*csvs.values(), report]):
            if path.exists() and not path.is_file():
                raise ConfigError(f"output {path}: cannot write (not a regular file)")
    except OSError as exc:
        raise ConfigError(f"output {path}: cannot write ({exc.strerror or exc})") from exc
    return outdir, csvs, report


def _write_file(path, data: bytes) -> None:
    """Make ``data`` the whole content of ``path`` (created with mode
    0o666 & ~umask, as ``open(path, "w")`` does): write over the old bytes,
    then truncate to ``len(data)``. Opening with O_TRUNC would empty the file
    first, and on ext4 closing a file truncated to zero starts its writeback,
    which costs an order of magnitude more than the write."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _sweep_csv(sweep, quantity: str) -> bytes:
    """One quantity series as CSV with columns
    p,quantity,value,stderr,provenance (stderr blank for analytic rows;
    provenance is the sweep's engine), rows ended by \\r\\n."""
    errs = sweep.stderrs.get(quantity)
    errs = [""] * sweep.p_values.size if errs is None else [repr(e) for e in errs.tolist()]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["p", "quantity", "value", "stderr", "provenance"])
    for p, v, err in zip(sweep.p_values.tolist(), sweep.quantities[quantity].tolist(), errs):
        writer.writerow([repr(p), quantity, repr(v), err, sweep.engine])
    return buf.getvalue().encode()


def _write_outputs(outputs, sweep, report: dict) -> None:
    """Write the sweep's CSVs and the report to the paths of
    ``_planned_outputs``, each file with ``_write_file``; an OSError on the
    way is a ConfigError naming the path."""
    outdir, csvs, report_path = outputs
    path = outdir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, path in csvs.items():
            _write_file(path, _sweep_csv(sweep, name))
            log.info("wrote %s", path)
        if report_path is not None:
            path = report_path
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
        "p_values": sweep.p_values.tolist(),
        "values": sweep.quantities[name].tolist(),
        "stderr": None if errs is None else errs.tolist(),
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
    verdict = classify_warning_sign(fit, xi)
    result["fit"] = dict(vars(fit))
    result["verdict"] = dict(vars(verdict))
    print(f"{name}: exponent {fit.exponent:.6g} (r^2 {fit.r_squared:.6g}) "
          f"-> {verdict.classification}")
    return result


def _sweep_report(command, cfg, sweep, elapsed) -> dict:
    """The report every sweep command writes: config echo, p*, timings (the
    whole command and each grid point), one result per quantity and, for a
    power_of_p noise law, the model's noise limit Xi (reported once, with
    its kind: finite, zero or diverging, and read by each verdict)."""
    model = cfg.model
    xi = model.noise_limit_xi \
        if isinstance(model, SpectralModel) and model.sigma_depends_on_p else None
    report = {
        "schema_version": _SCHEMA_VERSION,
        "command": command,
        "name": cfg.name,
        "config_echo": cfg.echo,
        "p_star": sweep.p_star,
        "timing": {
            "seconds": elapsed,
            "points": [{"p": p, "seconds": s}
                       for p, s in zip(sweep.p_values.tolist(), sweep.point_seconds)],
        },
        "results": {name: _quantity_result(cfg, sweep, name, xi) for name in sweep.quantities},
    }
    if xi is not None:
        finite = cmath.isfinite(xi)
        report["noise_limit_xi"] = {
            "kind": "diverging" if not finite else "zero" if xi == 0 else "finite",
            "value": [xi.real, xi.imag] if finite else None,
        }
    return report


def _mc_diagnostics(sweep, exact, ratios) -> dict:
    """Audit of a Monte Carlo sweep against ``exact``, the pre-flight's
    closed-form sweep of the same grid: for each point the mixing ratio
    horizon * |spectral abscissa| and, for each quantity, the closed-form |V|
    and the z-score (value - closed_form) / stderr (None at zero stderr),
    plus the share of estimates within 3 standard errors."""
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


def cmd_analytic(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    sweep, _ = _preflight(cfg, cfg.quantities)
    outputs = _planned_outputs(cfg, args, cfg.quantities)
    elapsed = time.perf_counter() - start
    report = _sweep_report("analytic", cfg, sweep, elapsed)
    _write_outputs(outputs, sweep, report)
    return 0


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    if cfg.ensemble is None:
        raise ConfigError("engine.kind: command 'simulate' requires an empirical engine")
    ensemble = cfg.ensemble
    if args.seed is not None:
        ensemble = replace(ensemble, master_seed=args.seed)
    exact, (ratios, short) = _preflight(cfg, cfg.quantities)
    outputs = _planned_outputs(cfg, args, cfg.quantities)
    log.info("simulating %d grid points, %d trajectories each",
             cfg.grid.size, ensemble.n_trajectories)
    sweep = run_parameter_sweep(cfg.model, cfg.grid, cfg.quantities, config=ensemble,
                                threads=args.threads)
    elapsed = time.perf_counter() - start
    report = _sweep_report("simulate", cfg, sweep, elapsed)
    report["seed_record"] = {
        "master_seed": ensemble.master_seed,
        "point_seeds": list(sweep.point_seeds),
    }
    report["diagnostics"] = diagnostics = _mc_diagnostics(sweep, exact, ratios)
    report["mixing_warning"] = short is not None
    if diagnostics["within_3se_frac"] < 0.95:
        print(f"warning: only {diagnostics['within_3se_frac']:.1%} of the estimates lie "
              "within 3 standard errors of the closed forms", file=sys.stderr)
    _write_outputs(outputs, sweep, report)
    return 0


def cmd_weyl(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    model = cfg.model
    if not isinstance(model, MultiplicationSymbolModel):
        raise ConfigError("model.kind: command 'weyl' requires a multiplication model")
    if not cfg.weyl_k_values:
        raise ConfigError("weyl.k_values: required for the weyl command")
    names = [f"weyl_pairing:{k}" for k in cfg.weyl_k_values]
    sweep, _ = _preflight(cfg, list(dict.fromkeys([*cfg.quantities, *names])))
    outputs = _planned_outputs(cfg, args, names)
    sweep = replace(sweep, quantities={name: sweep.quantities[name] for name in names})
    defects = {k: weyl_defect(model, sweep.weyl_vectors[k], model.esssup)
               for k in cfg.weyl_k_values}
    elapsed = time.perf_counter() - start
    report = _sweep_report("weyl", cfg, sweep, elapsed)
    print(f"{'k':>6} {'defect':>14}")
    for k, defect in defects.items():
        report["results"][f"weyl_pairing:{k}"]["defect"] = defect
        print(f"{k:>6} {defect:>14.6e}")
    report["weyl"] = {
        "k_values": list(cfg.weyl_k_values),
        "center": sweep.weyl_vectors[cfg.weyl_k_values[0]].center,
        "defects": {str(k): v for k, v in defects.items()},
    }
    _write_outputs(outputs, sweep, report)
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    model, grid = cfg.model, cfg.grid
    _preflight(cfg, cfg.quantities)
    abscissae = [spectral_abscissa(model, float(p)) for p in (grid[0], grid[-1])]
    if isinstance(model, SpectralModel):
        kind, modes = "spectral", model.total_dim
    else:
        kind, modes = "multiplication", model.grid.size
    print(f"config OK: {kind} model with {modes} modes, {len(cfg.quantities)} "
          f"quantities, p* = {cfg.p_star!r}, grid of {grid.size} points in "
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
                       help="worker processes for Monte Carlo trajectory chunks, clamped to "
                            "the core count, and to one off Linux (default: all cores); "
                            "other commands ignore it")
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
