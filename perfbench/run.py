#!/usr/bin/env python3
"""Benchmark for warnlab: runs CLI workloads in-process and prints metrics.

    python3 perfbench/run.py --workload closed_form_cli --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; warnlab is imported from ``src/``.
One single-threaded driver calls ``warnlab.cli.main`` with ``--threads 2``
for every operation of the workload, pass after pass, and checks each
operation's outputs (see ``workloads.py``). The number of passes follows from
``--seconds`` and the workload, so that a run does the same work on every
commit. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's layers (see ``spans.py``) and prints per-layer metrics instead,
plus the tracing overhead against the last untraced run of the workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run records and spans
are written under ``perfbench/_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN = BENCH / "_run"
# Set-up is sampled half before and half after the timed region, so that the
# median spans more of the machine's load swings than one burst would.
SETUP_REPEATS = 6
PROBE_TIMEOUT_S = 60
# Seconds one pass took at the baseline on a 2-core x86 box. A run does
# round(seconds / nominal) passes whatever the speed of the code under test.
NOMINAL_PASS_S = {"closed_form_cli": 0.046, "mc_acceptance": 7.5, "mc_long_horizon": 4.6}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "pass_p50_ms": "ms",
                    "pass_p90_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count"}
COUNTER_UNITS = {"scaling.points": "count", "scaling.sweep_parallelism": "ratio",
                 "sde.traj_steps": "count", "sde.s_per_traj_step": "s",
                 "sde.alloc_peak_mb": "MB"}


def call(cli, argv):
    """Run one CLI command in-process; return (exit status, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raising command is a failed operation; the run goes on
        rc = f"exception {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def setup(workload: str, seed: int, work_dir: Path):
    """Import the CLI, write the workload's inputs and warm up.

    Warm-up runs one untimed pass of the closed-form workload, or validates
    the Monte Carlo configs and runs the small bundled simulation. Its
    outcome is not checked: the timed passes check every operation.
    """
    import warnlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"warnlab imported from {cli.__file__}, not from {SRC}")
    ops = workloads.build_ops(workload, seed, ROOT / "configs", work_dir)
    if workload == "closed_form_cli":
        warm = [op.argv for op in ops]
    else:
        warm = [["validate", "--config", op.argv[2]] for op in ops]
        warm.append(["simulate", "--config", str(ROOT / "configs" / "single_mode_mc.json"),
                     "--threads", workloads.THREADS, "--out", str(work_dir / "warm")])
    for argv in warm:
        call(cli, argv)
    return cli, ops


def measure_setup(args, env, count: int) -> list:
    """Wall seconds of ``count`` fresh interpreters that each import the CLI,
    write the inputs and warm up, one after another."""
    samples = []
    for _ in range(count):
        probe_dir = RUN / args.workload / "probe"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", str(probe_dir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return samples


def run_passes(cli, ops, passes: int):
    checker = workloads.Checker()
    pass_s, failures, attempted = [], [], 0
    start = time.perf_counter()
    for _ in range(passes):
        total = 0.0
        for op in ops:
            rc, stdout, seconds = call(cli, op.argv)
            total += seconds
            attempted += 1
            problems = checker.check(op, rc, stdout)
            if problems:
                failures.append(f"{op.label}: {'; '.join(problems)}")
        pass_s.append(total)
    return time.perf_counter() - start, pass_s, attempted, failures, checker


def run_record() -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "warnlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "warnlab" / "cli.py").is_file():
        print(f"error: no warnlab sources under {SRC}", file=sys.stderr)
        return 2
    log_level = os.environ.pop("WARNLAB_LOG", None)  # timed runs log nothing
    sys.path.insert(0, str(SRC))
    if args.probe:
        setup(args.workload, args.seed, Path(args.probe))
        return 0

    shutil.rmtree(RUN / args.workload, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    record = run_record()
    record["warnlab_log_cleared"] = log_level
    setup_samples = measure_setup(args, env, SETUP_REPEATS // 2)
    cli, ops = setup(args.workload, args.seed, RUN / args.workload / "main")
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        # one untimed pass measures the allocation peak; the timed passes
        # then run without tracemalloc
        run_passes(cli, ops, 1)
        tracer.spans.clear()
        tracer.track_alloc = False
    wall, pass_s, attempted, failures, checker = run_passes(cli, ops, passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += measure_setup(args, env, SETUP_REPEATS - SETUP_REPEATS // 2)
    record["loadavg_end"] = os.getloadavg()

    steps = passes * sum(workloads.trajectory_steps(op) for op in ops)
    summary = {
        "error_rate": (len(failures) / attempted, "ratio"),
        "traj_steps_per_s": (steps / wall, "1/s") if steps else None,
        "mc_within_3se_frac": ((checker.within_3se / checker.mc_entries, "ratio")
                               if checker.mc_entries else None),
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "pass_p50_ms": 1000.0 * statistics.median(pass_s),
            "pass_p90_ms": 1000.0 * (statistics.quantiles(pass_s, n=10, method="inclusive")[8]
                                     if len(pass_s) > 1 else pass_s[0]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layer = tracer.layer_metrics()
        units = {f"{l}.{k}": u for l in LAYERS for k, u in LAYER_UNITS.items()}
        units.update(COUNTER_UNITS)
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        base = RUN / f"{args.workload}-trace0.json"
        if base.is_file():
            untraced = json.loads(base.read_text())
            if untraced["passes"] == passes:
                summary["tracing_overhead"] = (wall / untraced["metrics"]["wall_s"]["value"],
                                               "ratio")
    summary = {k: v for k, v in summary.items() if v is not None}

    RUN.mkdir(parents=True, exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=passes, operations=[op.label for op in ops],
                  attempted=attempted, failed=len(failures), failures=failures[:20],
                  setup_samples_s=setup_samples, pass_ms=[1000.0 * s for s in pass_s],
                  metrics=metrics, summary={k: v[0] for k, v in summary.items()})
    if tracer is not None:
        record["missing"] = tracer.missing
        (RUN / f"{args.workload}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "layer", "name", "start", "end", "error", "work"],
             "spans": tracer.spans}))
    (RUN / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(ops)} operations, "
          f"{attempted} attempted, {len(failures)} failed")
    for msg in failures[:5]:
        print(f"  FAILED {msg}")
    if tracer is not None and tracer.missing:
        print(f"  missing wrapped names: {', '.join(tracer.missing)}")
    rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in summary.items()]
    for name, value, unit in rows:
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
