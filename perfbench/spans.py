"""Span tracing of warnlab from outside the package.

``Tracer.install`` replaces public functions of each layer module with timing
wrappers, under every name a warnlab module bound them to: ``cli`` imports
``run_parameter_sweep`` and ``scaling`` imports ``simulate_ensemble`` with
``from ... import``, so patching only the defining module would miss those
callers. Spans stay in memory until the run ends. A span opened on a thread
with no open span of its own (a sweep's pool worker) is attributed to the
innermost open ``run_parameter_sweep`` span. Names that no longer exist are
reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc

LAYERS = {
    "config": ("load_config", "resolve_config"),
    "spectrum": ("bifurcation_parameter", "spectral_abscissa", "curve_continuity_violations",
                 "build_weyl_sequence", "weyl_defect"),
    "lyapunov": ("noise_limit_xi", "stationary_covariance_entry", "jordan_stationary_covariance",
                 "multiplication_covariance_norm", "quadratic_form_pairing",
                 "stationary_pairing", "unit_gaussian_profile"),
    "sde": ("simulate_ensemble",),
    "scaling": ("run_parameter_sweep", "make_p_grid", "fit_quantity", "classify_warning_sign",
                "weyl_divergence_probe", "write_sweep_csv"),
    "cli": ("main",),
}
SWEEP = ("scaling", "run_parameter_sweep")
SIMULATE = ("sde", "simulate_ensemble")
# counters read from the arguments of one wrapped function
COUNTERS = {SWEEP: ("scaling.points", "scaling.sweep_parallelism"),
            SIMULATE: ("sde.traj_steps", "sde.s_per_traj_step", "sde.alloc_peak_mb")}


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """In-memory span recorder. A span is
    (id, parent id, layer, name, start, end, error, work)."""

    def __init__(self):
        self.spans = []
        self.missing = []
        # tracemalloc slows allocation-heavy code, so it runs only while set
        self.track_alloc = True
        self.alloc_peak = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_sweeps = []
        self._alloc_lock = threading.Lock()
        self._alloc_active = 0

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "warnlab" or n.startswith("warnlab."))]
        for layer, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"warnlab.{layer}")
            except ImportError:
                self.missing += [f"{layer}.{n}" for n in names]
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        sig = inspect.signature(fn)

        def work(args, kwargs):
            """Sweep points or trajectory steps asked for; None if the
            parameter it is read from has gone."""
            try:
                bound = sig.bind(*args, **kwargs).arguments
                if key == SWEEP:
                    return len(bound["p_grid"])
                cfg = bound["config"]
                return cfg.n_trajectories * max(1, int(round(cfg.horizon / cfg.dt)))
            except (TypeError, KeyError, AttributeError):
                return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_sweeps[-1] if self._open_sweeps else None
            sid = next(self._ids)
            stack.append(sid)
            if key == SWEEP:
                self._open_sweeps.append(sid)
            alloc = key == SIMULATE and self.track_alloc
            if alloc:
                self._alloc_enter()
            error = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                # cli.main reports failure through its exit code
                error = key == ("cli", "main") and out != 0
                return out
            finally:
                end = time.perf_counter()
                if alloc:
                    self._alloc_exit()
                if key == SWEEP:
                    self._open_sweeps.pop()
                stack.pop()
                self.spans.append((sid, parent, layer, name, start, end, error,
                                   work(args, kwargs) if key in (SWEEP, SIMULATE) else None))

        return wrapper

    def _alloc_enter(self):
        with self._alloc_lock:
            if self._alloc_active == 0:
                tracemalloc.start()
            self._alloc_active += 1

    def _alloc_exit(self):
        with self._alloc_lock:
            self._alloc_active -= 1
            if self._alloc_active == 0:
                self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    def layer_metrics(self) -> dict:
        """Per-layer calls, busy_s, self_s and errors plus the sweep and sde
        counters; a metric whose wrapped names are all missing is None.

        busy_s sums the spans with no ancestor in the same layer (thread time,
        so it can exceed wall time under the sweep pool); self_s subtracts from
        each span the union of its children's intervals.
        """
        by_id = {s[0]: s for s in self.spans}
        children = {}
        for s in self.spans:
            children.setdefault(s[1], []).append(s)
        ancestors = {}
        metrics = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "errors")}
        metrics.update({f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("busy_s", "self_s")})
        sweep_wall = sweep_child = 0.0
        points, steps = [], []
        for s in sorted(self.spans):
            sid, parent, layer, name, start, end, error, work = s
            up = by_id.get(parent)
            ancestors[sid] = ancestors.get(parent, frozenset()) | (
                {up[2]} if up else frozenset())
            kids = children.get(sid, [])
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.errors"] += int(error)
            if layer not in ancestors[sid]:
                metrics[f"{layer}.busy_s"] += end - start
            metrics[f"{layer}.self_s"] += (end - start) - _union_length(
                [(k[4], k[5]) for k in kids], start, end)
            if (layer, name) == SWEEP:
                sweep_wall += end - start
                sweep_child += sum(k[5] - k[4] for k in kids)
                points.append(work)
            elif (layer, name) == SIMULATE:
                steps.append(work)
        metrics["scaling.points"] = None if None in points else sum(points)
        metrics["scaling.sweep_parallelism"] = sweep_child / sweep_wall if sweep_wall else 0.0
        n_steps = None if None in steps else sum(steps)
        metrics["sde.traj_steps"] = n_steps
        metrics["sde.s_per_traj_step"] = None
        if n_steps is not None:
            metrics["sde.s_per_traj_step"] = metrics["sde.busy_s"] / n_steps if n_steps else 0.0
        metrics["sde.alloc_peak_mb"] = self.alloc_peak / 2**20
        gone = set(self.missing)
        for layer, names in LAYERS.items():
            if all(f"{layer}.{n}" in gone for n in names):
                for key in [k for k in metrics if k.startswith(layer + ".")]:
                    metrics[key] = None
        for (layer, name), keys in COUNTERS.items():
            if f"{layer}.{name}" in gone:
                for key in keys:
                    metrics[key] = None
        return metrics
