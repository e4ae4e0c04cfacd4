"""Workload inputs, operations and correctness checks for the warnlab benchmark.

A workload is a list of CLI operations (one "pass") that the driver repeats.
Inputs come from the benchmark seed only: generated configs are written into
the run directory, bundled configs are used as they are. Every operation is
checked against laws and oracles held here, never against warnlab's own
closed forms, so that a rewrite of a covariance kernel cannot grade itself.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

THREADS = "2"
EXPONENT_TOL = 0.05
# A Monte Carlo entry further than this many standard errors from the dense
# oracle fails its operation; entries within 3 SE are counted for the
# within-3-SE fraction. 5 SE keeps chance failures below one in a million.
MC_FAIL_SE = 5.0

CLOSED_FORM = ("single_mode.json", "jordan_block.json", "quadratic_symbol.json",
               "quadratic_symbol_coarse.json")
BUNDLED = CLOSED_FORM + ("single_mode_mc.json",)

# Scaling laws of the paper, per bundled config: quantity -> exponent. A tuple
# key means the exponents of those quantities must match as a multiset.
LAWS = {
    "single_mode.json": {"critical_diagonal": -1.0},
    "jordan_block.json": {("block_entry:1,1", "block_entry:1,2", "block_entry:2,2"):
                          (-3.0, -2.0, -1.0)},
    "quadratic_symbol.json": {"norm": -1.0},
    "quadratic_symbol_coarse.json": {"norm": -1.0, "gaussian_pairing": -1.5},
}
WEYL_LAW = -1.0

WORKLOADS = ("closed_form_cli", "mc_acceptance", "mc_long_horizon")


@dataclass
class Op:
    """One CLI invocation and what its outputs must satisfy."""

    label: str
    argv: list
    out: Path | None = None
    laws: dict = field(default_factory=dict)
    # quantity -> list of (p, oracle |V|) for simulate operations
    oracle: dict = field(default_factory=dict)


# --- input generation -------------------------------------------------------

def _affine(cid: int, offset: complex) -> dict:
    return {"id": cid, "kind": "affine", "slope": 1.0, "offset": [offset.real, offset.imag]}


def _complex_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _mc_config(name, curves, jordan_sizes, noise, sweep, n_traj, horizon, seed, quantities):
    return {
        "name": name,
        "model": {
            "kind": "spectral",
            "curves": curves,
            "critical_index": 0,
            "jordan_sizes": {str(k): v for k, v in jordan_sizes.items()},
            "noise_matrix": _complex_matrix(noise),
            "sigma": {"kind": "constant", "value": 1.0},
        },
        "sweep": sweep,
        "engine": {"kind": "empirical", "dt": 0.05, "horizon": horizon,
                   "n_trajectories": n_traj, "master_seed": seed, "burn_in": 0.5},
        "quantities": quantities,
    }


def generate_configs(workload: str, seed: int) -> dict:
    """Config documents the workload generates from ``seed``, keyed by file name."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "mc_acceptance":
        # criterion-7 size: N = 1e4, dt = 0.05, T = 50 over p = -1 ... -0.125
        sweep = {"start": -1.0, "count": 4, "factor": 0.5, "spacing": "geometric"}
        return {
            "mc_single_mode.json": _mc_config(
                "criterion-7 single mode", [_affine(0, 0j)], {}, np.eye(1), sweep,
                10_000, 50.0, int(rng.integers(2**63)), ["critical_diagonal"]),
            "mc_jordan2.json": _mc_config(
                "criterion-7 size-2 Jordan block", [_affine(0, 0j)], {0: 2}, np.eye(2), sweep,
                10_000, 50.0, int(rng.integers(2**63)),
                ["block_entry:1,1", "block_entry:1,2", "block_entry:2,2"]),
        }
    if workload == "mc_long_horizon":
        # size-3 critical Jordan block plus five stable modes p - 0.5k + ik,
        # driven by a dense complex noise G G^H / 8
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        noise = g @ g.conj().T / 8.0
        noise = 0.5 * (noise + noise.conj().T)
        curves = [_affine(0, 0j)] + [_affine(k, complex(-0.5 * k, k)) for k in range(1, 6)]
        sweep = {"start": -1.0, "count": 3, "factor": 0.5, "spacing": "geometric"}
        return {
            "mc_dim8.json": _mc_config(
                "long-horizon dim-8 ensemble", curves, {0: 3}, noise, sweep,
                512, 400.0, int(rng.integers(2**63)),
                ["block_entry:1,1", "block_entry:1,3", "block_entry:3,3"]),
        }
    return {}


# --- dense oracle -----------------------------------------------------------

def _as_complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def dense_lyapunov(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A V + V A^H = -C through the n^2 x n^2 Kronecker system."""
    n = a.shape[0]
    eye = np.eye(n)
    v = np.linalg.solve(np.kron(a, eye) + np.kron(eye, a.conj()), -c.reshape(-1))
    return v.reshape(n, n)


def mc_oracle(doc: dict) -> dict:
    """|V| at each sweep point for each quantity of a spectral empirical config.

    Reads only the config document: affine curves, Jordan sizes, the noise
    matrix and a constant sigma. The grid is rebuilt from the sweep settings
    around the p* where the affine critical curve crosses the imaginary axis.
    """
    model = doc["model"]
    curves = model["curves"]
    crit = next(c for c in curves if c["id"] == model["critical_index"])
    p_star = -_as_complex(crit["offset"]).real / crit["slope"]
    sizes = {int(k): int(v) for k, v in model.get("jordan_sizes", {}).items()}
    noise = np.array([[_as_complex(v) for v in row] for row in model["noise_matrix"]])
    sigma = float(model["sigma"]["value"])
    sw = doc["sweep"]
    grid = p_star - (p_star - sw["start"]) * sw["factor"] ** np.arange(sw["count"])
    offsets, pos = {}, 0
    for c in curves:
        offsets[c["id"]] = pos
        pos += sizes.get(c["id"], 1)
    top = offsets[crit["id"]]
    out = {q: [] for q in doc["quantities"]}
    for p in grid:
        a = np.zeros((pos, pos), dtype=complex)
        for c in curves:
            lam = c["slope"] * p + _as_complex(c["offset"])
            off = offsets[c["id"]]
            for i in range(sizes.get(c["id"], 1)):
                a[off + i, off + i] = lam
                if i > 0:
                    a[off + i - 1, off + i] = 1.0
        v = dense_lyapunov(a, sigma * sigma * noise)
        for q in doc["quantities"]:
            if q == "critical_diagonal":
                i = j = top
            else:
                l, m = q.split(":")[1].split(",")
                i, j = top + int(l) - 1, top + int(m) - 1
            out[q].append((float(p), abs(v[i, j])))
    return out


# --- operations --------------------------------------------------------------

def build_ops(workload: str, seed: int, configs_dir: Path, work_dir: Path) -> list:
    """Write the workload's generated inputs and return one pass of operations."""
    work_dir.mkdir(parents=True, exist_ok=True)
    generated = generate_configs(workload, seed)
    for name, doc in generated.items():
        (work_dir / name).write_text(json.dumps(doc, indent=1))

    def cmd(kind, path, label, out=True, extra=()):
        argv = [kind, "--config", str(path), "--threads", THREADS, *extra]
        out_dir = None
        if out:
            out_dir = work_dir / "out" / label
            argv += ["--out", str(out_dir)]
        return Op(label=label, argv=argv, out=out_dir)

    if workload == "closed_form_cli":
        ops = [cmd("validate", configs_dir / n, f"validate:{n}", out=False) for n in BUNDLED]
        for n in CLOSED_FORM:
            op = cmd("analytic", configs_dir / n, f"analytic:{n}")
            op.laws = LAWS[n]
            ops.append(op)
        doc = json.loads((configs_dir / "quadratic_symbol.json").read_text())
        op = cmd("weyl", configs_dir / "quadratic_symbol.json", "weyl:quadratic_symbol.json")
        op.laws = {f"weyl_pairing:{k}": WEYL_LAW for k in doc["weyl"]["k_values"]}
        ops.append(op)
        return ops

    ops = []
    for name, doc in generated.items():
        op = cmd("simulate", work_dir / name, f"simulate:{name}")
        op.oracle = mc_oracle(doc)
        ops.append(op)
    if workload == "mc_acceptance":
        name = "single_mode_mc.json"
        doc = json.loads((configs_dir / name).read_text())
        op = cmd("simulate", configs_dir / name, f"simulate:{name}",
                 extra=("--seed", str(int(np.random.default_rng(seed).integers(2**63)))))
        op.oracle = mc_oracle(doc)
        ops.append(op)
    return ops


def trajectory_steps(op: Op) -> int:
    """N * steps the operation simulates per sweep point, summed over points."""
    if not op.oracle:
        return 0
    doc = json.loads(Path(op.argv[2]).read_text())
    eng = doc["engine"]
    steps = max(1, int(round(eng["horizon"] / eng["dt"])))
    points = len(next(iter(op.oracle.values())))
    return eng["n_trajectories"] * steps * points


# --- checks ------------------------------------------------------------------

def _read_csvs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("sweep_*.csv"))}


class Checker:
    """Checks each operation's outputs; remembers first-pass CSV bytes."""

    def __init__(self):
        self.first_csv = {}
        self.within_3se = 0
        self.mc_entries = 0

    def check(self, op: Op, rc: int, stdout: str) -> list:
        """Return the list of problems found (empty when the operation is correct)."""
        if rc != 0:
            return [f"exit code {rc}"]
        if op.argv[0] == "validate":
            return [] if stdout.startswith("config OK") else ["validate printed no 'config OK'"]
        problems = []
        csvs = _read_csvs(op.out)
        if not csvs:
            problems.append("no CSV written")
        first = self.first_csv.setdefault(op.label, csvs)
        if csvs != first:
            problems.append("CSV bytes differ from the first pass")
        if op.laws:
            problems += self._check_laws(op)
        if op.oracle:
            problems += self._check_oracle(op, csvs)
        return problems

    def _check_laws(self, op: Op) -> list:
        results = json.loads((op.out / "report.json").read_text())["results"]
        problems = []
        for key, want in op.laws.items():
            names = key if isinstance(key, tuple) else (key,)
            wants = want if isinstance(want, tuple) else (want,)
            try:
                got = sorted(results[n]["fit"]["exponent"] for n in names)
            except (KeyError, TypeError):
                problems.append(f"{key}: no fitted exponent in report.json")
                continue
            if any(abs(g - w) > EXPONENT_TOL for g, w in zip(got, sorted(wants))):
                problems.append(f"{key}: exponents {got} differ from the law {list(wants)}")
        return problems

    def _check_oracle(self, op: Op, csvs: dict) -> list:
        rows = {}
        for data in csvs.values():
            for r in csv.DictReader(io.StringIO(data.decode())):
                rows.setdefault(r["quantity"], []).append(r)
        problems = []
        for q, expected in op.oracle.items():
            got = rows.get(q, [])
            if len(got) != len(expected):
                problems.append(f"{q}: {len(got)} rows, expected {len(expected)}")
                continue
            for r, (p, exact) in zip(got, expected):
                value, se = float(r["value"]), float(r["stderr"])
                if abs(float(r["p"]) - p) > 1e-12 * max(1.0, abs(p)) or not se > 0.0:
                    problems.append(f"{q}: bad row p={r['p']} stderr={r['stderr']}")
                    continue
                z = abs(value - exact) / se
                self.mc_entries += 1
                self.within_3se += z <= 3.0
                if z > MC_FAIL_SE:
                    problems.append(f"{q} at p={p}: {value} is {z:.1f} SE from oracle {exact}")
        return problems
