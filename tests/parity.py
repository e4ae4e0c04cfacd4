"""Byte-parity transcript of the warnlab command line.

Runs ``validate``, ``analytic``, ``weyl`` and ``simulate`` (at ``--threads
1`` and ``2``) on every config in ``configs/`` and ``tests/data/`` and on the
Monte Carlo configs that ``perfbench.workloads.generate_configs`` makes from
seed 7. Each command runs in a fresh interpreter that imports warnlab
from ``ROOT/src``, with ``WARNLAB_LOG`` unset and a fresh output directory.
The transcript holds, per run, the exit code, stdout and stderr with the
output directory and config path replaced by ``<out>`` and ``<config>``, the
text of every CSV written, and ``report.json`` without its ``timing``.

    python tests/parity.py --out A.json                 # this checkout
    python tests/parity.py --root OTHER --out B.json    # another checkout
    python tests/parity.py --compare A.json B.json

``--compare`` prints every run whose record differs, with the differing
fields, and exits 1 if any does. The configs are those of the checkout
this script sits in, so two transcripts run the same inputs. This file is
a script: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
COMMANDS = (("validate",), ("analytic",), ("weyl",),
            ("simulate", "--threads", "1"), ("simulate", "--threads", "2"))
MC_WORKLOADS = ("mc_acceptance", "mc_long_horizon")
SEED = 7


def config_files(scratch: Path) -> dict:
    """Label -> path of every config the transcript runs; the generated
    ones are written under ``scratch``."""
    files = {f"configs/{p.name}": p for p in sorted((HERE / "configs").glob("*.json"))}
    files.update({f"tests/data/{p.name}": p
                  for p in sorted((HERE / "tests" / "data").glob("*.json"))})
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    for workload in MC_WORKLOADS:
        for name, doc in workloads.generate_configs(workload, SEED).items():
            path = scratch / name
            path.write_text(json.dumps(doc, indent=1))
            files[f"perfbench/{workload}/{name}"] = path
    return files


def run_one(root: Path, config: Path, command: tuple, out: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "WARNLAB_LOG")}
    env["PYTHONPATH"] = str(root / "src")
    out.parent.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "warnlab.cli", command[0], "--config", str(config),
         "--out", str(out), *command[1:]],
        cwd=out.parent, env=env, capture_output=True, text=True, check=False)

    def normalise(text: str) -> str:
        return text.replace(str(out), "<out>").replace(str(config), "<config>")

    record = {"exit": proc.returncode, "stdout": normalise(proc.stdout),
              "stderr": normalise(proc.stderr), "csv": {}, "report": None}
    if out.is_dir():
        for path in sorted(out.glob("*.csv")):
            record["csv"][path.name] = path.read_bytes().decode()
        if (out / "report.json").is_file():
            report = json.loads((out / "report.json").read_text())
            report.pop("timing", None)
            record["report"] = report
    return record


def transcript(root: Path) -> dict:
    runs = {}
    with tempfile.TemporaryDirectory(prefix="warnlab-parity-") as tmp:
        scratch = Path(tmp)
        for label, config in config_files(scratch).items():
            for command in COMMANDS:
                key = f"{label} {' '.join(command)}"
                runs[key] = run_one(root, config, command, scratch / f"run{len(runs)}" / "out")
                print(f"{key}: exit {runs[key]['exit']}", file=sys.stderr)
    return runs


def _differences(a, b, path: str):
    """Paths (and, for strings, a unified diff) at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                yield f"{sub}: only in {'B' if key not in a else 'A'}"
            else:
                yield from _differences(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{i}]")
    elif isinstance(a, str) and isinstance(b, str) and a != b:
        diff = difflib.unified_diff(a.splitlines(), b.splitlines(), "A", "B", lineterm="", n=1)
        yield f"{path}:\n    " + "\n    ".join(list(diff)[2:])
    elif a != b or type(a) is not type(b):
        yield f"{path}: {a!r} != {b!r}"


def compare(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    differing = 0
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            print(f"{key}: only in {'B' if key not in a else 'A'}")
            differing += 1
            continue
        lines = list(_differences(a[key], b[key], ""))
        if lines:
            differing += 1
            print(f"{key}:")
            for line in lines:
                print(f"  {line}")
    total = len(set(a) | set(b))
    print(f"{differing} of {total} runs differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout whose src/warnlab runs (default: this one)")
    parser.add_argument("--out", type=Path, help="transcript file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out or --compare is required")
    record = transcript(args.root.resolve())
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
