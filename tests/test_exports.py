import ast
import re
from pathlib import Path

import warnlab
import warnlab.lyapunov
import warnlab.scaling


def test_every_export_resolves_once():
    names = warnlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(warnlab, name) is not None, name


def test_deleted_multiplication_closed_forms_stay_gone():
    # the analytic sweep is the one multiplication-model path, and the noise
    # limit Xi is the model's closed form (SpectralModel.noise_limit_xi)
    for name in ("multiplication_covariance_norm", "quadratic_form_pairing",
                 "stationary_pairing", "noise_limit_xi", "XiEstimate"):
        assert name not in warnlab.__all__
        assert not hasattr(warnlab, name)
        assert not hasattr(warnlab.lyapunov, name)
    # a Weyl probe is run_parameter_sweep on weyl_pairing:k, and cli writes
    # every output
    for name in ("weyl_divergence_probe", "write_sweep_csv"):
        assert name not in warnlab.__all__
        assert not hasattr(warnlab, name)
        assert not hasattr(warnlab.scaling, name)


def _top_level_names(tree):
    """(name, statement) for every function, class and constant a module
    defines at its top level; dunder names are module metadata."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, stmt


def _references(node) -> set:
    """Names that a statement reads, bare or as an attribute."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def _console_scripts(pyproject: str) -> set:
    """Function names of the ``name = "module:function"`` lines under
    ``[project.scripts]``."""
    section = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    return set(re.findall(r':(\w+)"', section))


def test_no_dead_code_in_the_package():
    # every top-level definition is read by another statement of the
    # package, exported, or a console script
    package = Path(warnlab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    scripts = _console_scripts((package.parents[1] / "pyproject.toml").read_text())
    assert scripts == {"console_main"}
    dead = []
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree):
            read = any(name in refs for stmt, refs in reads if stmt is not definition)
            if not (read or name in warnlab.__all__ or name in scripts):
                dead.append(f"{module}:{name}")
    assert dead == []


def _readme_sketch_names(readme: str) -> set:
    """Names the README's "Library sketch" calls as ``wl.<name>``."""
    section = readme.partition("## Library sketch")[2].partition("\n## ")[0]
    return set(re.findall(r"\bwl\.(\w+)", section))


def test_every_export_has_a_user():
    # an export is read by a statement of the package other than its
    # definition and the re-export in __init__, or is part of the README's
    # library sketch; an export that only tests import belongs in the tests
    package = Path(warnlab.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    definitions = {name: stmt for tree in trees for name, stmt in _top_level_names(tree)}
    reads = [(stmt, _references(stmt)) for tree in trees for stmt in tree.body
             if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    sketch = _readme_sketch_names((package.parents[1] / "README.md").read_text())
    unused = [name for name in warnlab.__all__ if name not in sketch
              and not any(name in refs for stmt, refs in reads if stmt is not definitions.get(name))]
    assert unused == []
