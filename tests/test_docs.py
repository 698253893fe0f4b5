"""The README quick start and the demos run as documented, the README,
configs/desk.cfg and pyproject.toml match the program they describe, no
package module imports a name it never reads, no exported name is read
only by the tests, and no definition in the package is read by nothing."""

import argparse
import ast
import importlib
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import sdlowrank
from sdlowrank import cli, harness

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1


def test_quantizer_walkthrough_runs(capsys):
    demo = runpy.run_path(str(ROOT / "demos" / "quantizer_walkthrough.py"))
    demo["run_demo"]()
    assert "relative error" in capsys.readouterr().out


def test_basis_build_demo_runs_in_its_own_process():
    # one build on each route that takes more than a closed form
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demo = str(ROOT / "demos" / "basis_build.py")
    for r, route in (("2", r"structured"), ("4", r"subspace iteration after \d+ power steps")):
        done = subprocess.run([sys.executable, demo, "320", r, "80"], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        lines = done.stdout.splitlines()
        assert lines[0].startswith(f"compute_basis(m=320, r={r}, ell=80): ")
        assert re.fullmatch("route = " + route, lines[1])
        assert lines[2].startswith("sigma_ell = ")
        certificate = float(lines[3].split()[2])
        assert 0.99 < certificate <= 1 + 1e-9
        assert lines[4].startswith("peak RSS = ")


def test_readme_lists_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Command line .*?```\n(.*?)```", readme, re.DOTALL).group(1)
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("sdlowrank ")]
    [subcommands] = [action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(subcommands)


def test_desk_config_sets_every_field():
    lines = (ROOT / "configs" / "desk.cfg").read_text(encoding="utf-8").splitlines()
    keys = [line.partition("=")[0].strip() for line in lines
            if line.strip() and not line.startswith("#")]
    assert sorted(keys) == sorted(f.name for f in fields(harness.ExperimentConfig))


def test_pyproject_names_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == sdlowrank.__name__
    assert project["version"] == sdlowrank.__version__


def test_package_exports_are_in_their_modules_all():
    # a name the package exports is public in the module that defines it
    missing = []
    for name in sdlowrank.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(getattr(sdlowrank, name).__module__)
        if name not in getattr(module, "__all__", ()):
            missing.append(f"{module.__name__}.{name}")
    assert missing == []


def test_package_modules_read_every_name_they_import():
    # no linter runs with the tests, so this is the check for a dead import
    unused = []
    for path in sorted((ROOT / "src" / "sdlowrank").glob("*.py")):
        module = "sdlowrank" if path.stem == "__init__" else f"sdlowrank.{path.stem}"
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read and name not in exported:
                        unused.append(f"{module}.{name}")
    assert unused == []


def _names_read(path):
    """The names a file reads, as a name or as an attribute of anything,
    outside the definition of a function or class of that name."""

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name and isinstance(getattr(node, "ctx", None), ast.Load) and name not in defining:
            yield name
        for child in ast.iter_child_nodes(node):
            yield from walk(child, defining)

    return set(walk(ast.parse(path.read_text(encoding="utf-8")), frozenset()))


def test_every_exported_name_is_read_outside_the_tests():
    # no public API that only tests call: each name in a module's __all__,
    # and in the package's, is read somewhere in src/, bench/ or demos/.
    # A read is matched by name alone; dunder metadata such as __version__
    # is exempt
    read = set().union(*(_names_read(path) for folder in ("src", "bench", "demos")
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unread = []
    for path in sorted((ROOT / "src" / "sdlowrank").glob("*.py")):
        module = "sdlowrank" if path.stem == "__init__" else f"sdlowrank.{path.stem}"
        unread += [f"{module}.{name}"
                   for name in getattr(importlib.import_module(module), "__all__", ())
                   if not name.startswith("__") and name not in read]
    assert unread == []


def _strings(path):
    """The string constants of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _definitions(path):
    """The module-level functions, classes and assigned names of a file,
    and the methods of its classes; dunder names are read by Python itself."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def test_every_package_definition_is_read_outside_the_tests():
    # no dead code: each module-level definition and method of the package
    # is read somewhere in src/, bench/ or demos/, outside its own
    # definition.  A read is a name or attribute load, matched by name
    # alone, or a string constant equal to the name (bench/tracing.py
    # names the functions it wraps as strings)
    paths = [path for folder in ("src", "bench", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    read = set().union(*(_names_read(path) | _strings(path) for path in paths))
    unread = [f"{path.stem}.{name}"
              for path in sorted((ROOT / "src" / "sdlowrank").glob("*.py"))
              for name in _definitions(path) if name not in read]
    assert unread == []
