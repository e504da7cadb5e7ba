"""Every module of the package and of the test suite reads each name it imports,
the package reads every private name it defines, the CLI imports only what the
package exports, and the package raises only what the CLI maps to an exit code.

No linter ships with the project, so these are the unused-import,
unused-private-name and raised-class checks: stdlib ``ast`` scans.
``from __future__`` imports and names that a module lists in ``__all__``
count as used.
"""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

from miworlds.errors import MiwError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "miworlds").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name not in exported)


def test_the_scan_flags_an_unread_import_only():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from typing import Optional\n"
        "__all__ = ['tau']\n"
        "def f(x: Optional[int]):\n"
        "    return os.path.join(x, str(pi))\n"
    )
    assert unused_imports(source) == ["json (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def _private_names(tree) -> dict:
    """Module-level ``_x`` names (not dunders) bound by a def, class or assignment."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    return {k: v for k, v in bound.items() if k.startswith("_") and not k.startswith("__")}


def unread_private_names(sources: dict) -> list:
    """Private module-level names of ``sources`` (path -> text) that none of them reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(f"{path}: {name} (line {line})" for path, tree in trees.items()
                  for name, line in _private_names(tree).items() if name not in read)


def test_the_private_name_scan_flags_an_unread_name_only():
    sources = {
        "a.py": "_KEPT = 1\n_LEFT, __dunder__ = 2, 3\ndef _helper():\n    return _KEPT\n",
        "b.py": "from a import _helper\nclass _Box:\n    pass\nx = _helper() + obj._Box\n",
    }
    assert unread_private_names(sources) == ["a.py: _LEFT (line 2)"]


def test_package_reads_every_private_name():
    sources = {f"src/miworlds/{p.name}": p.read_text() for p in PACKAGE}
    assert unread_private_names(sources) == []


def unexported_imports(source: str, package: str) -> list:
    """``module.name`` of each name that ``source``, a module of ``package``,
    imports from a module of the package that does not list it in ``__all__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = f"{package}.{node.module}" if node.level else node.module
        if not module.startswith(f"{package}."):
            continue
        exported = getattr(importlib.import_module(module), "__all__", ())
        found += [f"{module}.{alias.name}" for alias in node.names
                  if alias.name not in exported]
    return found


def test_the_export_scan_flags_private_and_unlisted_names():
    # solver's module-level ``partial`` is public but not exported
    source = ("from .solver import solve_configuration, _baseline, partial\n"
              "from miworlds.targets import Baseline, _horner\n"
              "from json import dumps\n")
    assert unexported_imports(source, "miworlds") == [
        "miworlds.solver._baseline", "miworlds.solver.partial", "miworlds.targets._horner"]


def test_cli_imports_only_exported_names():
    # the command line runs on the public API: nothing it imports is private
    assert unexported_imports((ROOT / "src" / "miworlds" / "cli.py").read_text(), "miworlds") == []


def raised_classes(source: str) -> list:
    """(name, line) of each class that a ``raise`` names, directly or as the
    first argument of ``failure``, outside an ``if __name__ == "__main__"`` block."""
    tree = ast.parse(source)
    main = {id(n) for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in main:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "failure":
                exc = node.exc.args[0]
            found.append((ast.unparse(exc), node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_the_raise_scan_reads_failure_and_skips_the_main_block():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise KeyError(x)\n"
        "    raise failure(NonConvergence, 'm') from None\n"
        "if __name__ == '__main__':\n"
        "    raise SystemExit(f(0))\n"
    )
    assert raised_classes(source) == [("KeyError", 3), ("NonConvergence", 4)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_raises_only_what_the_cli_maps(path):
    # cli.main turns these into exit codes 1 (MiwValidation) and 2; a refused
    # input that is not a MiwValidation would exit 2, and anything else is a traceback
    namespace = vars(importlib.import_module(f"miworlds.{path.stem}"))
    unmapped = [f"{name} (line {line})" for name, line in raised_classes(path.read_text())
                if not issubclass(namespace.get(name) or getattr(builtins, name),
                                  (MiwError, MemoryError))]
    assert unmapped == []
