"""Every module of the package and of the test suite reads each name it imports,
and the package reads every private name it defines.

No linter ships with the project, so these are the unused-import and
unused-private-name checks: stdlib ``ast`` scans.  ``from __future__``
imports and names that a module lists in ``__all__`` count as used.
"""

import ast
from pathlib import Path

import pytest

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
