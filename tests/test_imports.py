"""Every name a kitealg module imports is used in that module, and every
import sits at module level.

A stdlib `ast` scan: the names an import statement binds are compared with
the names the module's code reads (including annotations). `__init__.py`
re-exports the public API, so it is exempt, as is `from __future__ import`.
An import inside a function or a class hides a module dependency (and any
import cycle) until the code runs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kitealg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def nested_imports(source: str) -> list:
    """Lines of the import statements inside a function or a class."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({inner.lineno
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, scopes)
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    src = "import itertools\nfrom typing import Any, Optional\nx: Optional[int] = 1\n"
    assert unused_imports(src) == ["Any (line 2)", "itertools (line 1)"]


def test_scan_flags_an_import_inside_a_function_or_class():
    src = ("import json\n"
           "def f():\n    from os import path\n    return path\n"
           "class C:\n    import re\n")
    assert nested_imports(src) == [3, 6]
