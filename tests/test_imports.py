"""Every name a kitealg module imports is used in that module.

A stdlib `ast` scan: the names an import statement binds are compared with
the names the module's code reads (including annotations). `__init__.py`
re-exports the public API, so it is exempt, as is `from __future__ import`.
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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    src = "import itertools\nfrom typing import Any, Optional\nx: Optional[int] = 1\n"
    assert unused_imports(src) == ["Any (line 2)", "itertools (line 1)"]
