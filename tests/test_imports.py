"""No module of the package imports a name it never uses.

A plain AST scan, since no linter is a dependency: every name an import
binds must appear somewhere in the module as a name (or as the base of an
attribute chain, which is a name too) or in ``__all__``.  Package
``__init__.py`` files re-export by importing, and ``from __future__``
imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricval"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) for every imported name the module never references."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_unused_and_spares_used():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import xml.dom\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "system.exit(b(xml))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "d")]


def test_scan_covers_the_package():
    assert len(MODULES) >= 10
