"""No module of the package uses an ``assert`` statement.

``python -O`` strips assert statements, so a certificate guarded by one
stops being checked there.  The package raises ``AssertionError``
explicitly instead; this AST scan keeps it that way.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricval"
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source):
    """Line numbers of every assert statement in the source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_asserts_only():
    source = (
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    if not x:\n"
        "        raise AssertionError('kept under -O')\n"
        "    return [y for y in x if (lambda: 1)()]\n"
        "assert_x = 1\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert assert_lines(source) == [2, 9]


def test_scan_covers_the_package():
    assert len(MODULES) >= 10
