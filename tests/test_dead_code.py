"""No private module-level function or class, and no slot, of the package
goes unused.

A plain AST scan in the style of test_imports.py: every ``def _name`` or
``class _name`` at the top level of a module under ``src/toricval`` must be
referenced somewhere in the package, as a name or as an attribute
(``module._name``).  Public names are the API and are exempt.  Every
``__slots__`` entry of a package class must be read somewhere in the
package, as an attribute in load context (``obj.slot``); a slot that is
only ever assigned holds dead state.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricval"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_definitions(tree):
    """(line, name) of every private top-level function or class."""
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(sources):
    """(module, line, name) for private definitions no module refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    return [
        (module, line, name)
        for module, tree in sorted(trees.items())
        for line, name in private_definitions(tree)
        if name not in used
    ]


def slot_entries(tree):
    """(class, line, slot) for every ``__slots__`` entry of a class."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                slots = ast.literal_eval(stmt.value)
                if isinstance(slots, str):
                    slots = (slots,)
                out.extend((node.name, stmt.lineno, slot) for slot in slots)
    return out


def unread_slots(sources):
    """(module, class, line, slot) for slots no module reads as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (module, cls, line, slot)
        for module, tree in sorted(trees.items())
        for cls, line, slot in slot_entries(tree)
        if slot not in read
    ]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced(sources) == []


def test_scanner_flags_unused_and_spares_used():
    sources = {
        "a.py": (
            "def _dead(): pass\n"
            "def _called(): pass\n"
            "class _Kept: pass\n"
            "def public(): return _called()\n"
        ),
        "b.py": (
            "import a\n"
            "from a import _Kept\n"
            "def _via_attr(): pass\n"
            "class _Lost:\n"
            "    def _method(self): pass\n"
            "a._via_attr\n"
        ),
    }
    assert unreferenced(sources) == [("a.py", 1, "_dead"), ("b.py", 4, "_Lost")]


def test_every_slot_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_slots(sources) == []


def test_slot_scanner_flags_write_only_slots():
    sources = {
        "a.py": (
            "class A:\n"
            "    __slots__ = ('kept', 'dead', '_cache')\n"
            "    def __init__(self):\n"
            "        self.kept = self.dead = self._cache = 0\n"
            "    def get(self):\n"
            "        return self.kept\n"
            "class B:\n"
            "    __slots__ = 'lone'\n"
        ),
        "b.py": "def peek(a):\n    return a._cache\n",
    }
    assert unread_slots(sources) == [
        ("a.py", "A", 2, "dead"), ("a.py", "B", 8, "lone"),
    ]


def test_scan_covers_the_package():
    assert len(MODULES) >= 10
