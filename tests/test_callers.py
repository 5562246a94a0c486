"""Every function and method in ``src/bien/`` has a caller outside tests.

Reference and brute-force code belongs in ``tests/oracles.py``, so a
library function that only tests call is dead weight. This check reads
the sources with ``ast`` and imports nothing. A name counts as used when
``src/bien/`` or ``perfbench/`` refers to it anywhere but in its own
``def``: a module-level or nested function by a name or attribute that
is read, or by an import; a method by a read attribute (``obj.name``)
only, since a bare name inside a method is a local variable, not the
method. Names are matched without their class, so the check can miss a
dead method that shares its name with a live attribute, and it flags a
function that is reached only through ``getattr`` with a string.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "bien").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(path):
    """(qualified name, ``def`` node, is_method) of every function defined
    in ``path``."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                out.append((f"{prefix}{child.name}", child, in_class))
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.", False)
    return out


def _references(paths):
    """Names and attributes read, and names imported, over ``paths``."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            loaded = isinstance(getattr(node, "ctx", None), ast.Load)
            if isinstance(node, ast.Name) and loaded:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and loaded:
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attributes


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced(library, callers):
    """Qualified names of the non-dunder functions of ``library`` that
    nothing in ``callers`` refers to."""
    names, attributes = _references(callers)
    out = []
    for path in library:
        for qualified, node, is_method in _definitions(path):
            used = node.name in attributes or (not is_method and node.name in names)
            if not (_is_dunder(node.name) or used):
                out.append(qualified)
    return out


def test_every_library_function_has_a_production_caller():
    assert unreferenced(LIBRARY, CALLERS) == []


@pytest.mark.parametrize("source, dead", [
    ("def f():\n    pass\n", ["m.f"]),
    ("def f():\n    pass\n\nf()\n", []),
    ("class C:\n"
     "    def go(self):\n        pass\n\n"
     "    def run(self):\n        go = 1\n        return go\n", ["m.C.go", "m.C.run"]),
    ("class C:\n"
     "    def go(self):\n        pass\n\n"
     "    def __len__(self):\n        return self.go()\n", []),
    ("class C:\n    def go(self):\n        pass\n\nC().go = 1\n", ["m.C.go"]),
    ("def outer():\n    def inner():\n        pass\n    return 1\n\nouter()\n", ["m.outer.inner"]),
], ids=[
    "unused-function", "called-function", "method-named-by-a-local-only",
    "method-read-as-an-attribute", "method-only-assigned", "unused-nested-function",
])
def test_the_check_finds_what_nothing_refers_to(tmp_path, source, dead):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unreferenced([path], [path]) == dead
