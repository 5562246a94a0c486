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

from code_lines import code_lines

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


# ``statement_audit`` imports this module, so the tests of its parts
# import them where they use them.
@pytest.mark.parametrize("source, first", [
    ("def f():\n    return 1\n", 2),
    ('def f():\n    """Doc."""\n    return 1\n', 3),
    ('def f():\n    """Doc."""\n', 2),
    ("def f():\n    global x\n    x = 1\n", 3),
    ("def outer():\n    y = 0\n\n    def f():\n"
     '        """Doc."""\n        global x\n        nonlocal y\n        return y\n', 8),
], ids=["plain", "docstring", "docstring-only", "global", "docstring-global-nonlocal"])
def test_a_functions_first_line_is_its_first_statement_that_runs(source, first):
    from statement_audit import _first_line

    node = next(n for n in ast.walk(ast.parse(source)) if getattr(n, "name", None) == "f")
    assert _first_line(node) == first


def test_a_statement_header_starts_at_its_first_decorator_and_skips_docstrings(tmp_path):
    from statement_audit import _headers

    path = tmp_path / "m.py"
    path.write_text('"""Module."""\n\n@a\n@b(\n    1)\ndef f(\n        x):\n'
                    '    """Doc."""\n    return x\n\n\nclass C:\n    """Doc."""\n')
    assert sorted(_headers(path)) == [(3, 7, "def f("), (9, 9, "return x"), (12, 12, "class C:")]


def test_the_function_report_lists_the_functions_whose_first_line_did_not_run(tmp_path):
    from statement_audit import unentered

    path = tmp_path / "m.py"
    path.write_text('def f():\n    return 1\n\n\ndef g():\n    """Doc."""\n    return 2\n\n\n'
                    "class C:\n    def m(self):\n        global x\n        x = 3\n\n"
                    "    def n(self):\n        def inner():\n            pass\n        return inner\n")
    # f and C.n ran their first lines; g and C.m only their ``def`` lines and
    # docstring or declaration; C.n.inner never ran
    ran = {(str(path), line) for line in (2, 5, 6, 11, 12, 15, 16, 18)}
    assert unentered([path], ran) == ["m.g", "m.C.m", "m.C.n.inner"]
    assert unentered([path], {("other.py", 2), ("other.py", 18)}) == [
        "m.f", "m.g", "m.C.m", "m.C.n", "m.C.n.inner"]


# Sources of known code-line counts (``tests/code_lines.py``).
@pytest.mark.parametrize("source, n", [
    ("\n# a comment\n\n    # an indented one\n", 0),
    ('"""Module."""\n', 0),
    ('"""Module,\n\nover three lines."""\nx = 1\n', 1),
    ('class C:\n    """Doc."""\n', 1),
    ('class C:\n    """Doc,\n    over two."""\n\n    y = 2\n', 2),
    ('def f():\n    """Doc."""\n    return 1\n', 2),
    ('async def f():\n    """Doc,\n\n    over three."""\n', 1),
    ("def f():\n    # why\n\n    return 1  # a trailing comment\n", 2),
    ('x = 1\n"""Not a docstring."""\n', 2),
    ('def f():\n    x = 1\n    """Not a docstring."""\n', 3),
    ("f(\n    1,\n    # no\n    2,\n)\n", 4),
    ('x = """a string\nover two lines"""\n', 2),
], ids=[
    "comments-and-blanks", "module-docstring", "multi-line-module-docstring", "class-docstring",
    "multi-line-class-docstring", "function-docstring", "multi-line-async-docstring",
    "comment-lines-and-a-trailing-comment", "string-statement-after-code",
    "string-statement-in-a-body", "multi-line-call", "multi-line-string-value",
])
def test_the_code_line_count(source, n):
    assert code_lines(source) == n
